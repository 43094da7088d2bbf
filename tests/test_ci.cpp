// CI-layer tests: the git hosting model, Hubcast's security criteria
// (Section 3.3.1), Jacamar's identity rules (Section 3.3.2), and the
// GitLab-CI pipeline engine — together, the Figure 6 automation loop.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/ci/git.hpp"
#include "src/ci/hubcast.hpp"
#include "src/ci/jacamar.hpp"
#include "src/ci/pipeline.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/yaml/parser.hpp"

namespace ci = benchpark::ci;
using ci::CheckState;
using ci::GitHost;
using ci::PrState;

// --------------------------------------------------------------------- git

TEST(Git, CommitAndRead) {
  GitHost host("github");
  auto& repo = host.create_repo("llnl", "benchpark");
  repo.commit("main", "olga", "initial",
              {{"README.md", "# Benchpark"}, {"saxpy.c", "kernel"}});
  EXPECT_EQ(repo.file_at("main", "README.md"), "# Benchpark");
  EXPECT_FALSE(repo.file_at("main", "nope").has_value());
  EXPECT_EQ(repo.log("main").size(), 1u);
}

TEST(Git, BranchesForkFromMain) {
  GitHost host("github");
  auto& repo = host.create_repo("llnl", "benchpark");
  repo.commit("main", "olga", "initial", {{"a", "1"}});
  repo.commit("feature", "alec", "tweak", {{"b", "2"}});
  EXPECT_EQ(repo.file_at("feature", "a"), "1");  // inherited
  EXPECT_EQ(repo.file_at("feature", "b"), "2");
  EXPECT_FALSE(repo.file_at("main", "b").has_value());
}

TEST(Git, FileDeletionViaEmptyContent) {
  GitHost host("github");
  auto& repo = host.create_repo("o", "r");
  repo.commit("main", "u", "add", {{"x", "1"}});
  repo.commit("main", "u", "del", {{"x", ""}});
  EXPECT_FALSE(repo.file_at("main", "x").has_value());
}

TEST(Git, ShaDependsOnContentAndHistory) {
  GitHost host("github");
  auto& a = host.create_repo("o", "a");
  auto& b = host.create_repo("o", "b");
  auto sha1 = a.commit("main", "u", "m", {{"f", "1"}});
  auto sha2 = b.commit("main", "u", "m", {{"f", "2"}});
  EXPECT_NE(sha1, sha2);
}

TEST(Git, ForkCopiesBranches) {
  GitHost host("github");
  auto& upstream = host.create_repo("llnl", "benchpark");
  upstream.commit("main", "olga", "initial", {{"a", "1"}});
  auto& fork = host.fork("llnl/benchpark", "student");
  EXPECT_EQ(fork.full_name(), "student/benchpark");
  EXPECT_EQ(fork.file_at("main", "a"), "1");
}

TEST(Git, PrLifecycle) {
  GitHost host("github");
  auto& upstream = host.create_repo("llnl", "benchpark");
  upstream.commit("main", "olga", "initial", {{"a", "1"}});
  auto& fork = host.fork("llnl/benchpark", "student");
  fork.commit("fix", "student", "improve", {{"a", "2"}});

  auto id = host.open_pr("improve a", "student", "student/benchpark", "fix",
                         "llnl/benchpark");
  EXPECT_EQ(host.pr(id).state, PrState::open);
  host.approve_pr(id, "admin");
  EXPECT_TRUE(host.pr(id).approved_by("admin"));
  host.merge_pr(id);
  EXPECT_EQ(host.pr(id).state, PrState::merged);
  EXPECT_EQ(host.repo("llnl/benchpark").file_at("main", "a"), "2");
  EXPECT_THROW(host.merge_pr(id), benchpark::CiError);
}

TEST(Git, PrValidation) {
  GitHost host("github");
  host.create_repo("llnl", "benchpark").commit("main", "o", "i", {{"a", "1"}});
  EXPECT_THROW(host.open_pr("t", "u", "ghost/repo", "b", "llnl/benchpark"),
               benchpark::CiError);
  EXPECT_THROW(host.open_pr("t", "u", "llnl/benchpark", "ghost-branch",
                            "llnl/benchpark"),
               benchpark::CiError);
  EXPECT_THROW((void)host.pr(42), benchpark::CiError);
}

// ------------------------------------------------------------------ hubcast

namespace {

struct HubcastFixture {
  GitHost github{"github"};
  GitHost gitlab{"gitlab"};
  std::uint64_t pr_id = 0;

  HubcastFixture() {
    auto& upstream = github.create_repo("llnl", "benchpark");
    upstream.commit("main", "olga", "initial",
                    {{"experiments/saxpy/ramble.yaml", "v1"},
                     {".gitlab-ci.yml", "stages: [build]\n"}});
    gitlab.create_repo("llnl", "benchpark")
        .commit("main", "hubcast", "mirror", {{"mirror", "1"}});
  }

  ci::Hubcast make_hubcast() {
    ci::SecurityPolicy policy;
    policy.admins = {"site-admin"};
    policy.trusted_users = {"olga"};
    return ci::Hubcast(&github, &gitlab, "llnl/benchpark", policy);
  }

  std::uint64_t fork_pr(const std::string& author,
                        std::map<std::string, std::string> changes = {
                            {"experiments/saxpy/ramble.yaml", "v2"}}) {
    if (!github.find_repo(author + "/benchpark")) {
      github.fork("llnl/benchpark", author);
    }
    github.repo(author + "/benchpark")
        .commit("change", author, "update", changes);
    return github.open_pr("update", author, author + "/benchpark", "change",
                          "llnl/benchpark");
  }
};

}  // namespace

TEST(Hubcast, UntrustedForkPrBlockedUntilApproved) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("student");

  // Section 3.3.1: untrusted fork PRs do not reach GitLab.
  EXPECT_FALSE(hubcast.try_mirror_pr(pr).has_value());
  const auto* check = fx.github.pr(pr).check("hubcast/mirror");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->state, CheckState::failure);
  EXPECT_FALSE(fx.gitlab.repo("llnl/benchpark").has_branch("pr-1"));

  // After a site-admin approval the mirror goes through.
  fx.github.approve_pr(pr, "site-admin");
  auto branch = hubcast.try_mirror_pr(pr);
  ASSERT_TRUE(branch.has_value());
  EXPECT_TRUE(fx.gitlab.repo("llnl/benchpark").has_branch(*branch));
  EXPECT_EQ(fx.github.pr(pr).check("hubcast/mirror")->state,
            CheckState::success);
}

TEST(Hubcast, NonAdminApprovalInsufficient) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("student");
  fx.github.approve_pr(pr, "random-reviewer");
  EXPECT_FALSE(hubcast.try_mirror_pr(pr).has_value());
}

TEST(Hubcast, TrustedUserMirrorsWithoutApproval) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("olga");
  EXPECT_TRUE(hubcast.try_mirror_pr(pr).has_value());
}

TEST(Hubcast, ProtectedCiConfigNeedsAdminEvenFromTrusted) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  // olga is trusted, but the PR rewrites .gitlab-ci.yml.
  auto pr = fx.fork_pr("olga", {{".gitlab-ci.yml", "stages: [pwn]\n"}});
  auto decision = hubcast.evaluate(pr);
  EXPECT_FALSE(decision.allowed);
  EXPECT_EQ(decision.denial, ci::MirrorDenial::protected_path_touched);
  fx.github.approve_pr(pr, "site-admin");
  EXPECT_TRUE(hubcast.try_mirror_pr(pr).has_value());
}

TEST(Hubcast, ClosedPrNotMirrored) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("olga");
  fx.github.pr(pr).state = PrState::closed;
  auto decision = hubcast.evaluate(pr);
  EXPECT_EQ(decision.denial, ci::MirrorDenial::pr_not_open);
}

TEST(Hubcast, StatusStreamsBackToGitHub) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("olga");
  (void)hubcast.try_mirror_pr(pr);
  hubcast.report_status(
      pr, {"gitlab-ci/llnl/bench", CheckState::success, "8/8 experiments"});
  const auto* check = fx.github.pr(pr).check("gitlab-ci/llnl/bench");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->state, CheckState::success);
}

TEST(Hubcast, SyncDefaultBranch) {
  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  fx.github.repo("llnl/benchpark")
      .commit("main", "olga", "post-merge", {{"new", "x"}});
  hubcast.sync_default_branch();
  EXPECT_EQ(fx.gitlab.repo("llnl/benchpark").file_at("main", "new"), "x");
}

// ------------------------------------------------------------------ jacamar

TEST(Jacamar, RunsAsTriggeringUser) {
  ci::SiteAccounts accounts;
  accounts.add("olga", 5001);
  accounts.add("site-admin", 1000);
  ci::Jacamar jacamar("llnl", accounts);
  auto identity = jacamar.resolve("olga", "site-admin");
  EXPECT_EQ(identity.login, "olga");
  EXPECT_EQ(identity.uid, 5001);
  EXPECT_FALSE(identity.downscoped);
}

TEST(Jacamar, FallsBackToApprover) {
  // Section 3.3.2: a job from a user without a site account runs as the
  // approving user.
  ci::SiteAccounts accounts;
  accounts.add("site-admin", 1000);
  ci::Jacamar jacamar("llnl", accounts);
  auto identity = jacamar.resolve("external-student", "site-admin");
  EXPECT_EQ(identity.login, "site-admin");
  EXPECT_TRUE(identity.downscoped);
}

TEST(Jacamar, NoAccountAnywhereThrows) {
  ci::Jacamar jacamar("llnl", {});
  EXPECT_THROW(jacamar.resolve("nobody", "also-nobody"), benchpark::CiError);
}

TEST(Jacamar, AuditLogTiesJobsToUsers) {
  ci::SiteAccounts accounts;
  accounts.add("site-admin", 1000);
  ci::Jacamar jacamar("llnl", accounts);
  auto identity = jacamar.resolve("student", "site-admin");
  jacamar.record("bench-saxpy", identity, "student");
  ASSERT_EQ(jacamar.audit_log().size(), 1u);
  const auto& entry = jacamar.audit_log()[0];
  EXPECT_EQ(entry.triggered_by, "student");
  EXPECT_EQ(entry.ran_as, "site-admin");
  EXPECT_TRUE(entry.downscoped);
  EXPECT_EQ(entry.site, "llnl");
}

// ----------------------------------------------------------------- pipeline

namespace {

ci::PipelineDef demo_pipeline() {
  return ci::PipelineDef::from_yaml(benchpark::yaml::parse(
      "stages: [build, bench, analyze]\n"
      "build-saxpy:\n"
      "  stage: build\n"
      "  tags: [cts1]\n"
      "  script: [spack install saxpy]\n"
      "bench-saxpy:\n"
      "  stage: bench\n"
      "  tags: [cts1]\n"
      "  script: [ramble on]\n"
      "analyze:\n"
      "  stage: analyze\n"
      "  tags: [cts1]\n"
      "  script: [ramble workspace analyze]\n"));
}

std::shared_ptr<ci::Jacamar> llnl_executor() {
  ci::SiteAccounts accounts;
  accounts.add("olga", 5001);
  accounts.add("site-admin", 1000);
  return std::make_shared<ci::Jacamar>("llnl", accounts);
}

}  // namespace

TEST(Pipeline, ParseGitlabCiYaml) {
  auto def = demo_pipeline();
  EXPECT_EQ(def.stages,
            (std::vector<std::string>{"build", "bench", "analyze"}));
  EXPECT_EQ(def.jobs.size(), 3u);
  EXPECT_EQ(def.jobs_in_stage("build").size(), 1u);
  EXPECT_EQ(def.jobs_in_stage("build")[0]->name, "build-saxpy");
}

TEST(Pipeline, UndeclaredStageThrows) {
  EXPECT_THROW(ci::PipelineDef::from_yaml(benchpark::yaml::parse(
                   "stages: [build]\njob:\n  stage: deploy\n")),
               benchpark::CiError);
}

TEST(Pipeline, RunsStagesInOrder) {
  ci::PipelineEngine engine;
  engine.register_runner({"llnl-cts1-01", {"cts1", "llnl"}, llnl_executor()});
  std::vector<std::string> order;
  engine.set_default_action([&](const ci::JobContext& ctx) {
    order.push_back(ctx.job_name);
    return ci::JobOutcome{true, "ok"};
  });
  auto result = engine.run(demo_pipeline(), "abc123", "olga");
  EXPECT_TRUE(result.success);
  EXPECT_EQ(order, (std::vector<std::string>{"build-saxpy", "bench-saxpy",
                                             "analyze"}));
  EXPECT_EQ(result.job("build-saxpy")->ran_as, "olga");
}

TEST(Pipeline, FailureSkipsLaterStages) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  engine.set_default_action([](const ci::JobContext& ctx) {
    return ci::JobOutcome{ctx.job_name != "build-saxpy", ""};
  });
  auto result = engine.run(demo_pipeline(), "abc", "olga");
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.job("build-saxpy")->status, ci::JobStatus::failed);
  EXPECT_EQ(result.job("bench-saxpy")->status, ci::JobStatus::skipped);
  EXPECT_EQ(result.job("analyze")->status, ci::JobStatus::skipped);
}

TEST(Pipeline, AllowFailureDoesNotStopPipeline) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"x"}, llnl_executor()});
  auto def = ci::PipelineDef::from_yaml(benchpark::yaml::parse(
      "stages: [a, b]\n"
      "flaky:\n"
      "  stage: a\n"
      "  tags: [x]\n"
      "  allow_failure: true\n"
      "solid:\n"
      "  stage: b\n"
      "  tags: [x]\n"));
  engine.set_action("flaky", [](const ci::JobContext&) {
    return ci::JobOutcome{false, "boom"};
  });
  auto result = engine.run(def, "abc", "olga");
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.job("solid")->status, ci::JobStatus::success);
}

TEST(Pipeline, NoMatchingRunnerFailsJob) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  auto def = ci::PipelineDef::from_yaml(benchpark::yaml::parse(
      "stages: [bench]\n"
      "needs-gpu:\n"
      "  stage: bench\n"
      "  tags: [ats2, cuda]\n"));
  auto result = engine.run(def, "abc", "olga");
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.job("needs-gpu")->status, ci::JobStatus::no_runner);
}

TEST(Pipeline, RunnerTagMatchingRequiresAllTags) {
  ci::RunnerDef runner{"r", {"cts1", "llnl"}, llnl_executor()};
  EXPECT_TRUE(runner.matches({"cts1"}));
  EXPECT_TRUE(runner.matches({"cts1", "llnl"}));
  EXPECT_FALSE(runner.matches({"cts1", "cuda"}));
  EXPECT_TRUE(runner.matches({}));
}

TEST(Pipeline, ExternalUserRunsDownscopedAsApprover) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  engine.set_default_action(
      [](const ci::JobContext&) { return ci::JobOutcome{true, ""}; });
  auto result =
      engine.run(demo_pipeline(), "abc", "external-student", "site-admin");
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.job("bench-saxpy")->ran_as, "site-admin");
}

TEST(Pipeline, UserWithNoIdentityFailsJob) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  auto result = engine.run(demo_pipeline(), "abc", "nobody", "also-nobody");
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.job("build-saxpy")->status, ci::JobStatus::failed);
}

TEST(Pipeline, JobExceptionBecomesFailure) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  engine.set_action("build-saxpy", [](const ci::JobContext&) -> ci::JobOutcome {
    throw std::runtime_error("container exploded");
  });
  auto result = engine.run(demo_pipeline(), "abc", "olga");
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.job("build-saxpy")->log.find("container exploded"),
            std::string::npos);
}

TEST(Pipeline, TransientJobFailureIsRetriedAndDegradesPipeline) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse("ci.job:nth=1,key=build-saxpy");

  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  engine.set_default_action(
      [](const ci::JobContext&) { return ci::JobOutcome{true, "ok"}; });
  auto result = engine.run(demo_pipeline(), "abc", "olga");

  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.status, ci::PipelineStatus::degraded);
  EXPECT_EQ(result.job("build-saxpy")->status, ci::JobStatus::success);
  EXPECT_EQ(result.job("build-saxpy")->attempts, 2);
  EXPECT_NE(result.job("build-saxpy")->log.find("[retry] attempt 1"),
            std::string::npos);
  // The untouched jobs ran clean.
  EXPECT_EQ(result.job("bench-saxpy")->attempts, 1);
}

TEST(Pipeline, ExhaustedTransientRetriesFailThePipeline) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse(
      "ci.job:nth=1,count=99,key=build-saxpy");

  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  engine.set_default_action(
      [](const ci::JobContext&) { return ci::JobOutcome{true, "ok"}; });
  auto result = engine.run(demo_pipeline(), "abc", "olga");

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.status, ci::PipelineStatus::failed);
  EXPECT_EQ(result.job("build-saxpy")->status, ci::JobStatus::failed);
  EXPECT_EQ(result.job("build-saxpy")->attempts,
            benchpark::support::kRetryAttempts);
  EXPECT_NE(result.job("build-saxpy")->log.find("job failed after"),
            std::string::npos);
  EXPECT_EQ(result.job("bench-saxpy")->status, ci::JobStatus::skipped);
}

TEST(Pipeline, TransientActionExceptionIsRetriedToo) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"cts1"}, llnl_executor()});
  int calls = 0;
  engine.set_default_action(
      [](const ci::JobContext&) { return ci::JobOutcome{true, "ok"}; });
  engine.set_action("build-saxpy",
                    [&calls](const ci::JobContext&) -> ci::JobOutcome {
                      if (++calls == 1) {
                        throw benchpark::TransientError("runner preempted");
                      }
                      return ci::JobOutcome{true, "ok"};
                    });
  auto result = engine.run(demo_pipeline(), "abc", "olga");
  EXPECT_EQ(result.status, ci::PipelineStatus::degraded);
  EXPECT_EQ(result.job("build-saxpy")->attempts, 2);
  EXPECT_EQ(calls, 2);
}

TEST(Pipeline, AllowFailureFailureDegradesPipeline) {
  ci::PipelineEngine engine;
  engine.register_runner({"r1", {"x"}, llnl_executor()});
  auto def = ci::PipelineDef::from_yaml(benchpark::yaml::parse(
      "stages: [a]\n"
      "flaky:\n"
      "  stage: a\n"
      "  tags: [x]\n"
      "  allow_failure: true\n"));
  engine.set_action("flaky", [](const ci::JobContext&) {
    return ci::JobOutcome{false, "boom"};
  });
  auto result = engine.run(def, "abc", "olga");
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.status, ci::PipelineStatus::degraded);
}

TEST(Hubcast, TransientMirrorFaultIsRetried) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse("ci.mirror:nth=1,count=2");

  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("olga");
  auto branch = hubcast.try_mirror_pr(pr);  // attempts 1-2 fail, 3 lands
  ASSERT_TRUE(branch.has_value());
  EXPECT_TRUE(fx.gitlab.repo("llnl/benchpark").has_branch(*branch));
  EXPECT_EQ(fx.github.pr(pr).check("hubcast/mirror")->state,
            CheckState::success);
}

TEST(Hubcast, ExhaustedMirrorRetriesFailTheCheck) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse("ci.mirror:nth=1,count=99");

  HubcastFixture fx;
  auto hubcast = fx.make_hubcast();
  auto pr = fx.fork_pr("olga");
  EXPECT_FALSE(hubcast.try_mirror_pr(pr).has_value());
  const auto* check = fx.github.pr(pr).check("hubcast/mirror");
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->state, CheckState::failure);
  EXPECT_NE(check->description.find("mirror push failed after 3 attempts"),
            std::string::npos);
  EXPECT_FALSE(fx.gitlab.repo("llnl/benchpark").has_branch("pr-1"));
}

TEST(Pipeline, ConcurrentPipelinesShareEngineAndExecutor) {
  // The service daemon's dispatch workers run pipelines on one shared
  // engine; runs snapshot the runner/action tables and the Jacamar
  // executor serializes its audit log.
  ci::PipelineEngine engine;
  auto executor = llnl_executor();
  engine.register_runner({"llnl-cts1-01", {"cts1", "llnl"}, executor});
  std::atomic<int> actions{0};
  engine.set_default_action([&actions](const ci::JobContext&) {
    actions.fetch_add(1, std::memory_order_relaxed);
    return ci::JobOutcome{true, "ok"};
  });

  constexpr int kPipelines = 8;
  std::vector<ci::PipelineResult> results(kPipelines);
  {
    std::vector<std::thread> threads;
    threads.reserve(kPipelines);
    for (int i = 0; i < kPipelines; ++i) {
      threads.emplace_back([&engine, &results, i] {
        results[static_cast<std::size_t>(i)] =
            engine.run(demo_pipeline(), "sha" + std::to_string(i), "olga");
      });
    }
    for (auto& t : threads) t.join();
  }

  for (const auto& result : results) {
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.jobs.size(), 3u);
    for (const auto& job : result.jobs) {
      EXPECT_EQ(job.status, ci::JobStatus::success) << job.name;
      EXPECT_EQ(job.ran_as, "olga");
    }
  }
  EXPECT_EQ(actions.load(), kPipelines * 3);
  // Every job execution landed exactly one audit entry.
  EXPECT_EQ(executor->audit_log().size(),
            static_cast<std::size_t>(kPipelines * 3));
}
