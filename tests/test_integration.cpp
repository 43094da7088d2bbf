// Cross-module integration tests: the paper's full loops, asserted.
//   * Figure 6 loop: PR -> Hubcast -> pipeline -> real workflows ->
//     metrics DB -> statuses back on the PR
//   * continuous tracking: a nightly series catches an injected fabric
//     regression (Section 1's "tracking system performance over time")
//   * functional reproducibility across sites via lockfiles
//   * campaign -> dashboard composition
#include <gtest/gtest.h>

#include "src/analysis/analysis.hpp"
#include "src/ci/git.hpp"
#include "src/ci/hubcast.hpp"
#include "src/ci/pipeline.hpp"
#include "src/core/campaign.hpp"
#include "src/core/driver.hpp"
#include "src/core/usage.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/env/environment.hpp"
#include "src/install/installer.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/trace_diff.hpp"
#include "src/pkg/repo.hpp"
#include "src/runtime/simexec.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/string_util.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/parser.hpp"

using namespace benchpark;
namespace cz = benchpark::concretizer;

TEST(Integration, Figure6LoopEndToEnd) {
  // Hosting + canonical repo on both sides.
  ci::GitHost github("github");
  ci::GitHost gitlab("gitlab");
  github.create_repo("llnl", "benchpark")
      .commit("main", "olga", "init", {{"experiments/saxpy", "v1"}});
  gitlab.create_repo("llnl", "benchpark")
      .commit("main", "hubcast", "init", {{"m", "1"}});

  ci::SecurityPolicy policy;
  policy.admins = {"site-admin"};
  ci::Hubcast hubcast(&github, &gitlab, "llnl/benchpark", policy);

  // A fork PR from an external contributor.
  github.fork("llnl/benchpark", "student");
  github.repo("student/benchpark")
      .commit("tune", "student", "bigger problems",
              {{"experiments/saxpy", "v2"}});
  auto pr = github.open_pr("tune", "student", "student/benchpark", "tune",
                           "llnl/benchpark");

  // Blocked until a site admin approves.
  ASSERT_FALSE(hubcast.try_mirror_pr(pr).has_value());
  github.approve_pr(pr, "site-admin");
  auto branch = hubcast.try_mirror_pr(pr);
  ASSERT_TRUE(branch.has_value());

  // Pipeline with a runner that executes the real Benchpark workflow.
  ci::SiteAccounts accounts;
  accounts.add("site-admin", 1000);
  ci::PipelineEngine engine;
  engine.register_runner(
      {"llnl-cts1-01", {"cts1"},
       std::make_shared<ci::Jacamar>("llnl", accounts)});

  core::Driver driver;
  support::TempDir tmp("integration-ci");
  analysis::MetricsDb metrics;
  engine.set_action("bench", [&](const ci::JobContext& ctx) {
    auto report = driver.run_workflow({"saxpy", "openmp"}, "cts1",
                                      tmp.path() / "ws");
    for (const auto& result : report.results) {
      for (const auto& fom : result.foms) {
        if (!fom.numeric) continue;
        analysis::ResultRow row;
        row.benchmark = "saxpy";
        row.system = "cts1";
        row.experiment = result.name;
        row.fom_name = fom.name;
        row.value = fom.value;
        row.success = result.success;
        metrics.insert(row);
      }
    }
    return ci::JobOutcome{report.num_success() == report.results.size(),
                          "ran as " + ctx.identity.login};
  });
  auto pipeline = ci::PipelineDef::from_yaml(yaml::parse(
      "stages: [bench]\nbench:\n  stage: bench\n  tags: [cts1]\n"));
  auto result = engine.run(pipeline, "sha", "student", "site-admin");

  ASSERT_TRUE(result.success);
  // Jacamar downscoped the external author to the approver.
  EXPECT_EQ(result.job("bench")->ran_as, "site-admin");
  // Metrics landed (8 experiments x >= 2 numeric FOMs).
  EXPECT_GE(metrics.size(), 16u);

  // Status streamed back to the GitHub PR and the PR can merge.
  hubcast.report_status(pr, {"gitlab-ci/llnl/bench", ci::CheckState::success,
                             result.job("bench")->log});
  EXPECT_EQ(github.pr(pr).check("gitlab-ci/llnl/bench")->state,
            ci::CheckState::success);
  github.merge_pr(pr);
  EXPECT_EQ(github.repo("llnl/benchpark").file_at("main",
                                                  "experiments/saxpy"),
            "v2");
}

TEST(Integration, NightlySeriesCatchesFabricRegression) {
  analysis::MetricsDb db;
  auto cts1 = system::make_cts1();
  bool alerted_on_injection_day = false;

  for (int day = 1; day <= 18; ++day) {
    if (day == 12) cts1.interconnect.latency_us *= 2.0;  // the fault
    runtime::RunParams params;
    params.app = "osu-bcast";
    params.n = 1 << 16;
    params.n_nodes = 8;
    params.n_ranks = 256;
    params.repetition = static_cast<std::uint64_t>(day);
    auto outcome = runtime::run_simulated(cts1, params);

    analysis::ResultRow row;
    row.benchmark = "osu-bcast";
    row.system = "cts1";
    row.experiment = "nightly";
    row.fom_name = "elapsed";
    row.value = outcome.elapsed_seconds;
    row.success = outcome.success;
    db.insert(row);

    analysis::AnalysisRequest scan;
    scan.metrics = &db;
    scan.foms = {"elapsed"};
    scan.detector.warmup = 4;
    scan.detector.threshold = 3.0;
    auto analyzed = analysis::run_analysis(scan);
    bool regressed = false;
    for (const auto& series : analyzed.series) {
      if (series.has_latest &&
          series.latest.verdict == analysis::Verdict::regression) {
        regressed = true;
      }
    }
    if (day == 12) alerted_on_injection_day = regressed;
    if (day < 12) {
      EXPECT_FALSE(regressed) << "false positive on day " << day;
    }
  }
  EXPECT_TRUE(alerted_on_injection_day);
}

TEST(Integration, LockfileReproducesAcrossSites) {
  // Site A concretizes and locks; site B installs from the lockfile with
  // no concretizer at all — the "functional reproducibility" the paper
  // defines. Both sites agree on every DAG hash.
  const auto& cts1 = system::SystemRegistry::instance().get("cts1");
  concretizer::Concretizer cz(pkg::default_repo_stack(), cts1.config);
  env::Environment site_a;
  site_a.add("amg2023+caliper");
  site_a.add("saxpy+openmp");
  site_a.concretize(cz);
  auto lock_text = yaml::emit(site_a.lockfile());

  auto site_b = env::Environment::from_lockfile(yaml::parse(lock_text));
  ASSERT_EQ(site_b.concrete_specs().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(site_b.concrete_specs()[i].dag_hash(),
              site_a.concrete_specs()[i].dag_hash());
  }

  install::InstallTree site_b_tree("/site-b/install");
  install::Installer installer(pkg::default_repo_stack(), &site_b_tree,
                               nullptr);
  auto report = site_b.install_all(installer);
  EXPECT_GT(report.from_source, 0u);
  EXPECT_TRUE(site_b_tree.installed(site_b.concrete_specs()[0]));
}

TEST(Integration, CampaignFeedsDashboard) {
  core::Driver driver;
  support::TempDir tmp("integration-dash");
  core::Campaign campaign(&driver, {"saxpy", "openmp"}, tmp.path());
  campaign.add_system("cts1");
  campaign.add_system("ats2");
  campaign.run();

  analysis::AnalysisRequest req;
  req.metrics = &campaign.metrics();
  req.foms = {"gflops"};
  req.detector.higher_is_worse = false;  // gflops is a rate
  req.render_text = true;
  auto analyzed = analysis::run_analysis(req);
  EXPECT_NE(analyzed.text.find("saxpy"), std::string::npos);
  EXPECT_NE(analyzed.text.find("cts1"), std::string::npos);
  EXPECT_NE(analyzed.text.find("ats2"), std::string::npos);
  // One clean pass: no regressions flaggable from a single campaign.
  EXPECT_EQ(analyzed.regressed_series(), 0u);
}

TEST(Integration, UsageMetricsAccumulateThroughDriver) {
  auto& usage = core::UsageMetrics::instance();
  usage.reset();
  core::Driver driver;
  support::TempDir tmp("integration-usage");
  (void)driver.run_workflow({"saxpy", "openmp"}, "cts1", tmp.path() / "a");
  (void)driver.run_workflow({"stream", "openmp"}, "cts1", tmp.path() / "b");
  (void)driver.run_workflow({"saxpy", "openmp"}, "ats2", tmp.path() / "c");

  auto ranking = usage.ranking();
  ASSERT_GE(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].benchmark, "saxpy");  // accessed most heavily
  EXPECT_EQ(usage.get("saxpy").setups, 2u);
  EXPECT_EQ(usage.get("saxpy").runs, 16u);  // 2 workflows x 8 experiments
  EXPECT_EQ(usage.get("stream").runs, 3u);
  usage.reset();
}

TEST(Integration, WorkflowOutputsSurviveOnDisk) {
  // The workspace is a self-contained directory (Section 3.2.1): a fresh
  // process could re-analyze from the files alone.
  core::Driver driver;
  support::TempDir tmp("integration-disk");
  ramble::Workspace ws =
      driver.setup({"saxpy", "openmp"}, "cts1", tmp.path() / "ws");
  ws.setup();
  ws.run_all();

  // Every experiment directory holds the script and the output; configs
  // hold the four per-system files plus ramble.yaml.
  for (const auto& exp : ws.prepared()) {
    EXPECT_TRUE(std::filesystem::exists(exp.run_dir / "execute_experiment"));
    EXPECT_TRUE(
        std::filesystem::exists(exp.run_dir / (exp.name + ".out")));
  }
  auto tree = support::render_tree(ws.root());
  for (const char* artifact :
       {"ramble.yaml", "variables.yaml", "packages.yaml", "compilers.yaml",
        "execute_experiment.tpl", "saxpy.lock.yaml"}) {
    EXPECT_NE(tree.find(artifact), std::string::npos) << artifact;
  }
}

// ------------------------------------------------- traced span trees

namespace {

/// Enable the global trace collector for one test, restoring the
/// disabled empty state afterwards.
class ScopedTrace {
public:
  ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.reset();
    c.set_enabled(true);
  }
  ~ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.set_enabled(false);
    c.reset();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

/// Structural invariants every collected span tree must satisfy:
/// resolvable parents, temporal containment on the parent's thread, and
/// root wall-clock >= the summed self-times of its same-thread subtree
/// (modeled spans excluded — they represent simulated time).
void assert_span_tree_invariants(const obs::Trace& trace,
                                 const obs::TraceEvent& root) {
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : trace.events) {
    if (e.phase == obs::TraceEvent::Phase::span && e.id != 0) {
      by_id[e.id] = &e;
    }
  }
  // Every parent resolves (or is a thread root).
  for (const auto& [id, e] : by_id) {
    if (e->parent != 0) {
      EXPECT_TRUE(by_id.count(e->parent))
          << e->name << " has dangling parent " << e->parent;
    }
  }
  // Membership in root's subtree.
  auto in_subtree = [&](const obs::TraceEvent* e) {
    while (e != nullptr) {
      if (e->id == root.id) return true;
      auto it = by_id.find(e->parent);
      e = it == by_id.end() ? nullptr : it->second;
    }
    return false;
  };
  constexpr double kEpsUs = 500.0;  // clock-read ordering slack
  double same_tid_self_us = 0.0;
  for (const auto& [id, e] : by_id) {
    if (e->modeled || !in_subtree(e)) continue;
    // Containment: a child on the parent's own thread runs strictly
    // inside it (cross-thread children only overlap approximately).
    auto parent_it = by_id.find(e->parent);
    if (parent_it != by_id.end() && parent_it->second->tid == e->tid &&
        !parent_it->second->modeled) {
      EXPECT_GE(e->ts_us, parent_it->second->ts_us - kEpsUs) << e->name;
      EXPECT_LE(e->end_us(), parent_it->second->end_us() + kEpsUs)
          << e->name;
    }
    if (e->tid != root.tid) continue;
    // Self time on the root's thread: duration minus same-tid children.
    double child_us = 0.0;
    for (const auto& [cid, c] : by_id) {
      if (c->parent == e->id && c->tid == e->tid && !c->modeled) {
        child_us += c->dur_us;
      }
    }
    same_tid_self_us += std::max(0.0, e->dur_us - child_us) -
                        (e->id == root.id ? 0.0 : 0.0);
  }
  EXPECT_GE(root.dur_us + kEpsUs, same_tid_self_us)
      << "root '" << root.name << "' shorter than its own thread's work";
}

}  // namespace

TEST(Integration, TracedWorkflowMatrixSpanTreeInvariants) {
  struct Case {
    const char* benchmark;
    const char* variant;
    const char* system;
  };
  for (const auto& c : {Case{"saxpy", "openmp", "cts1"},
                        Case{"amg2023", "openmp", "cts1"},
                        Case{"stream", "openmp", "ats4"},
                        Case{"osu-bcast", "mpi", "ats2"}}) {
    SCOPED_TRACE(std::string(c.benchmark) + "/" + c.variant + " on " +
                 c.system);
    ScopedTrace guard;
    core::Driver driver;
    support::TempDir tmp("traced-matrix");
    auto report =
        driver.run_workflow({c.benchmark, c.variant}, c.system,
                            tmp.path() / "ws");
    ASSERT_GT(report.results.size(), 0u);

    auto trace = obs::TraceCollector::global().snapshot();
    const auto* root = trace.find_span("workflow");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent, 0u);
    EXPECT_EQ(trace.count_named("workflow"), 1u);
    // The driver's stages all nest under the workflow root.
    for (const char* stage :
         {"workflow.setup", "workflow.workspace_setup", "workflow.run",
          "workflow.analyze"}) {
      const auto* span = trace.find_span(stage);
      ASSERT_NE(span, nullptr) << stage;
      EXPECT_EQ(span->parent, root->id) << stage;
    }
    // Install activity nests somewhere under the workflow.
    EXPECT_GE(trace.count_named("install"), 1u);
    assert_span_tree_invariants(trace, *root);
    // Adiak-style run metadata rode along.
    EXPECT_EQ(trace.metadata.at("benchmark"), c.benchmark);
    EXPECT_EQ(trace.metadata.at("system"), c.system);
  }
}

TEST(Integration, ChaosInstallTraceExportedDiffedAndReloaded) {
  // The acceptance loop: a chaos install (BENCHPARK_FAULT_PLAN grammar)
  // run under tracing exports Chrome-trace JSON whose retry spans equal
  // the installer report's attempt counts, and a TraceDiff against the
  // clean run isolates the injected latency as modeled time.
  support::ScopedFaultPlan fault_guard;
  auto run_install = [](const char* plan_spec, double* retry_wait,
                        std::size_t* attempts) {
    ScopedTrace trace_guard;
    support::FaultPlan::global() = support::FaultPlan::parse(plan_spec);
    env::Environment e;
    e.add("amg2023+caliper");
    cz::Config config;
    config.add_compiler({"gcc", spec::Version("12.1.1"), "", ""});
    config.set_default_target("broadwell");
    config.package("mpi").preferred_providers = {"mvapich2"};
    cz::Concretizer concretizer(pkg::default_repo_stack(), config);
    e.concretize(concretizer);
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
    auto report = e.install_all(installer);
    *retry_wait = report.retry_wait_seconds;
    *attempts = report.total_attempts;
    return obs::TraceCollector::global().snapshot();
  };

  double clean_wait = 0, chaos_wait = 0;
  std::size_t clean_attempts = 0, chaos_attempts = 0;
  auto clean = run_install("seed=42", &clean_wait, &clean_attempts);
  auto chaos = run_install(
      "seed=42;install.build_step:nth=1,latency=0.75,kind=transient",
      &chaos_wait, &chaos_attempts);

  EXPECT_EQ(clean.count_named("attempt"), clean_attempts);
  EXPECT_EQ(chaos.count_named("attempt"), chaos_attempts);
  ASSERT_GT(chaos_attempts, clean_attempts);
  EXPECT_GT(chaos_wait, clean_wait);

  // Export chaos to disk as Chrome trace JSON and reload it — the file a
  // developer would drop into chrome://tracing or ui.perfetto.dev.
  support::TempDir tmp("chaos-trace");
  auto json_path = tmp.path() / "chaos.trace.json";
  support::write_file(json_path, chaos.to_chrome_json());
  auto reloaded = obs::Trace::from_chrome_json(
      std::string_view{support::read_file(json_path)});
  EXPECT_EQ(reloaded.count_named("attempt"), chaos_attempts);
  EXPECT_EQ(reloaded.events.size(), chaos.events.size());

  // The diff pins the damage on the attempt spans as modeled time.
  obs::TraceDiff diff(clean, reloaded);
  double modeled_delta = 0.0;
  for (const auto& row : diff.rows()) {
    if (row.path.size() >= 7 &&
        row.path.compare(row.path.size() - 7, 7, "attempt") == 0) {
      modeled_delta += row.modeled_delta_us();
    }
  }
  // At least the injected per-build latency (0.75 s each) shows up.
  EXPECT_GT(modeled_delta / 1e6, 0.5);
  auto regressions = diff.regressions(1.0);
  ASSERT_FALSE(regressions.empty());
}
