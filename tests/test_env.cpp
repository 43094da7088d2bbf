// Environment + installer + binary cache tests: the Figure 2 workflow
// (env create / add / concretize / install), manifest round-trips
// (Figure 3), lockfile reproducibility, and the Sec. 7.2 warm-cache claim.
#include <gtest/gtest.h>

#include <map>

#include "src/buildcache/binary_cache.hpp"
#include "src/env/environment.hpp"
#include "src/install/installer.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/hash.hpp"
#include "src/yaml/emitter.hpp"
#include "src/system/system.hpp"
#include "src/yaml/parser.hpp"

namespace cz = benchpark::concretizer;
namespace env = benchpark::env;
namespace install = benchpark::install;
namespace pkg = benchpark::pkg;
namespace spec = benchpark::spec;
using benchpark::buildcache::BinaryCache;
using spec::Version;

namespace {

cz::Concretizer simple_concretizer() {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  config.package("mpi").preferred_providers = {"mvapich2"};
  return cz::Concretizer(pkg::default_repo_stack(), config);
}

/// One root through the unified API, legacy semantics (fresh context,
/// serial, no memo cache).
spec::Spec concretize1(const cz::Concretizer& c, const std::string& text) {
  cz::ConcretizeRequest request;
  request.roots = {spec::Spec::parse(text)};
  request.unify = false;
  request.use_cache = false;
  request.threads = 1;
  return std::move(c.concretize_all(request).specs.front());
}

}  // namespace

TEST(Environment, Figure3ManifestRoundTrip) {
  auto manifest = benchpark::yaml::parse(
      "spack:\n"
      "  specs: [amg2023+caliper]\n"
      "  concretizer:\n"
      "    unify: true\n"
      "  view: true\n");
  auto e = env::Environment::from_manifest(manifest);
  ASSERT_EQ(e.user_specs().size(), 1u);
  EXPECT_EQ(e.user_specs()[0].name(), "amg2023");
  EXPECT_TRUE(e.unify());
  EXPECT_TRUE(e.view());

  auto emitted = e.manifest_yaml();
  auto reloaded = env::Environment::from_manifest(emitted);
  EXPECT_EQ(reloaded.user_specs()[0].str(), e.user_specs()[0].str());
}

TEST(Environment, AddMergesConstraintsForSamePackage) {
  env::Environment e;
  e.add("hypre@2.24:");
  e.add("hypre+openmp");
  ASSERT_EQ(e.user_specs().size(), 1u);
  EXPECT_TRUE(e.user_specs()[0].variant_enabled("openmp"));
}

TEST(Environment, AddAnonymousThrows) {
  env::Environment e;
  EXPECT_THROW(e.add("+cuda"), benchpark::Error);
}

TEST(Environment, RemoveInvalidatesConcretization) {
  env::Environment e;
  e.add("zlib");
  e.add("cmake");
  auto c = simple_concretizer();
  e.concretize(c);
  EXPECT_TRUE(e.concretized());
  EXPECT_TRUE(e.remove("zlib"));
  EXPECT_FALSE(e.concretized());
  EXPECT_FALSE(e.remove("zlib"));
}

TEST(Environment, Figure2Workflow) {
  // spack env create; spack add amg2023+caliper; spack concretize;
  // spack install.
  env::Environment e;
  e.add("amg2023+caliper");
  auto c = simple_concretizer();
  e.concretize(c);
  ASSERT_TRUE(e.concretized());
  const auto* amg = e.concrete_for("amg2023");
  ASSERT_NE(amg, nullptr);
  EXPECT_TRUE(amg->concrete());

  install::InstallTree tree;
  BinaryCache cache;
  install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
  auto report = e.install_all(installer);
  EXPECT_GT(report.from_source, 3u);
  EXPECT_GT(report.total_simulated_seconds, 0.0);
  EXPECT_TRUE(tree.installed(*amg));
}

TEST(Environment, ConcreteForSearchesClosure) {
  env::Environment e;
  e.add("amg2023");
  auto c = simple_concretizer();
  e.concretize(c);
  EXPECT_NE(e.concrete_for("hypre"), nullptr);      // transitive dep
  EXPECT_EQ(e.concrete_for("not-there"), nullptr);
}

TEST(Environment, UnifySharesDependencies) {
  env::Environment e;
  e.add("amg2023");
  e.add("saxpy");
  auto c = simple_concretizer();
  e.concretize(c);
  const auto* amg = e.concrete_for("amg2023");
  const auto* saxpy = e.concrete_for("saxpy");
  ASSERT_NE(amg->dependency("mvapich2"), nullptr);
  ASSERT_NE(saxpy->dependency("mvapich2"), nullptr);
  EXPECT_EQ(amg->dependency("mvapich2")->dag_hash(),
            saxpy->dependency("mvapich2")->dag_hash());
}

TEST(Environment, LockfileRoundTripReproducesDag) {
  env::Environment e;
  e.add("amg2023+caliper");
  auto c = simple_concretizer();
  e.concretize(c);
  auto lock = e.lockfile();

  // The lockfile consumer needs no concretizer: full reproducibility.
  auto restored = env::Environment::from_lockfile(lock);
  ASSERT_EQ(restored.concrete_specs().size(), 1u);
  EXPECT_EQ(restored.concrete_specs()[0].dag_hash(),
            e.concrete_specs()[0].dag_hash());
}

TEST(Environment, LockfileSurvivesTextSerialization) {
  env::Environment e;
  e.add("saxpy");
  auto c = simple_concretizer();
  e.concretize(c);
  auto text = benchpark::yaml::emit(e.lockfile());
  auto reparsed = benchpark::yaml::parse(text);
  auto restored = env::Environment::from_lockfile(reparsed);
  EXPECT_EQ(restored.concrete_specs()[0].dag_hash(),
            e.concrete_specs()[0].dag_hash());
}

TEST(Environment, LockfileRequiresConcretization) {
  env::Environment e;
  e.add("zlib");
  EXPECT_THROW(e.lockfile(), benchpark::Error);
}

TEST(Installer, BuildOrderIsDependenciesFirst) {
  env::Environment e;
  e.add("amg2023+caliper");
  auto c = simple_concretizer();
  e.concretize(c);
  const auto& root = e.concrete_specs()[0];
  auto order = install::Installer::build_order(root);
  ASSERT_GE(order.size(), 4u);
  EXPECT_EQ(order.back()->name(), "amg2023");
  // hypre must appear before amg2023, adiak before caliper.
  auto idx = [&](std::string_view name) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i]->name() == name) return static_cast<long>(i);
    }
    return -1L;
  };
  EXPECT_LT(idx("hypre"), idx("amg2023"));
  EXPECT_LT(idx("adiak"), idx("caliper"));
}

TEST(Installer, SecondInstallIsNoOp) {
  env::Environment e;
  e.add("saxpy");
  auto c = simple_concretizer();
  e.concretize(c);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  auto first = e.install_all(installer);
  EXPECT_GT(first.from_source, 0u);
  auto second = e.install_all(installer);
  EXPECT_EQ(second.from_source, 0u);
  EXPECT_GT(second.already_installed, 0u);
  EXPECT_DOUBLE_EQ(second.total_simulated_seconds, 0.0);
}

TEST(Installer, AbstractSpecRejected) {
  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  EXPECT_THROW(installer.install(spec::Spec::parse("zlib")),
               benchpark::Error);
}

TEST(Installer, ExternalsCostNothing) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("broadwell");
  auto packages = benchpark::yaml::parse(
      "packages:\n"
      "  mpi:\n"
      "    externals:\n"
      "    - spec: mvapich2@2.3.7\n"
      "      prefix: /opt/mvapich2\n"
      "  mvapich2:\n"
      "    externals:\n"
      "    - spec: mvapich2@2.3.7\n"
      "      prefix: /opt/mvapich2\n");
  config.load_packages_yaml(packages);
  cz::Concretizer c(pkg::default_repo_stack(), config);
  auto s = concretize1(c, "saxpy");

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  auto report = installer.install(s);
  EXPECT_GE(report.externals, 1u);
  for (const auto& r : report.installed) {
    if (r.source == install::InstallSource::external) {
      EXPECT_DOUBLE_EQ(r.simulated_seconds, 0.0);
      EXPECT_EQ(r.prefix, "/opt/mvapich2");
    }
  }
}

TEST(Installer, PrefixLayoutIncludesHashAndTarget) {
  auto c = simple_concretizer();
  auto s = concretize1(c, "zlib");
  install::InstallTree tree("/tmp/tree");
  auto prefix = tree.prefix_for(s);
  EXPECT_NE(prefix.find("/tmp/tree/broadwell/zlib-1.3-"), std::string::npos);
  EXPECT_NE(prefix.find(s.dag_hash()), std::string::npos);
}

TEST(Installer, BuildArgsRecorded) {
  auto c = simple_concretizer();
  auto s = concretize1(c, "saxpy+openmp");
  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  auto report = installer.install(s);
  const auto& saxpy_record = report.installed.back();
  EXPECT_EQ(saxpy_record.spec.name(), "saxpy");
  EXPECT_EQ(saxpy_record.build_args,
            (std::vector<std::string>{"-DUSE_OPENMP=ON"}));
}

TEST(Installer, MoreJobsBuildFaster) {
  auto c = simple_concretizer();
  auto s = concretize1(c, "hypre");
  install::InstallOptions serial;
  serial.build_jobs = 1;
  install::InstallOptions parallel;
  parallel.build_jobs = 16;

  install::InstallTree tree1, tree2;
  install::Installer i1(pkg::default_repo_stack(), &tree1, nullptr);
  install::Installer i2(pkg::default_repo_stack(), &tree2, nullptr);
  auto slow = i1.install(s, serial);
  auto fast = i2.install(s, parallel);
  EXPECT_GT(slow.total_simulated_seconds, fast.total_simulated_seconds);
}

TEST(BinaryCache, WarmCacheIsTenTimesFaster) {
  // Section 7.2: the rolling binary cache "focuses the time to build
  // applications on only the dependencies with special requirements".
  env::Environment e;
  e.add("amg2023+caliper");
  auto c = simple_concretizer();
  e.concretize(c);

  BinaryCache cache;
  install::InstallTree cold_tree;
  install::Installer cold_installer(pkg::default_repo_stack(), &cold_tree,
                                    &cache);
  auto cold = e.install_all(cold_installer);
  EXPECT_GT(cold.from_source, 0u);

  // A second site with an empty install tree but a warm mirror.
  install::InstallTree warm_tree;
  install::Installer warm_installer(pkg::default_repo_stack(), &warm_tree,
                                    &cache);
  auto warm = e.install_all(warm_installer);
  EXPECT_EQ(warm.from_source, 0u);
  EXPECT_GT(warm.from_cache, 0u);
  EXPECT_GT(cold.total_simulated_seconds,
            10.0 * warm.total_simulated_seconds);
}

TEST(BinaryCache, StatsAndFetchCost) {
  BinaryCache cache(0.1, 1.0e6);
  auto c = simple_concretizer();
  auto s = concretize1(c, "zlib");
  EXPECT_FALSE(cache.fetch(s).has_value());
  cache.push(s, 500000);
  auto entry = cache.fetch(s);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.fetch_cost_seconds(entry->size_bytes), 0.1 + 0.5);
}

TEST(BinaryCache, ContentAddressing) {
  BinaryCache cache;
  auto c = simple_concretizer();
  auto a = concretize1(c, "zlib");
  auto b = concretize1(c, "zlib@:1.2");  // different version, different hash
  cache.push(a, 1000);
  EXPECT_TRUE(cache.contains(a.dag_hash()));
  EXPECT_FALSE(cache.contains(b.dag_hash()));
}

TEST(Installer, WavefrontInstallMatchesSerialWalk) {
  // The pooled engine must be a pure scheduling change: same records,
  // same counters, same modeled times as the one-at-a-time walk.
  auto c = simple_concretizer();
  auto spec = concretize1(c, "amg2023+caliper");

  install::InstallOptions serial;
  serial.engine_threads = 1;
  install::InstallOptions pooled;
  pooled.engine_threads = 4;

  install::InstallTree serial_tree, pooled_tree;
  BinaryCache serial_cache, pooled_cache;
  install::Installer serial_installer(pkg::default_repo_stack(), &serial_tree,
                                      &serial_cache);
  install::Installer pooled_installer(pkg::default_repo_stack(), &pooled_tree,
                                      &pooled_cache);
  auto serial_report = serial_installer.install(spec, serial);
  auto pooled_report = pooled_installer.install(spec, pooled);

  ASSERT_EQ(pooled_report.installed.size(), serial_report.installed.size());
  for (std::size_t i = 0; i < serial_report.installed.size(); ++i) {
    EXPECT_EQ(pooled_report.installed[i].spec.dag_hash(),
              serial_report.installed[i].spec.dag_hash());
    EXPECT_EQ(pooled_report.installed[i].source,
              serial_report.installed[i].source);
  }
  EXPECT_EQ(pooled_report.from_source, serial_report.from_source);
  EXPECT_DOUBLE_EQ(pooled_report.total_simulated_seconds,
                   serial_report.total_simulated_seconds);
  EXPECT_DOUBLE_EQ(pooled_report.critical_path_seconds,
                   serial_report.critical_path_seconds);
  EXPECT_EQ(pooled_report.build_log, serial_report.build_log);
  EXPECT_EQ(pooled_tree.size(), serial_tree.size());
}

TEST(Installer, CriticalPathBeatsSerialTotal) {
  // The amg2023 closure has real DAG width (hypre's math stack and the
  // caliper tool chain are independent), so wavefront scheduling models
  // >= 1.5x over the serial walk -- the paper's parallel-install story.
  // Use the cts1 site config (as the buildcache bench does): its MKL and
  // MVAPICH2 externals match how a real site focuses build time "on only
  // the dependencies with special requirements".
  const auto& cts1 = benchpark::system::SystemRegistry::instance().get("cts1");
  cz::Concretizer c(pkg::default_repo_stack(), cts1.config);
  auto spec = concretize1(c, "amg2023+caliper");
  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  auto report = installer.install(spec);
  ASSERT_GT(report.critical_path_seconds, 0.0);
  EXPECT_LT(report.critical_path_seconds, report.total_simulated_seconds);
  EXPECT_GE(report.total_simulated_seconds / report.critical_path_seconds,
            1.5);
}

TEST(Environment, ConcurrentRootsBuildSharedDepsOnce) {
  env::Environment e;
  e.add("amg2023+caliper");
  e.add("saxpy+openmp");
  auto c = simple_concretizer();
  e.concretize(c);

  auto install_all = [&](int threads) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    BinaryCache cache;
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
    install::InstallOptions options;
    options.engine_threads = threads;
    auto report = e.install_all(installer, options);

    // Every closure node accounted for, and no DAG hash built twice: the
    // second root finds the shared deps the first root built in the tree
    // and records them as already installed (never duplicate source
    // builds).
    EXPECT_EQ(report.from_source + report.from_cache + report.externals +
                  report.already_installed,
              report.installed.size());
    std::map<std::string, int> source_builds;
    for (const auto& record : report.installed) {
      if (record.source == install::InstallSource::source_build) {
        ++source_builds[record.spec.dag_hash()];
      }
    }
    for (const auto& [hash, count] : source_builds) {
      EXPECT_EQ(count, 1) << hash;
    }
    EXPECT_EQ(report.from_source, source_builds.size());
    EXPECT_EQ(tree.size(), cache.stats().pushes + report.externals);
    return report;
  };
  for (int threads : {1, 4}) install_all(threads);

  // Pinned combined report of a clean run: the same figures at every
  // engine width.
  benchpark::support::ScopedFaultPlan scope;
  benchpark::support::FaultPlan::global().clear();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("clean, engine_threads=" + std::to_string(threads));
    auto report = install_all(threads);
    EXPECT_EQ(report.installed.size(), 11u);
    EXPECT_EQ(report.from_source, 9u);
    EXPECT_EQ(report.already_installed, 2u);
    EXPECT_EQ(report.total_attempts, 9u);
    EXPECT_DOUBLE_EQ(report.total_simulated_seconds, 280.93749999999994);
    EXPECT_DOUBLE_EQ(report.critical_path_seconds, 203.43749999999997);
  }
}

TEST(Installer, ArchspecFlagsRecordedPerTarget) {
  // Section 3.1.3: builds are tuned to the target microarchitecture.
  const auto& registry = benchpark::system::SystemRegistry::instance();
  struct Case {
    const char* system;
    const char* expected_flag;
  };
  for (const Case& c : {Case{"cts1", "-march=broadwell"},
                        Case{"ats4", "-march=znver3"}}) {
    cz::Config config = registry.get(c.system).config;
    cz::Concretizer concretizer(pkg::default_repo_stack(), config);
    auto spec = concretize1(concretizer, "zlib");
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
    auto report = installer.install(spec);
    ASSERT_FALSE(report.installed.empty());
    EXPECT_EQ(report.installed.back().arch_flags, c.expected_flag)
        << c.system;
    EXPECT_NE(report.build_log.find(c.expected_flag), std::string::npos);
  }
}

TEST(Installer, Power9FlagsOnAts2) {
  const auto& ats2 = benchpark::system::SystemRegistry::instance().get("ats2");
  cz::Concretizer concretizer(pkg::default_repo_stack(), ats2.config);
  auto spec = concretize1(concretizer, "zlib%gcc");
  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  auto report = installer.install(spec);
  EXPECT_EQ(report.installed.back().arch_flags, "-mcpu=power9");
}

TEST(Installer, TransientBuildFailuresAreRetriedWithBackoff) {
  // A dependency whose build step fails twice, then succeeds: the DAG
  // must still complete, with the retries visible in the record.
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto c = simple_concretizer();
  auto spec = concretize1(c, "saxpy");
  const auto* mpi = spec.dependency("mvapich2");
  ASSERT_NE(mpi, nullptr);

  benchpark::support::FaultRule rule;
  rule.site = "install.build_step";
  rule.key = mpi->dag_hash();
  rule.nth = 1;
  rule.count = 2;
  plan.add_rule(rule);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  install::InstallOptions options;
  auto report = installer.install(spec, options);

  const install::InstallRecord* mpi_record = nullptr;
  for (const auto& r : report.installed) {
    if (r.spec.name() == "mvapich2") mpi_record = &r;
  }
  ASSERT_NE(mpi_record, nullptr);
  EXPECT_EQ(mpi_record->attempts, 3);
  EXPECT_GT(mpi_record->retry_wait_seconds, 0.0);
  EXPECT_TRUE(tree.installed(*mpi));
  EXPECT_TRUE(tree.installed(spec));
  EXPECT_NE(report.build_log.find("[r] "), std::string::npos);
  EXPECT_EQ(report.total_attempts, report.installed.size() + 2);
  EXPECT_DOUBLE_EQ(report.retry_wait_seconds, mpi_record->retry_wait_seconds);
  // Pinned: the backoff formula and its jitter seed are part of the
  // reproducibility contract, so these bytes must never drift.
  EXPECT_DOUBLE_EQ(mpi_record->retry_wait_seconds, 0.81748213164616856);
  EXPECT_DOUBLE_EQ(report.total_simulated_seconds, 165.50498213164616);
}

TEST(Installer, ExhaustedRetriesFailLoudlyAndReleaseClaims) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto c = simple_concretizer();
  auto spec = concretize1(c, "saxpy");
  const auto* mpi = spec.dependency("mvapich2");
  ASSERT_NE(mpi, nullptr);

  benchpark::support::FaultRule rule;
  rule.site = "install.build_step";
  rule.key = mpi->dag_hash();
  rule.nth = 1;
  rule.count = 99;  // more than any retry budget
  plan.add_rule(rule);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  install::InstallOptions options;
  EXPECT_THROW(installer.install(spec, options), benchpark::PermanentError);
  EXPECT_FALSE(tree.installed(*mpi));
  EXPECT_FALSE(tree.installed(spec));

  // Nothing of the failed build is left behind: with the plan cleared,
  // the same installer converges on a second try.
  plan.clear();
  auto report = installer.install(spec, options);
  EXPECT_TRUE(tree.installed(spec));
  EXPECT_GT(report.from_source, 0u);
}

TEST(Installer, FailedDependencySkipsDependentsButBuildsTheRest) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto c = simple_concretizer();
  auto spec = concretize1(c, "amg2023+caliper");
  const auto* hypre = spec.dependency("hypre");
  ASSERT_NE(hypre, nullptr);

  benchpark::support::FaultRule rule;
  rule.site = "install.build_step";
  rule.key = hypre->dag_hash();
  rule.kind = benchpark::support::FaultKind::permanent;
  plan.add_rule(rule);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  try {
    installer.install(spec);
    FAIL() << "install should have failed";
  } catch (const benchpark::PermanentError& e) {
    EXPECT_NE(std::string(e.what()).find("failed or were skipped"),
              std::string::npos);
  }
  // hypre and its dependents are absent; independent chains (the caliper
  // tool stack) still installed.
  EXPECT_FALSE(tree.installed(*hypre));
  EXPECT_FALSE(tree.installed(spec));
  const auto* caliper = spec.dependency("caliper");
  ASSERT_NE(caliper, nullptr);
  EXPECT_TRUE(tree.installed(*caliper));
}

TEST(Installer, FetchFailureFallsBackToSourceBuild) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  auto c = simple_concretizer();
  auto spec = concretize1(c, "zlib");
  BinaryCache cache;
  {
    install::InstallTree warmup;
    install::Installer installer(pkg::default_repo_stack(), &warmup, &cache);
    installer.install(spec);
  }
  ASSERT_TRUE(cache.contains(spec.dag_hash()));

  // Fail every fetch attempt — beyond the cache's internal retries — so
  // the installer must fall back to a source build.
  benchpark::support::FaultRule rule;
  rule.site = "buildcache.fetch";
  rule.key = spec.dag_hash();
  rule.nth = 1;
  rule.count = 99;
  plan.add_rule(rule);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
  auto report = installer.install(spec);
  EXPECT_TRUE(tree.installed(spec));
  EXPECT_EQ(report.from_cache, 0u);
  EXPECT_GT(report.from_source, 0u);
  EXPECT_NE(report.build_log.find("cache fetch failed"), std::string::npos);
}

TEST(Environment, SameSeedChaosInstallsAreByteIdentical) {
  // The acceptance bar: under a nonzero fault plan, a multi-root install
  // converges with every package installed exactly once, and runs with
  // the same seed produce identical reports at every engine width.
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse(
      "seed=1234;install.build_step:p=0.2;buildcache.fetch:nth=1");

  env::Environment e;
  e.add("amg2023+caliper");
  e.add("saxpy+openmp");
  auto c = simple_concretizer();
  e.concretize(c);

  auto run = [&](int threads) {
    BinaryCache cache;
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, &cache);
    install::InstallOptions options;
    options.engine_threads = threads;
    auto report = e.install_all(installer, options);
    EXPECT_EQ(tree.size(), cache.stats().pushes + report.externals);
    return report;
  };
  auto first = run(4);
  auto second = run(4);
  auto serial = run(1);

  for (const auto* other : {&second, &serial}) {
    EXPECT_EQ(first.build_log, other->build_log);
    EXPECT_EQ(first.total_attempts, other->total_attempts);
    EXPECT_DOUBLE_EQ(first.total_simulated_seconds,
                     other->total_simulated_seconds);
    EXPECT_DOUBLE_EQ(first.retry_wait_seconds, other->retry_wait_seconds);
  }

  // Pinned: fault decisions and backoff are pure functions of the seed,
  // so these figures and log bytes must never drift.
  EXPECT_EQ(first.total_attempts, 11u);
  EXPECT_EQ(first.already_installed, 2u);
  EXPECT_DOUBLE_EQ(first.total_simulated_seconds, 281.49787371307741);
  EXPECT_DOUBLE_EQ(first.critical_path_seconds, 203.69822205347521);
  EXPECT_DOUBLE_EQ(first.retry_wait_seconds, 0.56037371307745054);
  EXPECT_EQ(benchpark::support::fnv1a(first.build_log),
            0x11ed7558d98a7f52ull);

  // Exactly-once semantics under chaos: no hash built from source twice.
  std::map<std::string, int> source_builds;
  for (const auto& record : first.installed) {
    if (record.source == install::InstallSource::source_build) {
      ++source_builds[record.spec.dag_hash()];
    }
  }
  for (const auto& [hash, count] : source_builds) {
    EXPECT_EQ(count, 1) << hash;
  }
  EXPECT_EQ(first.from_source + first.from_cache + first.externals +
                first.already_installed,
            first.installed.size());
}

TEST(Environment, SharedDepPermanentFailureFailsFastWithoutDeadlock) {
  // A shared dependency that fails for good must fail every root that
  // needs it, loudly and promptly, not wedge the DAG.
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  env::Environment e;
  e.add("amg2023");
  e.add("saxpy");
  auto c = simple_concretizer();
  e.concretize(c);
  const auto* mpi = e.concrete_for("mvapich2");
  ASSERT_NE(mpi, nullptr);

  benchpark::support::FaultRule rule;
  rule.site = "install.build_step";
  rule.key = mpi->dag_hash();
  rule.kind = benchpark::support::FaultKind::permanent;
  plan.add_rule(rule);

  install::InstallTree tree;
  install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
  install::InstallOptions options;
  options.engine_threads = 4;
  EXPECT_THROW(e.install_all(installer, options), benchpark::PermanentError);
  EXPECT_FALSE(tree.installed(*mpi));
}

TEST(Environment, FailedRootStillInstallsIndependentRootsAtEveryWidth) {
  // A root whose closure fails must not stop the roots after it: saxpy
  // needs nothing of hypre, so it installs whatever the engine width.
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();

  env::Environment e;
  e.add("amg2023+caliper");
  e.add("saxpy+openmp");
  auto c = simple_concretizer();
  e.concretize(c);
  const auto* hypre = e.concrete_for("hypre");
  const auto* saxpy = e.concrete_for("saxpy");
  ASSERT_NE(hypre, nullptr);
  ASSERT_NE(saxpy, nullptr);

  benchpark::support::FaultRule rule;
  rule.site = "install.build_step";
  rule.key = hypre->dag_hash();
  rule.kind = benchpark::support::FaultKind::permanent;
  plan.add_rule(rule);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    install::InstallTree tree;
    install::Installer installer(pkg::default_repo_stack(), &tree, nullptr);
    install::InstallOptions options;
    options.engine_threads = threads;
    try {
      e.install_all(installer, options);
      ADD_FAILURE() << "install should have failed";
    } catch (const benchpark::PermanentError& err) {
      EXPECT_EQ(std::string(err.what()),
                "install of 'amg2023@=1.1' failed: 2 of 8 packages failed "
                "or were skipped; first failure: injected permanent fault "
                "at 'install.build_step' (key '" +
                    hypre->dag_hash() + "'), attempt 1");
    }
    EXPECT_EQ(tree.size(), 7u);
    EXPECT_TRUE(tree.installed(*saxpy));
    EXPECT_FALSE(tree.installed(*hypre));
  }
}
