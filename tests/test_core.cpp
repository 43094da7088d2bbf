// Core driver tests: Table 1 registry, the `benchpark <experiment>
// <system> <workspace>` entry point, the Figure 1c workflow, the Figure
// 1a repo tree, multi-system campaigns, and benchmark usage metrics.
#include <gtest/gtest.h>

#include "src/core/campaign.hpp"
#include "src/core/components.hpp"
#include "src/core/driver.hpp"
#include "src/core/usage.hpp"
#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/yaml/parser.hpp"

namespace core = benchpark::core;
using core::Driver;
using core::ExperimentId;

TEST(Table1, HasSixComponentRows) {
  auto rows = core::table1_components();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].component, "Source code");
  EXPECT_EQ(rows[5].component, "CI testing");
  // The orthogonality claim: every row fills all three concern columns.
  for (const auto& row : rows) {
    EXPECT_FALSE(row.benchmark_specific.empty()) << row.component;
    EXPECT_FALSE(row.system_specific.empty()) << row.component;
    EXPECT_FALSE(row.experiment_specific.empty()) << row.component;
  }
}

TEST(Table1, RenderContainsPaperArtifacts) {
  auto text = core::render_table1().render();
  for (const char* artifact :
       {"package.py", "application.py", "variables.yaml", "ramble.yaml",
        ".gitlab-ci.yml", "archspec"}) {
    EXPECT_NE(text.find(artifact), std::string::npos) << artifact;
  }
}

TEST(Table1, RegistryValidates) {
  EXPECT_NO_THROW(core::validate_component_registry());
}

TEST(ExperimentIdParse, Valid) {
  auto id = ExperimentId::parse("amg2023/cuda");
  EXPECT_EQ(id.benchmark, "amg2023");
  EXPECT_EQ(id.variant, "cuda");
  EXPECT_EQ(id.str(), "amg2023/cuda");
}

TEST(ExperimentIdParse, Invalid) {
  EXPECT_THROW(ExperimentId::parse("saxpy"), benchpark::Error);
  EXPECT_THROW(ExperimentId::parse("/cuda"), benchpark::Error);
}

TEST(Driver, ListsPaperBenchmarksAndSystems) {
  Driver driver;
  auto benchmarks = driver.benchmarks();
  EXPECT_NE(std::find(benchmarks.begin(), benchmarks.end(), "saxpy"),
            benchmarks.end());
  EXPECT_NE(std::find(benchmarks.begin(), benchmarks.end(), "amg2023"),
            benchmarks.end());
  auto variants = driver.variants("saxpy");
  EXPECT_EQ(variants,
            (std::vector<std::string>{"openmp", "cuda", "rocm"}));
  auto systems = driver.systems();
  EXPECT_NE(std::find(systems.begin(), systems.end(), "cts1"),
            systems.end());
}

TEST(Driver, UnknownExperimentThrows) {
  Driver driver;
  EXPECT_THROW((void)driver.experiment_config({"hpl", "openmp"}),
               benchpark::Error);
}

TEST(Driver, RejectsGpuVariantOnCpuSystem) {
  Driver driver;
  benchpark::support::TempDir tmp;
  EXPECT_THROW(driver.setup({"saxpy", "cuda"}, "cts1", tmp.path() / "ws"),
               benchpark::Error);
  EXPECT_THROW(driver.setup({"saxpy", "rocm"}, "ats2", tmp.path() / "ws"),
               benchpark::Error);
}

TEST(Driver, AcceptsMatchingGpuVariant) {
  Driver driver;
  benchpark::support::TempDir tmp;
  EXPECT_NO_THROW(driver.setup({"saxpy", "cuda"}, "ats2", tmp.path() / "a"));
  EXPECT_NO_THROW(driver.setup({"saxpy", "rocm"}, "ats4", tmp.path() / "b"));
}

TEST(Driver, SetupBindsSystemAliases) {
  Driver driver;
  benchpark::support::TempDir tmp;
  auto ws = driver.setup({"saxpy", "openmp"}, "cts1", tmp.path() / "ws");
  const auto* compiler = ws.config().find_package("default-compiler");
  ASSERT_NE(compiler, nullptr);
  EXPECT_EQ(compiler->spack_spec, "gcc@12.1.1");  // Figure 9 line 3-4
  const auto* mpi = ws.config().find_package("default-mpi");
  ASSERT_NE(mpi, nullptr);
  EXPECT_NE(mpi->spack_spec.find("mvapich2"), std::string::npos);
}

TEST(Driver, Figure1cWorkflowEndToEnd) {
  Driver driver;
  benchpark::support::TempDir tmp;
  std::vector<int> steps;
  auto report = driver.run_workflow(
      {"saxpy", "openmp"}, "cts1", tmp.path() / "ws",
      [&](int step, const std::string&) { steps.push_back(step); });
  // All nine steps, in order.
  EXPECT_EQ(steps, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(report.results.size(), 8u);  // Figure 10 expansion
  EXPECT_EQ(report.num_success(), 8u);
}

TEST(Driver, WorkflowOnGpuSystem) {
  Driver driver;
  benchpark::support::TempDir tmp;
  auto report =
      driver.run_workflow({"saxpy", "cuda"}, "ats2", tmp.path() / "ws");
  EXPECT_GT(report.results.size(), 0u);
  EXPECT_EQ(report.num_success(), report.results.size());
}

TEST(Driver, RepoTreeMatchesFigure1aShape) {
  Driver driver;
  auto tree = driver.repo_tree();
  for (const char* expected :
       {"benchpark", "configs", "experiments", "repo", "cts1", "ats2",
        "compilers.yaml", "packages.yaml", "variables.yaml", "amg2023",
        "ramble.yaml", "application.py", "package.py", "repo.yaml"}) {
    EXPECT_NE(tree.find(expected), std::string::npos) << expected;
  }
}

TEST(Driver, AddCustomExperiment) {
  Driver driver;
  driver.add_experiment(
      {"stream", "big"},
      benchpark::yaml::parse(
          "ramble:\n"
          "  applications:\n"
          "    stream:\n"
          "      workloads:\n"
          "        bandwidth:\n"
          "          variables:\n"
          "            n_ranks: '1'\n"
          "            processes_per_node: '1'\n"
          "          experiments:\n"
          "            stream_big_{n}:\n"
          "              variables:\n"
          "                n: '50000000'\n"
          "                n_threads: '4'\n"
          "  spack:\n"
          "    packages:\n"
          "      stream:\n"
          "        spack_spec: stream@5.10 +openmp\n"
          "    environments:\n"
          "      stream:\n"
          "        packages:\n"
          "        - stream\n"));
  auto variants = driver.variants("stream");
  EXPECT_NE(std::find(variants.begin(), variants.end(), "big"),
            variants.end());
  benchpark::support::TempDir tmp;
  auto report =
      driver.run_workflow({"stream", "big"}, "cts1", tmp.path() / "ws");
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.num_success(), 1u);
}

TEST(Campaign, RunsAcrossSystems) {
  Driver driver;
  benchpark::support::TempDir tmp;
  core::Campaign campaign(&driver, {"saxpy", "openmp"}, tmp.path());
  campaign.add_system("cts1");
  campaign.add_system("ats2");
  campaign.run();

  ASSERT_EQ(campaign.summaries().size(), 2u);
  for (const auto& summary : campaign.summaries()) {
    EXPECT_EQ(summary.experiments, 8u) << summary.system;
    EXPECT_EQ(summary.succeeded, 8u) << summary.system;
  }
  EXPECT_EQ(campaign.metrics().distinct_systems(),
            (std::vector<std::string>{"ats2", "cts1"}));
  EXPECT_GT(campaign.metrics().size(), 0u);
}

TEST(Campaign, ComparisonTableShowsBothSystems) {
  Driver driver;
  benchpark::support::TempDir tmp;
  core::Campaign campaign(&driver, {"saxpy", "openmp"}, tmp.path());
  campaign.add_system("cts1");
  campaign.add_system("ats2");
  campaign.run();
  auto text = campaign.comparison_table("elapsed").render();
  EXPECT_NE(text.find("cts1"), std::string::npos);
  EXPECT_NE(text.find("ats2"), std::string::npos);
  EXPECT_NE(text.find("saxpy_512"), std::string::npos);
}

TEST(Campaign, Section71CrashSurfacesInComparison) {
  // amg2023 runs on cts1 but crashes on the cloud twin; the campaign
  // must show exactly that (the paper's debugging story).
  Driver driver;
  benchpark::support::TempDir tmp;
  core::Campaign campaign(&driver, {"amg2023", "openmp"}, tmp.path());
  campaign.add_system("cts1");
  campaign.add_system("cloud-cts");
  campaign.run();

  const auto& summaries = campaign.summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].succeeded, summaries[0].experiments);  // cts1
  EXPECT_EQ(summaries[1].succeeded, 0u);                        // cloud
  EXPECT_FALSE(summaries[1].first_failure.empty());

  auto text = campaign.comparison_table("solve_time").render();
  EXPECT_NE(text.find("CRASHED"), std::string::npos);
}

TEST(Campaign, ScalingModelFromStrongScaling) {
  Driver driver;
  benchpark::support::TempDir tmp;
  core::Campaign campaign(&driver, {"amg2023", "openmp"}, tmp.path());
  campaign.add_system("cts1");
  campaign.run();
  // Strong scaling over 16/32/64 ranks: solve time decreases with p.
  auto model = campaign.scaling_model("cts1", "solve_time");
  EXPECT_LT(model.evaluate(64), model.evaluate(16));
}

TEST(Campaign, IncompatibleSystemRecordedNotFatal) {
  Driver driver;
  benchpark::support::TempDir tmp;
  core::Campaign campaign(&driver, {"saxpy", "cuda"}, tmp.path());
  campaign.add_system("ats2");   // has CUDA
  campaign.add_system("cts1");   // CPU-only -> validation error captured
  campaign.run();
  ASSERT_EQ(campaign.summaries().size(), 2u);
  EXPECT_GT(campaign.summaries()[0].succeeded, 0u);
  EXPECT_EQ(campaign.summaries()[1].experiments, 0u);
  EXPECT_NE(campaign.summaries()[1].first_failure.find("CPU-only"),
            std::string::npos);
}

TEST(Usage, TracksSetupsRunsContributions) {
  auto& usage = core::UsageMetrics::instance();
  usage.reset();
  usage.record_setup("saxpy");
  usage.record_setup("saxpy");
  usage.record_runs("saxpy", 8);
  usage.record_setup("amg2023");
  usage.record_contribution("stream");

  EXPECT_EQ(usage.get("saxpy").setups, 2u);
  EXPECT_EQ(usage.get("saxpy").runs, 8u);
  EXPECT_EQ(usage.get("stream").contributions, 1u);
  EXPECT_EQ(usage.get("never-used").setups, 0u);

  auto ranking = usage.ranking();
  ASSERT_GE(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].benchmark, "saxpy");  // most heavily accessed

  auto text = usage.to_table().render();
  EXPECT_NE(text.find("saxpy"), std::string::npos);
  usage.reset();
}

TEST(Usage, RecencyIncreasesMonotonically) {
  auto& usage = core::UsageMetrics::instance();
  usage.reset();
  usage.record_setup("a");
  usage.record_setup("b");
  EXPECT_LT(usage.get("a").last_event, usage.get("b").last_event);
  usage.record_runs("a", 1);
  EXPECT_GT(usage.get("a").last_event, usage.get("b").last_event);
  usage.reset();
}
