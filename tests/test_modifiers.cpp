// Tests for the Ramble modifier construct (Section 4.5): registry,
// environment injection, command wrapping, modifier FOMs, and the
// end-to-end caliper/hardware-counters flow on a workspace.
#include <gtest/gtest.h>

#include "src/ramble/modifier.hpp"
#include "src/ramble/workspace.hpp"
#include "src/runtime/simexec.hpp"
#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/system/system.hpp"
#include "src/yaml/parser.hpp"

namespace ramble = benchpark::ramble;
namespace rt = benchpark::runtime;
namespace sys = benchpark::system;

TEST(ModifierRegistry, BuiltinsPresent) {
  auto names = ramble::ModifierRegistry::instance().names();
  for (const char* name : {"caliper", "hardware-counters", "time"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  EXPECT_THROW(ramble::ModifierRegistry::instance().get("vtune"),
               benchpark::ExperimentError);
}

TEST(ModifierRegistry, CaliperInjectsConfigAndFoms) {
  auto caliper = ramble::ModifierRegistry::instance().get("caliper");
  auto env = caliper->env_vars();
  ASSERT_TRUE(env.count("CALI_CONFIG"));
  EXPECT_GE(caliper->foms().size(), 2u);
  EXPECT_FALSE(caliper->success_criteria().empty());
}

TEST(ModifierRegistry, TimeWrapsCommand) {
  auto time_mod = ramble::ModifierRegistry::instance().get("time");
  EXPECT_EQ(time_mod->command_prefix(), "/usr/bin/time -v");
}

TEST(RuntimeAnnotations, CaliperEnvProducesRegionProfile) {
  const auto& cts1 = sys::SystemRegistry::instance().get("cts1");
  rt::RunParams params;
  params.app = "saxpy";
  params.n = 4096;
  params.n_ranks = 8;
  params.env["CALI_CONFIG"] = "spot";
  auto outcome = rt::run_simulated(cts1, params);
  EXPECT_NE(outcome.output.find("caliper: region profile"),
            std::string::npos);
  EXPECT_NE(outcome.output.find("main/kernel"), std::string::npos);
  EXPECT_NE(outcome.output.find("main/mpi"), std::string::npos);
}

TEST(RuntimeAnnotations, NoEnvNoProfile) {
  const auto& cts1 = sys::SystemRegistry::instance().get("cts1");
  rt::RunParams params;
  params.app = "saxpy";
  params.n = 4096;
  auto outcome = rt::run_simulated(cts1, params);
  EXPECT_EQ(outcome.output.find("caliper:"), std::string::npos);
  EXPECT_EQ(outcome.output.find("counter cycles"), std::string::npos);
}

TEST(RuntimeAnnotations, CountersScaleWithHardware) {
  const auto& cts1 = sys::SystemRegistry::instance().get("cts1");
  rt::RunParams params;
  params.app = "amg2023";
  params.n = 1 << 10;
  params.n_ranks = 16;
  params.n_threads = 2;
  params.env["BENCHPARK_PERF_COUNTERS"] = "1";
  auto outcome = rt::run_simulated(cts1, params);
  EXPECT_NE(outcome.output.find("counter cycles:"), std::string::npos);
  EXPECT_NE(outcome.output.find("counter instructions:"), std::string::npos);
  EXPECT_NE(outcome.output.find("counter ipc:"), std::string::npos);
}

namespace {

const char* kModifiedYaml =
    "ramble:\n"
    "  applications:\n"
    "    saxpy:\n"
    "      workloads:\n"
    "        problem:\n"
    "          variables:\n"
    "            n_ranks: '8'\n"
    "            processes_per_node: '8'\n"
    "          modifiers:\n"
    "          - caliper\n"
    "          - hardware-counters\n"
    "          - time\n"
    "          experiments:\n"
    "            saxpy_mod_{n}:\n"
    "              variables:\n"
    "                n: '4096'\n"
    "                n_threads: '2'\n"
    "  spack:\n"
    "    packages:\n"
    "      saxpy:\n"
    "        spack_spec: saxpy@1.0.0 +openmp\n"
    "    environments:\n"
    "      saxpy:\n"
    "        packages:\n"
    "        - saxpy\n";

ramble::Workspace modified_workspace(const benchpark::support::TempDir& tmp) {
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  ws.configure(benchpark::yaml::parse(kModifiedYaml));
  return ws;
}

}  // namespace

TEST(WorkspaceModifiers, EnvAndPrefixInjected) {
  benchpark::support::TempDir tmp;
  auto ws = modified_workspace(tmp);
  ws.setup();
  ASSERT_EQ(ws.prepared().size(), 1u);
  const auto& exp = ws.prepared()[0];
  EXPECT_EQ(exp.modifiers.size(), 3u);
  EXPECT_TRUE(exp.env_vars.count("CALI_CONFIG"));
  EXPECT_TRUE(exp.env_vars.count("BENCHPARK_PERF_COUNTERS"));
  // Script contains both the exported env and the time wrapper.
  EXPECT_NE(exp.script.find("export CALI_CONFIG="), std::string::npos);
  EXPECT_NE(exp.script.find("/usr/bin/time -v"), std::string::npos);
  // The wrapper wraps the application command after the launcher.
  EXPECT_NE(exp.script.find("srun"), std::string::npos);
  EXPECT_LT(exp.script.find("/usr/bin/time -v"),
            exp.script.find("saxpy -n 4096"));
}

TEST(WorkspaceModifiers, AnalyzeExtractsModifierFoms) {
  benchpark::support::TempDir tmp;
  auto ws = modified_workspace(tmp);
  ws.setup();
  ws.run_all();
  auto report = ws.analyze();
  ASSERT_EQ(report.results.size(), 1u);
  const auto& result = report.results[0];
  // Caliper success criterion satisfied (profile present in output).
  EXPECT_TRUE(result.success);
  ASSERT_NE(result.fom("cali_main"), nullptr);
  EXPECT_TRUE(result.fom("cali_main")->numeric);
  ASSERT_NE(result.fom("cali_kernel"), nullptr);
  ASSERT_NE(result.fom("cycles"), nullptr);
  EXPECT_GT(result.fom("cycles")->value, 0);
  ASSERT_NE(result.fom("ipc"), nullptr);
  // Application FOMs still extracted alongside.
  ASSERT_NE(result.fom("elapsed"), nullptr);
}

TEST(WorkspaceModifiers, CaliperRegionsAreConsistent) {
  benchpark::support::TempDir tmp;
  auto ws = modified_workspace(tmp);
  ws.setup();
  ws.run_all();
  auto report = ws.analyze();
  const auto& result = report.results[0];
  double main_time = result.fom("cali_main")->value;
  double kernel = result.fom("cali_kernel")->value;
  EXPECT_GT(main_time, 0);
  EXPECT_LE(kernel, main_time);  // inclusive-time invariant
}

TEST(WorkspaceModifiers, UnknownModifierThrowsAtSetup) {
  benchpark::support::TempDir tmp;
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  ws.configure(benchpark::yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          variables:\n"
      "            n_ranks: '1'\n"
      "            processes_per_node: '1'\n"
      "          modifiers:\n"
      "          - vtune\n"
      "          experiments:\n"
      "            e:\n"
      "              variables:\n"
      "                n: '512'\n"
      "                n_threads: '1'\n"
      "  spack:\n"
      "    packages:\n"
      "      saxpy:\n"
      "        spack_spec: saxpy@1.0.0\n"
      "    environments:\n"
      "      saxpy:\n"
      "        packages:\n"
      "        - saxpy\n"));
  EXPECT_THROW(ws.setup(), benchpark::ExperimentError);
}

TEST(WorkspaceModifiers, WorkloadEnvWinsOverModifier) {
  // A workload that pins CALI_CONFIG keeps its value; the modifier only
  // fills gaps (emplace semantics).
  benchpark::support::TempDir tmp;
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "ws", system);
  ws.configure(benchpark::yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          env_vars:\n"
      "            set:\n"
      "              CALI_CONFIG: runtime-report\n"
      "          variables:\n"
      "            n_ranks: '1'\n"
      "            processes_per_node: '1'\n"
      "          modifiers:\n"
      "          - caliper\n"
      "          experiments:\n"
      "            e:\n"
      "              variables:\n"
      "                n: '512'\n"
      "                n_threads: '1'\n"
      "  spack:\n"
      "    packages:\n"
      "      saxpy:\n"
      "        spack_spec: saxpy@1.0.0\n"
      "    environments:\n"
      "      saxpy:\n"
      "        packages:\n"
      "        - saxpy\n"));
  ws.setup();
  EXPECT_EQ(ws.prepared()[0].env_vars.at("CALI_CONFIG"), "runtime-report");
}
