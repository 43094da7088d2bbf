// Adding a new benchmark to Benchpark (Section 4): "a full specification
// of the benchmark, its build, and its run instructions for at least one
// platform is required."
//
// This example contributes a ping-pong latency microbenchmark end to end:
//   1. package.py   -> a PackageRecipe in an overlay repo (Figure 11)
//   2. application.py -> an ApplicationDefinition (Figure 8)
//   3. a simulation model for the modeled systems
//   4. an experiment template (ramble.yaml, Figure 10)
// and then runs it on cts1 and ats4 without touching any framework code.
#include <cstdio>
#include <iostream>
#include <memory>

#include "src/core/driver.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/application.hpp"
#include "src/runtime/simexec.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/string_util.hpp"
#include "src/system/perf_model.hpp"
#include "src/yaml/parser.hpp"

int main() {
  using namespace benchpark;

  // ---- 1. the build half: package.py ------------------------------------
  pkg::PackageRecipe pingpong("pingpong", pkg::BuildSystem::cmake);
  pingpong.describe("MPI ping-pong point-to-point latency benchmark")
      .version("2.1", /*preferred=*/true)
      .variant("openmp", false, "threaded variant")
      .flag_when("openmp", "-DPINGPONG_OPENMP=ON")
      .depends_on("mpi")
      .depends_on("cmake")
      .build_cost(3.0);
  auto overlay = std::make_shared<pkg::Repo>("community-repo");
  overlay->add(std::move(pingpong));
  std::cout << "1. package.py registered in overlay repo 'community-repo'\n";

  // ---- 2. the run half: application.py ---------------------------------
  ramble::ApplicationDefinition app("pingpong");
  app.executable("pp", "pingpong -m {n}", /*use_mpi=*/true)
      .workload("latency", {"pp"})
      .workload_variable("n", "8", "message size in bytes", {"latency"})
      .figure_of_merit("latency_us", R"(latency: ([0-9.eE+-]+) us)", "lat",
                       "us")
      .success_criteria("pass", "pingpong done");
  ramble::ApplicationRegistry::instance().add(std::move(app));
  std::cout << "2. application.py registered (executables, FOMs, success)\n";

  // ---- 3. a model for the simulated systems ------------------------------
  runtime::register_sim_model(
      "pingpong",
      [](const system::SystemDescription& system,
         const runtime::RunParams& params) {
        system::PerfModel model(system);
        double rtt = 2.0 * model.p2p_seconds(params.n);
        runtime::RunOutcome outcome;
        outcome.success = true;
        outcome.elapsed_seconds = rtt * 1000;  // 1000 iterations
        outcome.output =
            "# ping-pong between rank 0 and rank 1\n"
            "latency: " + support::format_double(rtt / 2 * 1e6, 5) +
            " us\npingpong done\n";
        return outcome;
      });
  std::cout << "3. simulation model registered\n";

  // ---- 4. the experiment: ramble.yaml ------------------------------------
  core::Driver driver;
  driver.add_experiment(
      {"pingpong", "latency"},
      yaml::parse("ramble:\n"
                  "  applications:\n"
                  "    pingpong:\n"
                  "      workloads:\n"
                  "        latency:\n"
                  "          variables:\n"
                  "            n_ranks: '2'\n"
                  "            processes_per_node: '1'\n"
                  "            n_nodes: '2'\n"
                  "          experiments:\n"
                  "            pingpong_{n}:\n"
                  "              variables:\n"
                  "                n: ['8', '1024', '1048576']\n"
                  "  spack:\n"
                  "    packages:\n"
                  "      pingpong:\n"
                  "        spack_spec: pingpong@2.1\n"
                  "        compiler: default-compiler\n"
                  "    environments:\n"
                  "      pingpong:\n"
                  "        packages:\n"
                  "        - default-mpi\n"
                  "        - pingpong\n"));
  std::cout << "4. experiment template registered\n\n";

  // The overlay repo shadows the builtin one (the `repo/` directory of
  // Figure 1a): workspaces consult it through set_repo_stack.
  pkg::RepoStack stack;
  stack.push_back(pkg::builtin_repo());
  stack.push_front(overlay);
  std::cout << "overlay lookup: pingpong@"
            << stack.get("pingpong").best_version({})->str() << " ("
            << stack.get("pingpong").description() << ")\n\n";

  // ---- run it on two of the paper's systems ------------------------------
  support::TempDir tmp("benchpark-add");
  for (const char* system_name : {"cts1", "ats4"}) {
    const auto& system =
        system::SystemRegistry::instance().get(system_name);
    std::cout << "== pingpong on " << system_name << " ("
              << system.interconnect.name << ") ==\n";
    auto ws = driver.setup({"pingpong", "latency"}, system_name,
                           tmp.path() / system_name);
    ws.set_repo_stack(stack);  // expose the community recipe
    ws.setup();
    ws.run_all();
    auto report = ws.analyze();
    for (const auto& result : report.results) {
      const auto* latency = result.fom("latency_us");
      std::printf("  %-20s %s  latency=%s us\n", result.name.c_str(),
                  result.success ? "ok" : "FAILED",
                  latency ? latency->raw.c_str() : "?");
    }
  }

  std::cout << "\nThe same four artifacts (recipe, application, model,\n"
               "experiment) are all a community contribution needs — the\n"
               "Table 1 separation keeps each in its own file.\n";
  return 0;
}
