#include "src/core/driver.hpp"

#include <algorithm>

#include "src/analysis/history.hpp"
#include "src/core/usage.hpp"
#include "src/obs/trace.hpp"
#include "src/store/persist.hpp"
#include "src/support/error.hpp"
#include "src/support/string_util.hpp"
#include "src/yaml/parser.hpp"

namespace benchpark::core {

using support::contains;
using system::SystemDescription;
using system::SystemRegistry;

ExperimentId ExperimentId::parse(std::string_view text) {
  auto [benchmark, variant] = support::split_first(text, '/');
  if (benchmark.empty() || variant.empty()) {
    throw Error("experiment id must be '<benchmark>/<variant>', got '" +
                std::string(text) + "'");
  }
  return {benchmark, variant};
}

namespace {

/// The Figure 10 ramble.yaml, parameterized by GPU/OpenMP variant.
yaml::Node saxpy_template(const std::string& variant) {
  std::string spec = "saxpy@1.0.0 +" + variant;
  if (variant != "openmp") spec += "~openmp";
  spec += " ^cmake@3.23.1:";
  return yaml::parse(
      "ramble:\n"
      "  include:\n"
      "  - ./configs/packages.yaml\n"
      "  - ./configs/variables.yaml\n"
      "  config:\n"
      "    deprecated: true\n"
      "    spack_flags:\n"
      "      install: '--add --keep-stage'\n"
      "      concretize: '-U -f'\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          env_vars:\n"
      "            set:\n"
      "              OMP_NUM_THREADS: '{n_threads}'\n"
      "          variables:\n"
      "            n_ranks: '8'\n"
      "            batch_time: '120'\n"
      "          experiments:\n"
      "            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n"
      "              variables:\n"
      "                processes_per_node: ['8', '4']\n"
      "                n_nodes: ['1', '2']\n"
      "                n_threads: ['2', '4']\n"
      "                n: ['512', '1024']\n"
      "              matrices:\n"
      "              - size_threads:\n"
      "                - n\n"
      "                - n_threads\n"
      "  spack:\n"
      "    packages:\n"
      "      saxpy:\n"
      "        spack_spec: " + spec + "\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      saxpy:\n"
      "        packages:\n"
      "        - default-mpi\n"
      "        - saxpy\n");
}

yaml::Node amg_template(const std::string& variant) {
  std::string spec = "amg2023@1.1 +caliper";
  if (variant == "cuda") spec += "+cuda~openmp";
  if (variant == "rocm") spec += "+rocm~openmp";
  if (variant == "openmp") spec += "+openmp";
  return yaml::parse(
      "ramble:\n"
      "  include:\n"
      "  - ./configs/packages.yaml\n"
      "  - ./configs/variables.yaml\n"
      "  applications:\n"
      "    amg2023:\n"
      "      workloads:\n"
      "        problem1:\n"
      "          env_vars:\n"
      "            set:\n"
      "              OMP_NUM_THREADS: '{n_threads}'\n"
      "          variables:\n"
      "            batch_time: '240'\n"
      "            nx: '1024'\n"
      "            ny: '1024'\n"
      "          experiments:\n"
      "            amg_strong_{nx}_{n_nodes}_{n_ranks}_{n_threads}:\n"
      "              variables:\n"
      "                processes_per_node: '16'\n"
      "                n_nodes: ['1', '2', '4']\n"
      "                n_threads: '2'\n"
      "                n_ranks: '{processes_per_node}*{n_nodes}'\n"
      "                px: '{n_ranks}'\n"
      "                py: '1'\n"
      "  spack:\n"
      "    packages:\n"
      "      amg2023:\n"
      "        spack_spec: " + spec + "\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      amg2023:\n"
      "        packages:\n"
      "        - default-mpi\n"
      "        - amg2023\n");
}

yaml::Node stream_template() {
  return yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    stream:\n"
      "      workloads:\n"
      "        bandwidth:\n"
      "          env_vars:\n"
      "            set:\n"
      "              OMP_NUM_THREADS: '{n_threads}'\n"
      "          variables:\n"
      "            n_ranks: '1'\n"
      "            processes_per_node: '1'\n"
      "          experiments:\n"
      "            stream_{n}_{n_threads}:\n"
      "              variables:\n"
      "                n: '10000000'\n"
      "                n_threads: ['1', '4', '8']\n"
      "  spack:\n"
      "    packages:\n"
      "      stream:\n"
      "        spack_spec: stream@5.10 +openmp\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      stream:\n"
      "        packages:\n"
      "        - stream\n");
}

yaml::Node osu_template() {
  return yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    osu-bcast:\n"
      "      workloads:\n"
      "        collective:\n"
      "          variables:\n"
      "            batch_time: '60'\n"
      "          experiments:\n"
      "            bcast_{n_nodes}_{n_ranks}:\n"
      "              variables:\n"
      "                processes_per_node: '32'\n"
      "                n_nodes: ['1', '2', '4', '8']\n"
      "                n_ranks: '{processes_per_node}*{n_nodes}'\n"
      "                n: '1048576'\n"
      "  spack:\n"
      "    packages:\n"
      "      osu-bcast:\n"
      "        spack_spec: osu-micro-benchmarks@6.2\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      osu-bcast:\n"
      "        packages:\n"
      "        - default-mpi\n"
      "        - osu-bcast\n");
}

/// HPCC-class kernels share one single-node scaling shape: a 2x2
/// n x n_threads matrix per workload, the Extra-P-ready 4-point grid.
yaml::Node kernel_template(const std::string& app, const std::string& workload,
                           const std::string& package,
                           const std::string& spack_spec,
                           const std::string& n_small,
                           const std::string& n_large) {
  return yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    " + app + ":\n"
      "      workloads:\n"
      "        " + workload + ":\n"
      "          env_vars:\n"
      "            set:\n"
      "              OMP_NUM_THREADS: '{n_threads}'\n"
      "          variables:\n"
      "            n_ranks: '1'\n"
      "            processes_per_node: '1'\n"
      "          experiments:\n"
      "            " + app + "_{n}_{n_threads}:\n"
      "              variables:\n"
      "                n: ['" + n_small + "', '" + n_large + "']\n"
      "                n_threads: ['1', '4']\n"
      "              matrices:\n"
      "              - size_threads:\n"
      "                - n\n"
      "                - n_threads\n"
      "  spack:\n"
      "    packages:\n"
      "      " + package + ":\n"
      "        spack_spec: " + spack_spec + "\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      " + app + ":\n"
      "        packages:\n"
      "        - " + package + "\n");
}

/// b_eff scales over ranks, not threads: an osu-style node sweep.
yaml::Node beff_template() {
  return yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    beff:\n"
      "      workloads:\n"
      "        sweep:\n"
      "          variables:\n"
      "            batch_time: '60'\n"
      "          experiments:\n"
      "            beff_{n_nodes}_{n_ranks}:\n"
      "              variables:\n"
      "                processes_per_node: '16'\n"
      "                n_nodes: ['1', '2', '4', '8']\n"
      "                n_ranks: '{processes_per_node}*{n_nodes}'\n"
      "                n: '16777216'\n"
      "  spack:\n"
      "    packages:\n"
      "      b-eff:\n"
      "        spack_spec: b-eff@3.6\n"
      "        compiler: default-compiler\n"
      "    environments:\n"
      "      beff:\n"
      "        packages:\n"
      "        - default-mpi\n"
      "        - b-eff\n");
}

}  // namespace

Driver::Driver() {
  for (const char* variant : {"openmp", "cuda", "rocm"}) {
    experiments_.emplace_back(ExperimentId{"saxpy", variant},
                              saxpy_template(variant));
    experiments_.emplace_back(ExperimentId{"amg2023", variant},
                              amg_template(variant));
  }
  experiments_.emplace_back(ExperimentId{"stream", "openmp"},
                            stream_template());
  experiments_.emplace_back(ExperimentId{"osu-bcast", "mpi"},
                            osu_template());
  experiments_.emplace_back(
      ExperimentId{"gemm", "openmp"},
      kernel_template("gemm", "square", "gemm", "gemm@1.0 +openmp",
                      "256", "384"));
  experiments_.emplace_back(
      ExperimentId{"ptrans", "openmp"},
      kernel_template("ptrans", "transpose", "ptrans",
                      "ptrans@1.0 +openmp", "512", "1024"));
  experiments_.emplace_back(
      ExperimentId{"fft", "openmp"},
      kernel_template("fft", "batch", "fft", "fft@1.0 +openmp", "2048",
                      "4096"));
  experiments_.emplace_back(
      ExperimentId{"randomaccess", "openmp"},
      kernel_template("randomaccess", "gups", "randomaccess",
                      "randomaccess@1.0 +openmp", "32768", "65536"));
  experiments_.emplace_back(ExperimentId{"beff", "mpi"}, beff_template());
}

std::vector<std::string> Driver::benchmarks() const {
  std::vector<std::string> out;
  for (const auto& [id, node] : experiments_) {
    if (std::find(out.begin(), out.end(), id.benchmark) == out.end()) {
      out.push_back(id.benchmark);
    }
  }
  return out;
}

std::vector<std::string> Driver::variants(std::string_view benchmark) const {
  std::vector<std::string> out;
  for (const auto& [id, node] : experiments_) {
    if (id.benchmark == benchmark) out.push_back(id.variant);
  }
  return out;
}

std::vector<std::string> Driver::systems() const {
  return SystemRegistry::instance().names();
}

const yaml::Node& Driver::experiment_config(const ExperimentId& id) const {
  for (const auto& [eid, node] : experiments_) {
    if (eid.benchmark == id.benchmark && eid.variant == id.variant) {
      return node;
    }
  }
  throw Error("unknown experiment '" + id.str() + "'; run `benchpark list`");
}

void Driver::add_experiment(const ExperimentId& id, yaml::Node ramble_yaml) {
  UsageMetrics::instance().record_contribution(id.benchmark);
  for (auto& [eid, node] : experiments_) {
    if (eid.benchmark == id.benchmark && eid.variant == id.variant) {
      node = std::move(ramble_yaml);
      return;
    }
  }
  experiments_.emplace_back(id, std::move(ramble_yaml));
}

void Driver::validate_pair(const ExperimentId& id,
                           const SystemDescription& system) const {
  if (id.variant == "cuda" || id.variant == "rocm") {
    if (!system.has_gpu()) {
      throw Error("experiment '" + id.str() + "' needs GPUs; system '" +
                  system.name + "' is CPU-only");
    }
    if (system.gpu->runtime != id.variant) {
      throw Error("experiment '" + id.str() + "' needs a " + id.variant +
                  " system; '" + system.name + "' provides " +
                  system.gpu->runtime);
    }
  }
}

void Driver::validate(const ExperimentId& id,
                      const std::string& system_name) const {
  const auto& system = SystemRegistry::instance().get(system_name);
  validate_pair(id, system);
  (void)experiment_config(id);  // throws on unknown experiments
}

ramble::Workspace Driver::setup(const ExperimentId& id,
                                const std::string& system_name,
                                std::filesystem::path workspace_dir) const {
  const auto& system = SystemRegistry::instance().get(system_name);
  validate_pair(id, system);
  const yaml::Node& tmpl = experiment_config(id);

  // Bind the system-specific Ramble spack.yaml aliases (Figure 9):
  // default-compiler and default-mpi resolve from the system scope.
  yaml::Node bound = tmpl;
  yaml::Node& packages = bound["ramble"]["spack"]["packages"];
  const auto& compiler = system.config.default_compiler();
  yaml::Node comp_def = yaml::Node::make_mapping();
  comp_def["spack_spec"] =
      yaml::Node(compiler.name + "@" + compiler.version.str());
  packages["default-compiler"] = std::move(comp_def);

  std::string mpi_spec = "mpi";
  if (const auto* mpi = system.config.settings_for("mpi");
      mpi && !mpi->externals.empty()) {
    mpi_spec = mpi->externals.front().spec.str();
  }
  yaml::Node mpi_def = yaml::Node::make_mapping();
  mpi_def["spack_spec"] = yaml::Node(mpi_spec);
  packages["default-mpi"] = std::move(mpi_def);

  auto ws = ramble::Workspace::create(std::move(workspace_dir), system);
  ws.configure(bound);
  UsageMetrics::instance().record_setup(id.benchmark);
  return ws;
}

ramble::AnalyzeReport Driver::run_workflow(const ExperimentId& id,
                                           const std::string& system_name,
                                           const std::filesystem::path& dir,
                                           const StepLogger& log,
                                           ramble::Workspace* workspace_out,
                                           const ramble::RunRequest& request,
                                           ramble::RunReport* run_report_out)
    const {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan workflow_span(collector, "workflow", "driver");
  if (workflow_span.active()) {
    workflow_span.annotate("experiment", id.str());
    workflow_span.annotate("system", system_name);
    collector.attach_metadata("benchmark", id.benchmark);
    collector.attach_metadata("system", system_name);
  }
  auto say = [&](int step, const std::string& text) {
    if (log) log(step, text);
  };
  // The persistent store, when configured (explicitly on the request or
  // via BENCHPARK_STORE_DIR), is what makes back-to-back workflows
  // incremental: warm caches, zero re-installs, skipped experiments.
  store::StoreHandle persistent =
      request.store ? request.store : store::Store::open_from_env();
  auto warm = store::warm_start_global_caches(persistent);
  if (workflow_span.active() && persistent) {
    workflow_span.annotate("store.dir", persistent->dir().string());
    if (warm.attempted) {
      workflow_span.annotate("store.warm.concretize",
                             std::to_string(warm.concretize_entries));
      workflow_span.annotate("store.warm.templates",
                             std::to_string(warm.template_entries));
    }
  }
  say(1, "user clones Benchpark repository (driver + configs + experiments)");
  say(2, "benchpark " + id.str() + " " + system_name + " " + dir.string());
  say(3, "Benchpark clones Spack and Ramble (engines instantiated)");
  auto ws = [&] {
    obs::ScopedSpan step_span(collector, "workflow.setup", "driver");
    return setup(id, system_name, dir);
  }();
  ws.set_store(persistent);
  say(4, "Benchpark generates workspace config under " +
             (dir / "configs").string());
  {
    obs::ScopedSpan step_span(collector, "workflow.workspace_setup",
                              "driver");
    ws.setup();
    const auto& cz = ws.concretize_summary();
    if (step_span.active()) {
      step_span.annotate("concretize.roots", std::to_string(cz.roots));
      step_span.annotate("concretize.cache_hits",
                         std::to_string(cz.cache_hits));
      step_span.annotate("concretize.cache_misses",
                         std::to_string(cz.cache_misses));
    }
  }
  say(5, "ramble workspace setup (concretized " +
             std::to_string(ws.concretize_summary().roots) +
             " roots, cache " +
             std::to_string(ws.concretize_summary().cache_hits) + " hits / " +
             std::to_string(ws.concretize_summary().cache_misses) +
             " misses)");
  say(6, "Ramble used Spack to build " + id.benchmark + " (" +
             std::to_string(ws.install_report().from_source) +
             " built from source, " +
             std::to_string(ws.install_report().externals) + " externals, " +
             std::to_string(ws.install_report().already_installed) +
             " already installed)");
  say(7, "Ramble rendered " + std::to_string(ws.prepared().size()) +
             " batch experiment scripts");
  auto run_report = [&] {
    obs::ScopedSpan step_span(collector, "workflow.run", "driver");
    auto r = ws.run_all(request);
    if (step_span.active()) {
      step_span.annotate("experiments", std::to_string(r.experiments));
      step_span.annotate("attempts", std::to_string(r.total_attempts));
      step_span.annotate("template_cache.hits",
                         std::to_string(r.template_cache_hits));
      step_span.annotate("template_cache.misses",
                         std::to_string(r.template_cache_misses));
      if (persistent) {
        step_span.annotate("store.hits", std::to_string(r.store_hits));
        step_span.annotate("store.misses", std::to_string(r.store_misses));
      }
    }
    return r;
  }();
  if (run_report_out) *run_report_out = run_report;
  std::string store_summary;
  if (persistent) {
    store_summary = ", store " + std::to_string(run_report.store_hits) +
                    " hits / " + std::to_string(run_report.store_misses) +
                    " misses";
  }
  say(8, "ramble on: " + std::to_string(run_report.experiments) +
             " experiments executed via " +
             std::string(
                 system::scheduler_name(ws.target_system().scheduler)) +
             " (" + std::to_string(run_report.retried) + " retried, " +
             "template cache " +
             std::to_string(run_report.template_cache_hits) + " hits / " +
             std::to_string(run_report.template_cache_misses) + " misses" +
             store_summary + ")");
  auto report = [&] {
    obs::ScopedSpan step_span(collector, "workflow.analyze", "driver");
    return ws.analyze(request);
  }();
  UsageMetrics::instance().record_runs(id.benchmark, report.results.size());
  say(9, "ramble workspace analyze: " +
             std::to_string(report.num_success()) + "/" +
             std::to_string(report.results.size()) +
             " experiments succeeded");
  if (persistent) {
    // Append this workflow's outcomes to the FOM history: one
    // runtime_seconds sample per experiment plus one sample per numeric
    // FOM, in submission order (per_experiment and the analyze report
    // are both index-aligned with the prepared experiments), keyed by
    // the experiment's store key so regressions bisect to a config.
    analysis::FomHistory history(persistent);
    std::size_t appended = 0;
    const auto& outcomes = run_report.per_experiment;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& outcome = outcomes[i];
      history.append(
          {id.benchmark, system_name, outcome.name, "runtime_seconds"},
          outcome.runtime_seconds, "s", outcome.store_key, outcome.success);
      ++appended;
      if (i >= report.results.size()) continue;
      for (const auto& fom : report.results[i].foms) {
        if (!fom.numeric) continue;
        history.append({id.benchmark, system_name, outcome.name, fom.name},
                       fom.value, fom.units, outcome.store_key, true);
        ++appended;
      }
    }
    say(10, "history: appended " + std::to_string(appended) +
                " sample(s) to " + std::to_string(history.keys().size()) +
                " series");
    // Snapshot the process-wide caches so the next process starts warm;
    // the workspace already persisted its binary cache + install tree.
    store::persist_global_caches(persistent);
    persistent->flush();
  }
  if (workspace_out) *workspace_out = std::move(ws);
  return report;
}

std::string Driver::repo_tree() const {
  // The Figure 1a repository layout, synthesized from the registries.
  std::string out;
  out += "benchpark/\n";
  out += "|-- benchpark          // The Benchpark driver\n";
  out += "|   `-- bin\n";
  out += "|       `-- benchpark\n";
  out += "|-- configs            // HPC System-specific\n";
  for (const auto& system_name : SystemRegistry::instance().names()) {
    out += "|   |-- " + system_name + "\n";
    out += "|   |   |-- compilers.yaml\n";
    out += "|   |   |-- packages.yaml\n";
    out += "|   |   |-- spack.yaml\n";
    out += "|   |   `-- variables.yaml\n";
  }
  out += "|-- experiments        // Experiment-specific\n";
  for (const auto& benchmark : benchmarks()) {
    out += "|   |-- " + benchmark + "\n";
    for (const auto& variant : variants(benchmark)) {
      out += "|   |   |-- " + variant + "\n";
      out += "|   |   |   |-- execute_experiment.tpl\n";
      out += "|   |   |   `-- ramble.yaml\n";
    }
  }
  out += "`-- repo               // Benchmark-specific overlays\n";
  for (const auto& benchmark : benchmarks()) {
    out += "    |-- " + benchmark + "\n";
    out += "    |   |-- application.py\n";
    out += "    |   `-- package.py\n";
  }
  out += "    `-- repo.yaml\n";
  return out;
}

}  // namespace benchpark::core
