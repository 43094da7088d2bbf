#include "src/ramble/workspace.hpp"

#include <algorithm>

#include "src/concretizer/concretizer.hpp"
#include "src/obs/trace.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/modifier.hpp"
#include "src/runtime/simexec.hpp"
#include "src/store/persist.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/hash.hpp"
#include "src/support/parallel.hpp"
#include "src/support/string_util.hpp"
#include "src/yaml/emitter.hpp"

namespace benchpark::ramble {

namespace fs = std::filesystem;
using support::contains;

// ------------------------------------------------------------ WorkspaceConfig

WorkspaceConfig WorkspaceConfig::from_yaml(const yaml::Node& ramble_yaml) {
  WorkspaceConfig config;
  const yaml::Node& body = ramble_yaml.has("ramble")
                               ? ramble_yaml.at("ramble")
                               : ramble_yaml;
  if (body.has("include")) {
    config.includes = body.at("include").as_string_list();
  }
  if (body.has("applications")) {
    for (const auto& [app_name, app_body] : body.at("applications").map()) {
      AppConfig app;
      app.app = app_name;
      for (const auto& [wl_name, wl_body] :
           app_body.at("workloads").map()) {
        WorkloadConfig wl;
        wl.name = wl_name;
        const auto& env_set = wl_body.path("env_vars.set");
        if (env_set.is_mapping()) {
          for (const auto& [k, v] : env_set.map()) {
            wl.env_vars[k] = v.as_string();
          }
        }
        if (wl_body.has("variables")) {
          for (const auto& [k, v] : wl_body.at("variables").map()) {
            wl.variables[k] = v.as_string();
          }
        }
        if (wl_body.has("modifiers")) {
          wl.modifiers = wl_body.at("modifiers").as_string_list();
        }
        if (wl_body.has("experiments")) {
          for (const auto& [exp_name, exp_body] :
               wl_body.at("experiments").map()) {
            wl.experiments.push_back(
                ExperimentTemplate::from_yaml(exp_name, exp_body));
          }
        }
        app.workloads.push_back(std::move(wl));
      }
      config.applications.push_back(std::move(app));
    }
  }
  const yaml::Node& spack = body.at("spack");
  if (spack.has("packages")) {
    for (const auto& [alias, pkg_body] : spack.at("packages").map()) {
      SpackPackageDef def;
      def.alias = alias;
      def.spack_spec = pkg_body.at("spack_spec").as_string();
      def.compiler = pkg_body.at("compiler").as_string_or("");
      config.spack_packages.push_back(std::move(def));
    }
  }
  if (spack.has("environments")) {
    for (const auto& [env_name, env_body] : spack.at("environments").map()) {
      SpackEnvDef def;
      def.name = env_name;
      def.packages = env_body.at("packages").as_string_list();
      config.spack_environments.push_back(std::move(def));
    }
  }
  return config;
}

const WorkspaceConfig::SpackPackageDef* WorkspaceConfig::find_package(
    std::string_view alias) const {
  for (const auto& p : spack_packages) {
    if (p.alias == alias) return &p;
  }
  return nullptr;
}

const WorkspaceConfig::SpackEnvDef* WorkspaceConfig::find_environment(
    std::string_view name) const {
  for (const auto& e : spack_environments) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

// ------------------------------------------------------------------ results

const analysis::FomValue* ExperimentResult::fom(std::string_view name) const {
  for (const auto& f : foms) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::size_t AnalyzeReport::num_success() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const ExperimentResult& r) { return r.success; }));
}

support::Table AnalyzeReport::to_table() const {
  support::Table table({"experiment", "application", "status", "figures of merit"});
  for (const auto& r : results) {
    std::string foms;
    for (const auto& f : r.foms) {
      if (!foms.empty()) foms += ", ";
      foms += f.name + "=" + f.raw + (f.units.empty() ? "" : " " + f.units);
    }
    table.add_row({r.name, r.app,
                   r.ran ? (r.success ? "SUCCESS" : "FAILED") : "NOT RUN",
                   foms});
  }
  return table;
}

// ---------------------------------------------------------------- Workspace

Workspace::Workspace(fs::path root, system::SystemDescription system)
    : root_(std::move(root)),
      system_(std::move(system)),
      repos_(pkg::default_repo_stack()),
      execute_template_(default_execute_template()),
      install_tree_((root_ / "software" / "install").string()),
      cache_(std::make_unique<buildcache::BinaryCache>()) {}

Workspace Workspace::create(fs::path root,
                            const system::SystemDescription& system) {
  Workspace ws(std::move(root), system);
  // The self-contained directory structure of Section 3.2.1.
  for (const char* sub :
       {"configs", "experiments", "software", "inputs", "logs"}) {
    support::ensure_dir(ws.root_ / sub);
  }
  // System configuration lands in configs/ (Figure 1a lines 4-19).
  support::write_file(ws.root_ / "configs" / "variables.yaml",
                      yaml::emit(system.variables_yaml()));
  support::write_file(ws.root_ / "configs" / "packages.yaml",
                      yaml::emit(system.config.packages_yaml()));
  support::write_file(ws.root_ / "configs" / "compilers.yaml",
                      yaml::emit(system.config.compilers_yaml()));
  support::write_file(ws.root_ / "configs" / "execute_experiment.tpl",
                      ws.execute_template_);
  return ws;
}

void Workspace::configure(const yaml::Node& ramble_yaml) {
  config_ = WorkspaceConfig::from_yaml(ramble_yaml);
  support::write_file(root_ / "configs" / "ramble.yaml",
                      yaml::emit(ramble_yaml));
  configured_ = true;
  set_up_ = false;
  ran_ = false;
}

void Workspace::set_repo_stack(pkg::RepoStack repos) {
  repos_ = std::move(repos);
  set_up_ = false;
}

void Workspace::set_execute_template(std::string template_text) {
  execute_template_ = std::move(template_text);
  support::write_file(root_ / "configs" / "execute_experiment.tpl",
                      execute_template_);
}

std::string Workspace::default_execute_template() {
  // Figure 13, verbatim.
  return
      "#!/bin/bash\n"
      "{batch_nodes}\n"
      "{batch_ranks}\n"
      "{batch_timeout}\n"
      "cd {experiment_run_dir}\n"
      "{spack_setup}\n"
      "{command}\n";
}

VariableMap Workspace::base_variables() const {
  VariableMap vars;
  // System-level variables (Figure 12).
  auto system_vars = system_.variables_yaml();
  for (const auto& [k, v] : system_vars.at("variables").map()) {
    if (v.is_scalar()) vars[k] = v.as_string();
  }
  // Ramble builtins and derived defaults.
  vars["batch_time"] = "120";
  vars["n_nodes"] = "1";
  vars["n_threads"] = "1";
  vars["processes_per_node"] = std::to_string(system_.cpu.cores_per_node);
  vars["n_ranks"] = "{processes_per_node}*{n_nodes}";
  vars["workspace_root"] = root_.string();
  vars["spack_setup"] =
      ". " + (root_ / "software" / "spack" / "setup-env.sh").string();
  return vars;
}

void Workspace::setup_software() {
  concretizer::Concretizer concretizer(repos_, system_.config);
  scope_fingerprint_ = concretizer.scope_fingerprint();
  environments_.clear();
  install_report_ = {};
  concretize_summary_ = {};
  if (store_) {
    // Warm records make the installer's skip-if-installed path report
    // every unchanged package as already_installed: the "zero installs
    // on an unchanged re-run" half of incremental benchmarking.
    store::warm_binary_cache(store_, *cache_);
    store::warm_install_tree(store_, install_tree_);
  }
  install::Installer installer(repos_, &install_tree_, cache_.get());

  for (const auto& env_def : config_.spack_environments) {
    env::Environment environment;
    for (const auto& alias : env_def.packages) {
      const auto* pkg_def = config_.find_package(alias);
      if (!pkg_def) {
        throw ExperimentError("spack environment '" + env_def.name +
                              "' references unknown package alias '" +
                              alias + "'");
      }
      auto spec = spec::Spec::parse(pkg_def->spack_spec);
      // A compiler alias points at another package def whose spack_spec
      // names the compiler (Figure 10 line 35 -> Figure 9 line 3).
      if (!pkg_def->compiler.empty()) {
        const auto* comp_def = config_.find_package(pkg_def->compiler);
        if (!comp_def) {
          throw ExperimentError("package alias '" + alias +
                                "' references unknown compiler alias '" +
                                pkg_def->compiler + "'");
        }
        auto comp_spec = spec::Spec::parse(comp_def->spack_spec);
        spec.set_compiler(
            {comp_spec.name(), comp_spec.versions()});
      }
      environment.add(std::move(spec));
    }
    environment.concretize(concretizer);
    concretize_summary_.roots += environment.user_specs().size();
    concretize_summary_.cache_hits += environment.concretize_cache_hits();
    concretize_summary_.cache_misses +=
        environment.concretize_cache_misses();
    auto report = environment.install_all(installer);
    install_report_.total_simulated_seconds +=
        report.total_simulated_seconds;
    // Environments install one after another here, so their modeled
    // wall-clocks add (unlike roots inside one environment, which race).
    install_report_.critical_path_seconds += report.critical_path_seconds;
    install_report_.from_source += report.from_source;
    install_report_.from_cache += report.from_cache;
    install_report_.externals += report.externals;
    install_report_.already_installed += report.already_installed;
    install_report_.build_log += report.build_log;

    // Persist the lockfile: the reproducibility artifact of Section 5.
    support::write_file(
        root_ / "software" / (env_def.name + ".lock.yaml"),
        yaml::emit(environment.lockfile()));
    environments_.emplace_back(env_def.name, std::move(environment));
  }
  if (store_) {
    store::persist_binary_cache(store_, *cache_);
    store::persist_install_tree(store_, install_tree_);
    store_->flush();
  }
}

const env::Environment* Workspace::environment_for(
    std::string_view app) const {
  for (const auto& [name, environment] : environments_) {
    if (name == app) return &environment;
  }
  return nullptr;
}

void Workspace::generate_experiments() {
  prepared_.clear();
  const auto& registry = ApplicationRegistry::instance();
  for (const auto& app_config : config_.applications) {
    const auto& app_def = registry.get(app_config.app);

    // GPU experiments are identified by the spack spec's GPU variant.
    bool use_gpu = false;
    if (const auto* pkg_def = config_.find_package(app_config.app)) {
      use_gpu = contains(pkg_def->spack_spec, "+cuda") ||
                contains(pkg_def->spack_spec, "+rocm");
    }

    for (const auto& wl_config : app_config.workloads) {
      const auto* wl_def = app_def.find_workload(wl_config.name);
      if (!wl_def) {
        throw ExperimentError("application '" + app_config.app +
                              "' has no workload '" + wl_config.name + "'");
      }
      VariableMap base = base_variables();
      for (const auto& wv : wl_def->variables) {
        base[wv.name] = wv.default_value;
      }
      for (const auto& [k, v] : wl_config.variables) base[k] = v;

      for (const auto& tmpl : wl_config.experiments) {
        for (auto& exp : expand_experiments(tmpl, base)) {
          PreparedExperiment prepared;
          prepared.app = app_config.app;
          prepared.workload = wl_config.name;
          prepared.name = exp.name;
          prepared.variables = std::move(exp.variables);
          prepared.env_vars = wl_config.env_vars;
          prepared.modifiers = wl_config.modifiers;
          // Modifiers inject their environment (e.g. CALI_CONFIG) into
          // every experiment of the workload (Section 4.5).
          for (const auto& mod_name : prepared.modifiers) {
            auto modifier = ModifierRegistry::instance().get(mod_name);
            for (const auto& [k, v] : modifier->env_vars()) {
              prepared.env_vars.emplace(k, v);  // workload values win
            }
          }
          prepared.use_gpu = use_gpu;
          prepared.run_dir = root_ / "experiments" / prepared.app /
                             prepared.workload / prepared.name;
          prepared.variables["experiment_name"] = prepared.name;
          prepared.variables["experiment_run_dir"] =
              prepared.run_dir.string();
          prepared.script = render_script(prepared);

          support::ensure_dir(prepared.run_dir);
          support::write_file(prepared.run_dir / "execute_experiment",
                              prepared.script);
          prepared_.push_back(std::move(prepared));
        }
      }
    }
  }
}

std::string Workspace::render_script(const PreparedExperiment& exp) const {
  const auto& app_def = ApplicationRegistry::instance().get(exp.app);
  VariableMap vars = exp.variables;

  // Build {command}: every executable of the workload, MPI-launched when
  // the definition says so, with env_vars exported first.
  std::string command;
  for (const auto& [k, v] : exp.env_vars) {
    command += "export " + k + "=" + expand(v, vars) + "\n";
  }
  // Modifier wrappers prefix the launched command ("/usr/bin/time -v").
  std::string prefix;
  for (const auto& mod_name : exp.modifiers) {
    auto modifier = ModifierRegistry::instance().get(mod_name);
    if (!modifier->command_prefix().empty()) {
      prefix += modifier->command_prefix() + " ";
    }
  }
  for (const auto* exe : app_def.workload_executables(exp.workload)) {
    std::string line = prefix + exe->command_template;
    if (exe->use_mpi) line = "{mpi_command} " + line;
    command += expand(line, vars) + "\n";
  }
  if (!command.empty() && command.back() == '\n') command.pop_back();
  vars["command"] = command;
  return expand(execute_template_, vars);
}

std::string Workspace::experiment_store_key(
    const PreparedExperiment& exp) const {
  support::Hasher h;
  h.update("exp-v2");
  h.update(scope_fingerprint_);
  // A fault plan that perturbs execution changes what it would produce,
  // so it is part of the experiment's content: an injection run records
  // results under its own keys instead of replaying clean history from
  // the store. Rules against non-execution sites (service dispatch,
  // cache fetches, store I/O) are excluded — they alter delivery, not
  // the experiment's outcome, and must not retire warm-start keys.
  h.update(support::FaultPlan::global().fingerprint(
      {"experiment.", "runtime."}));
  h.update(system_.name);
  // The software actually underneath the experiment: any recipe,
  // dependency, or variant change shifts a DAG hash and retires the key.
  if (const auto* environment = environment_for(exp.app)) {
    for (const auto& spec : environment->concrete_specs()) {
      h.update(spec.dag_hash());
    }
  }
  h.update(exp.app);
  h.update(exp.workload);
  h.update(exp.name);
  // Scrub the workspace root out of rendered text so the key names the
  // experiment's content, not the directory this run happened to use.
  const std::string root = root_.string();
  auto scrubbed = [&root](const std::string& text) {
    return support::replace_all(text, root, "{workspace_root}");
  };
  h.update(scrubbed(exp.script));
  for (const auto& [k, v] : exp.variables) {
    h.update(k);
    h.update(scrubbed(v));
  }
  for (const auto& [k, v] : exp.env_vars) {
    h.update(k);
    h.update(scrubbed(v));
  }
  for (const auto& mod : exp.modifiers) h.update(mod);
  return h.base32();
}

void Workspace::setup() {
  if (!configured_) {
    throw ExperimentError("workspace has no ramble.yaml; call configure()");
  }
  setup_software();
  generate_experiments();
  set_up_ = true;
}

RunReport Workspace::run_all(const RunRequest& request) {
  if (!set_up_) throw ExperimentError("workspace is not set up");
  auto& collector = obs::TraceCollector::global();
  const auto cache_before = TemplateCache::global().stats();
  const store::StoreHandle store = request.store ? request.store : store_;

  struct ExperimentRun {
    bool success = false;
    bool timed_out = false;
    int attempts = 1;
    double retry_wait_seconds = 0;
    double runtime_seconds = 0;
    std::string output;
    bool from_store = false;
    std::string store_key;
  };
  std::vector<ExperimentRun> runs(prepared_.size());

  auto run_one = [&](std::size_t i) {
    const auto& exp = prepared_[i];
    obs::ScopedSpan span(
        collector,
        collector.enabled() ? "workflow.experiment" : std::string(),
        "ramble");
    if (span.active()) {
      span.annotate("experiment", exp.name);
      span.annotate("app", exp.app);
    }
    ExperimentRun& r = runs[i];

    // Stored-result short circuit: a prior run with the same software,
    // script, and variables already produced this experiment's outcome,
    // so restore it (including the .out bytes) and execute nothing.
    std::string store_key;
    if (store) {
      store_key = experiment_store_key(exp);
      r.store_key = store_key;
      if (auto record = store::load_experiment(store, store_key)) {
        r.success = record->success;
        r.timed_out = record->timed_out;
        r.attempts = record->attempts;
        r.retry_wait_seconds = record->retry_wait_seconds;
        r.runtime_seconds = record->runtime_seconds;
        r.output = std::move(record->output);
        r.from_store = true;
        if (span.active()) span.annotate("store", "hit");
        collector.counter_add("store.hits");
        support::write_file(exp.run_dir / (exp.name + ".out"), r.output);
        return;
      }
      collector.counter_add("store.misses");
    }

    // The rendered script is the source of truth for the request —
    // exactly what sbatch would read (Figure 13).
    auto batch = sched::parse_batch_script(exp.script, system_.scheduler);
    if (batch.nodes > system_.num_nodes) {
      throw SchedulerError("job requests " +
                                  std::to_string(batch.nodes) +
                                  " nodes; system has " +
                                  std::to_string(system_.num_nodes));
    }
    double time_limit = batch.time_limit_seconds.value_or(7200);

    runtime::RunParams params;
    params.app = exp.app;
    auto size_var = exp.variables.find("n");
    if (size_var == exp.variables.end()) {
      size_var = exp.variables.find("nx");
    }
    if (size_var != exp.variables.end()) {
      params.n = static_cast<std::uint64_t>(
          expand_int(size_var->second, exp.variables));
    }
    params.n_nodes = batch.nodes;
    params.n_ranks = batch.ranks;
    params.n_threads = static_cast<int>(
        expand_int(exp.variables.at("n_threads"), exp.variables));
    params.use_gpu = exp.use_gpu;
    // The job environment (workload env_vars + modifier injections),
    // expanded against the experiment's variables.
    for (const auto& [k, v] : exp.env_vars) {
      params.env[k] = expand(v, exp.variables);
    }

    const auto& system = system_;
    double runtime = 0;
    try {
      auto exec = runtime::run_with_retry(
          [&system, &params] {
            return system.name == "native"
                       ? runtime::run_native(params)
                       : runtime::run_simulated(system, params);
          },
          exp.name);
      r.attempts = exec.attempts;
      r.retry_wait_seconds = exec.retry_wait_seconds;
      r.success = exec.outcome.success;
      r.output = std::move(exec.outcome.output);
      runtime = std::max(0.0, exec.outcome.elapsed_seconds);
    } catch (const std::exception& e) {
      // Same conversion the batch scheduler applies: user code threw, the
      // job failed, the engine keeps going.
      r.success = false;
      r.output = std::string("job raised: ") + e.what();
    }
    if (runtime > time_limit) {
      // Identical decoration (and job numbering: submission order) to
      // what the batch scheduler writes on a time-limit kill.
      r.timed_out = true;
      r.success = false;
      r.output += "\nslurmstepd: *** JOB " + std::to_string(i + 1) +
                  " CANCELLED DUE TO TIME LIMIT ***\n";
      runtime = time_limit;
    }
    r.runtime_seconds = runtime;
    if (span.active()) {
      span.annotate("attempts", std::to_string(r.attempts));
      span.annotate("success", r.success ? "1" : "0");
      // Modeled runtime, never wall-clock (TraceDiff separates them).
      collector.emit_span("experiment.runtime", "ramble", runtime,
                          {{"experiment", exp.name}});
    }
    collector.counter_add("workspace.experiments.run");
    if (!r.success) collector.counter_add("workspace.experiments.failed");
    if (r.attempts > 1) {
      collector.counter_add("workspace.experiments.retries",
                            r.attempts - 1);
    }
    if (store) {
      store::save_experiment(store, store_key,
                             {r.success, r.timed_out, r.attempts,
                              r.retry_wait_seconds, r.runtime_seconds,
                              r.output});
    }
    // Run dirs are disjoint, so the .out write is safe (and worth doing)
    // inside the parallel section; the bytes are the same either way.
    support::write_file(exp.run_dir / (exp.name + ".out"), r.output);
  };

  support::parallel_for(
      prepared_.size(),
      request.threads == 0 ? support::ThreadPool::default_threads()
                           : request.threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) run_one(i);
      });

  // Serial aggregation in submission order: the counters and the report
  // never depend on completion interleaving.
  RunReport report;
  report.experiments = runs.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ExperimentRun& r = runs[i];
    if (r.success) {
      ++report.succeeded;
    } else {
      ++report.failed;
    }
    if (r.timed_out) ++report.timeouts;
    report.total_attempts += static_cast<std::size_t>(r.attempts);
    if (r.attempts > 1) ++report.retried;
    report.retry_wait_seconds += r.retry_wait_seconds;
    report.total_simulated_seconds += r.runtime_seconds;
    if (r.from_store) ++report.store_hits;

    RunReport::ExperimentOutcome outcome;
    outcome.name = prepared_[i].name;
    outcome.app = prepared_[i].app;
    outcome.workload = prepared_[i].workload;
    outcome.store_key = r.store_key;
    outcome.runtime_seconds = r.runtime_seconds;
    outcome.success = r.success;
    outcome.from_store = r.from_store;
    outcome.attempts = r.attempts;
    report.per_experiment.push_back(std::move(outcome));
  }
  if (store) {
    report.store_misses = report.experiments - report.store_hits;
    store->flush();
  }
  const auto cache_after = TemplateCache::global().stats();
  report.template_cache_hits = cache_after.hits - cache_before.hits;
  report.template_cache_misses = cache_after.misses - cache_before.misses;
  ran_ = true;
  return report;
}

AnalyzeReport Workspace::analyze(const RunRequest& request) const {
  const auto& registry = ApplicationRegistry::instance();

  // Serial prep: file reads and registry lookups; the regex-heavy
  // extraction below is the part worth fanning out.
  struct Prep {
    bool ran = false;
    std::string output;
    std::vector<analysis::FomSpec> fom_specs;
    std::vector<analysis::SuccessCriterion> criteria;
  };
  std::vector<Prep> preps(prepared_.size());
  for (std::size_t i = 0; i < prepared_.size(); ++i) {
    const auto& exp = prepared_[i];
    auto out_file = exp.run_dir / (exp.name + ".out");
    if (!fs::exists(out_file)) continue;
    Prep& prep = preps[i];
    prep.ran = true;
    prep.output = support::read_file(out_file);
    const auto& app_def = registry.get(exp.app);
    // Application FOMs plus every active modifier's FOMs and criteria
    // (Section 4.5's architecture-specific evaluation).
    prep.fom_specs = app_def.foms();
    prep.criteria = app_def.success_criteria_list();
    for (const auto& mod_name : exp.modifiers) {
      auto modifier = ModifierRegistry::instance().get(mod_name);
      auto extra_foms = modifier->foms();
      prep.fom_specs.insert(prep.fom_specs.end(), extra_foms.begin(),
                            extra_foms.end());
      auto extra_criteria = modifier->success_criteria();
      prep.criteria.insert(prep.criteria.end(), extra_criteria.begin(),
                           extra_criteria.end());
    }
  }

  std::vector<analysis::FomExtractTask> tasks(preps.size());
  for (std::size_t i = 0; i < preps.size(); ++i) {
    if (!preps[i].ran) continue;
    tasks[i].specs = &preps[i].fom_specs;
    tasks[i].criteria = &preps[i].criteria;
    tasks[i].output = &preps[i].output;
  }
  auto extracted = analysis::extract_foms_batch(tasks, request.threads);

  AnalyzeReport report;
  report.results.reserve(prepared_.size());
  for (std::size_t i = 0; i < prepared_.size(); ++i) {
    const auto& exp = prepared_[i];
    ExperimentResult result;
    result.app = exp.app;
    result.workload = exp.workload;
    result.name = exp.name;
    result.variables = exp.variables;
    if (preps[i].ran) {
      result.ran = true;
      result.foms = std::move(extracted[i].foms);
      result.success = extracted[i].success;
      result.output = std::move(preps[i].output);
    }
    report.results.push_back(std::move(result));
  }
  return report;
}

}  // namespace benchpark::ramble
