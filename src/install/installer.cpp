#include "src/install/installer.hpp"

#include <algorithm>
#include <unordered_map>

#include "src/archspec/microarch.hpp"
#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/hash.hpp"
#include "src/support/parallel.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::install {

std::string_view install_source_name(InstallSource s) {
  switch (s) {
    case InstallSource::source_build: return "source";
    case InstallSource::binary_cache: return "cache";
    case InstallSource::external: return "external";
    case InstallSource::already: return "installed";
  }
  return "?";
}

// -------------------------------------------------------------- InstallTree

InstallTree::InstallTree(std::string root) : root_(std::move(root)) {}

InstallTree::InstallTree(InstallTree&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  root_ = std::move(other.root_);
  records_ = std::move(other.records_);
}

InstallTree& InstallTree::operator=(InstallTree&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    root_ = std::move(other.root_);
    records_ = std::move(other.records_);
  }
  return *this;
}

bool InstallTree::installed(const spec::Spec& concrete) const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.count(concrete.dag_hash()) > 0;
}

const InstallRecord* InstallTree::find(std::string_view dag_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(std::string(dag_hash));
  return it == records_.end() ? nullptr : &it->second;
}

std::optional<InstallRecord> InstallTree::lookup(
    std::string_view dag_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(std::string(dag_hash));
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::size_t InstallTree::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<const InstallRecord*> InstallTree::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const InstallRecord*> out;
  out.reserve(records_.size());
  for (const auto& [hash, record] : records_) out.push_back(&record);
  return out;
}

std::string InstallTree::prefix_for(const spec::Spec& concrete) const {
  return root_ + "/" + concrete.target() + "/" + concrete.name() + "-" +
         concrete.concrete_version().str() + "-" + concrete.dag_hash();
}

void InstallTree::add(InstallRecord record) {
  auto hash = record.spec.dag_hash();
  std::lock_guard<std::mutex> lock(mu_);
  records_.insert_or_assign(hash, std::move(record));
}

// ---------------------------------------------------------------- Installer

Installer::Installer(pkg::RepoStack repos, InstallTree* tree,
                     buildcache::BinaryCache* cache)
    : repos_(std::move(repos)), tree_(tree), cache_(cache) {
  if (!tree_) throw Error("installer requires an install tree");
}

std::vector<const spec::Spec*> Installer::build_order(
    const spec::Spec& root) {
  std::vector<const spec::Spec*> order;
  std::vector<std::string> seen;
  // Post-order DFS: dependencies before dependents.
  auto visit = [&](auto&& self, const spec::Spec& s) -> void {
    auto hash = s.dag_hash();
    if (std::find(seen.begin(), seen.end(), hash) != seen.end()) return;
    seen.push_back(hash);
    for (const auto& dep : s.dependencies()) self(self, dep);
    order.push_back(&s);
  };
  visit(visit, root);
  return order;
}

InstallReport Installer::install(const spec::Spec& concrete,
                                 const InstallOptions& options) {
  if (!concrete.concrete()) {
    throw Error("installer requires a concrete spec; run the concretizer "
                "first: '" + concrete.str() + "'");
  }
  obs::ScopedSpan install_span("install", "install");
  if (install_span.active()) {
    install_span.annotate("root", concrete.short_str());
  }
  const auto order = build_order(concrete);
  const std::size_t count = order.size();

  // Resolve each node's dependency edges to closure indices once (hashes
  // are recomputed otherwise), then stratify into wavefronts: a node's
  // depth is one past its deepest dependency, so every node in a wave is
  // independent of every other and of later waves' members.
  std::vector<std::string> hashes(count);
  std::unordered_map<std::string_view, std::size_t> index;
  for (std::size_t i = 0; i < count; ++i) {
    hashes[i] = order[i]->dag_hash();
    index.emplace(hashes[i], i);
  }
  std::vector<std::vector<std::size_t>> dep_indices(count);
  std::vector<std::size_t> depth(count, 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < count; ++i) {
    for (const auto& dep : order[i]->dependencies()) {
      auto it = index.find(dep.dag_hash());
      if (it == index.end()) continue;  // defensive: closure is complete
      dep_indices[i].push_back(it->second);
      depth[i] = std::max(depth[i], depth[it->second] + 1);
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  std::vector<std::vector<std::size_t>> waves(max_depth + 1);
  for (std::size_t i = 0; i < count; ++i) waves[depth[i]].push_back(i);

  // Install each wavefront with its independent nodes spread across the
  // pool; per-node records and logs land in closure slots so the report
  // is assembled in deterministic topological order afterwards.
  const int threads = options.engine_threads > 0
                          ? options.engine_threads
                          : support::ThreadPool::default_threads();
  std::vector<InstallRecord> records(count);
  std::vector<std::string> logs(count);
  // Per-node failure isolation: a failed node poisons only its dependents
  // (each element is written by exactly one worker).
  std::vector<char> failed(count, 0);
  std::vector<std::exception_ptr> errors(count);
  for (const auto& wave : waves) {
    support::parallel_for(
        wave.size(), threads, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w) {
            std::size_t i = wave[w];
            std::size_t bad_dep = count;
            for (std::size_t d : dep_indices[i]) {
              if (failed[d]) { bad_dep = d; break; }
            }
            if (bad_dep != count) {
              failed[i] = 1;
              logs[i] = "[x] " + order[i]->short_str() +
                        " skipped: dependency '" + order[bad_dep]->name() +
                        "' failed\n";
              continue;
            }
            try {
              records[i] = install_one(*order[i], options, logs[i]);
            } catch (const std::exception& e) {
              failed[i] = 1;
              errors[i] = std::current_exception();
              logs[i] += "[x] " + order[i]->short_str() + " failed: " +
                         e.what() + "\n";
            }
          }
        });
  }

  InstallReport report;
  std::vector<double> finish(count, 0.0);
  std::size_t failures = 0;
  std::string first_failure;
  for (std::size_t i = 0; i < count; ++i) {
    report.build_log += logs[i];
    if (failed[i]) {
      ++failures;
      if (first_failure.empty() && errors[i]) {
        try {
          std::rethrow_exception(errors[i]);
        } catch (const std::exception& e) {
          first_failure = e.what();
        }
      }
      continue;
    }
    double deps_done = 0.0;
    for (std::size_t d : dep_indices[i]) {
      deps_done = std::max(deps_done, finish[d]);
    }
    finish[i] = deps_done + records[i].simulated_seconds;
    report.critical_path_seconds =
        std::max(report.critical_path_seconds, finish[i]);
    report.total_simulated_seconds += records[i].simulated_seconds;
    report.total_attempts += static_cast<std::size_t>(
        std::max(0, records[i].attempts));
    report.retry_wait_seconds += records[i].retry_wait_seconds;
    switch (records[i].source) {
      case InstallSource::source_build: ++report.from_source; break;
      case InstallSource::binary_cache: ++report.from_cache; break;
      case InstallSource::external: ++report.externals; break;
      case InstallSource::already: ++report.already_installed; break;
    }
    report.installed.push_back(std::move(records[i]));
  }
  if (failures > 0) {
    throw PermanentError(
        "install of '" + concrete.short_str() + "' failed: " +
        std::to_string(failures) + " of " + std::to_string(count) +
        " packages failed or were skipped" +
        (first_failure.empty() ? "" : ("; first failure: " + first_failure)));
  }
  return report;
}

InstallRecord Installer::install_one(const spec::Spec& concrete,
                                     const InstallOptions& options,
                                     std::string& log) {
  InstallRecord record;
  record.spec = concrete;
  const std::string hash = concrete.dag_hash();
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan pkg_span(
      collector,
      collector.enabled() ? "pkg:" + concrete.name() : std::string(),
      "install");
  if (pkg_span.active()) pkg_span.annotate("hash", hash);

  if (auto existing = tree_->lookup(hash)) {
    record = std::move(*existing);
    record.source = InstallSource::already;
    record.simulated_seconds = 0.0;
    record.attempts = 0;
    record.retry_wait_seconds = 0.0;
    log += "[+] " + concrete.short_str() + " already installed\n";
    pkg_span.annotate("outcome", "already");
    return record;
  }

  if (concrete.is_external()) {
    record.prefix = concrete.external_prefix();
    record.source = InstallSource::external;
    record.simulated_seconds = 0.0;
    record.attempts = 0;
    pkg_span.annotate("outcome", "external");
    log += "[e] " + concrete.short_str() + " external at " + record.prefix +
           "\n";
    tree_->add(record);
    return record;
  }

  record.prefix = tree_->prefix_for(concrete);

  if (cache_) {
    try {
      if (auto entry = cache_->fetch(concrete)) {
        record.source = InstallSource::binary_cache;
        record.simulated_seconds =
            cache_->fetch_cost_seconds(entry->size_bytes) +
            entry->injected_latency_seconds;
        log += "[c] " + concrete.short_str() +
               " fetched from binary cache (" +
               support::format_double(record.simulated_seconds, 3) + "s)\n";
        if (pkg_span.active()) {
          pkg_span.annotate("outcome", "cache");
          // One attempt span per report attempt (a cache fetch counts 1).
          collector.emit_span("attempt", "install", record.simulated_seconds,
                              {{"package", concrete.name()},
                               {"attempt", "1"},
                               {"result", "cache"}});
        }
        tree_->add(record);
            return record;
      }
    } catch (const Error& e) {
      // A mirror that keeps failing must not fail the install: fall back
      // to a source build, exactly like a cache miss.
      log += "[w] " + concrete.short_str() + " cache fetch failed (" +
             e.what() + "); building from source\n";
    }
  }

  const pkg::PackageRecipe& recipe = repos_.get(concrete.name());
  record.build_args = recipe.build_args(concrete);
  try {
    record.arch_flags = archspec::optimization_flags(
        concrete.compiler()->name,
        spec::Version(concrete.compiler()->versions.ranges()[0]
                          .exact_version()
                          ->str()),
        concrete.target());
  } catch (const SystemError&) {
    record.arch_flags = "-O2";  // unknown target/compiler pairing
  }
  record.source = InstallSource::source_build;
  // Amdahl-style parallel build: 30% serial (configure + link), the rest
  // scales with -j.
  double base = recipe.build_cost_seconds();
  double jobs = std::max(1, options.build_jobs);
  double step_seconds = base * (0.3 + 0.7 / jobs);

  // The build step itself, behind the fault gate: transient failures are
  // retried with exponential backoff (modeled, deterministic); a
  // permanent fault or exhausted retries fails the package.
  double injected_latency = 0.0;
  try {
    injected_latency = support::retry_transient(
        [&](int attempt) {
          record.attempts = attempt;
          return support::fault_hit("install.build_step", hash,
                                    static_cast<std::uint64_t>(attempt));
        },
        [&](int attempt, const TransientError& e) {
          const double wait = support::retry_backoff_seconds(hash, attempt);
          record.retry_wait_seconds += wait;
          log += "[r] " + concrete.short_str() + " build attempt " +
                 std::to_string(attempt) + " failed (" + e.what() +
                 "); retrying in " + support::format_double(wait, 3) + "s\n";
        });
  } catch (const TransientError& e) {
    throw PermanentError("build of '" + concrete.short_str() +
                         "' failed after " + std::to_string(record.attempts) +
                         " attempts: " + e.what());
  }
  record.simulated_seconds =
      step_seconds + record.retry_wait_seconds + injected_latency;
  if (pkg_span.active()) {
    pkg_span.annotate("outcome", "source");
    // Emit attempt spans only after the build succeeded, so the trace's
    // "attempt" count equals report.total_attempts exactly (failed
    // packages contribute no attempts to the report). Backoff waits are
    // deterministic, so pre-success attempts are reconstructed here.
    for (int a = 1; a <= record.attempts; ++a) {
      const bool final_attempt = a == record.attempts;
      double modeled = final_attempt
                           ? step_seconds + injected_latency
                           : support::retry_backoff_seconds(hash, a);
      collector.emit_span("attempt", "install", modeled,
                          {{"package", concrete.name()},
                           {"attempt", std::to_string(a)},
                           {"result", final_attempt ? "built" : "retried"}});
    }
  }
  log += "[b] " + concrete.short_str() + " built from source with " +
         std::string(pkg::build_system_name(recipe.build_system())) + " (" +
         support::format_double(record.simulated_seconds, 4) + "s, " +
         record.arch_flags +
         (record.build_args.empty()
              ? std::string()
              : ", args: " + support::join(record.build_args, " ")) +
         (record.attempts > 1
              ? ", attempts: " + std::to_string(record.attempts)
              : std::string()) +
         ")\n";
  tree_->add(record);

  if (cache_) {
    try {
      cache_->push(concrete, simulated_artifact_size(concrete));
    } catch (const Error& e) {
      // The rolling cache is best-effort: a failed publish never fails
      // the install, the next builder simply rebuilds from source.
      log += "[w] " + concrete.short_str() + " cache push failed (" +
             e.what() + ")\n";
    }
  }
  return record;
}

std::uint64_t simulated_artifact_size(const spec::Spec& concrete) {
  // Deterministic pseudo-size in [1 MiB, 257 MiB) keyed by the hash.
  auto h = support::fnv1a(concrete.dag_hash());
  return (1u << 20) + (h % (256ull << 20));
}

}  // namespace benchpark::install
