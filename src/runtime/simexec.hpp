// Simulated (and native) benchmark execution.
//
// `run_simulated` models what a benchmark binary would print when launched
// on one of the registry systems with a given allocation: compute phases
// come from the system's roofline model, communication from the collective
// model, and run-to-run noise from the system's seeded RNG — so the same
// experiment on the same system reproduces identical output (functional
// reproducibility), while different systems produce the cross-system
// performance differences the paper's workflow exists to compare.
//
// `run_native` runs the real kernels in-process on the host machine.
//
// The Section 7.1 cloud story is modeled too: a benchmark that links the
// vendor math library dies with an illegal-instruction error on a system
// whose hardware lacks a feature the library probes for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/system/perf_model.hpp"
#include "src/system/system.hpp"

namespace benchpark::runtime {

struct RunParams {
  std::string app;     // "saxpy", "amg2023", "stream", "osu-bcast"
  std::uint64_t n = 0; // problem size (elements or grid points/dim)
  int n_nodes = 1;
  int n_ranks = 1;
  int n_threads = 1;
  bool use_gpu = false;
  /// Links the system's vendor math library (BLAS); amg2023 does.
  bool uses_math_library = false;
  /// Extra salt so repeated experiments see fresh noise.
  std::uint64_t repetition = 0;
  /// Environment the job runs with. Annotation-aware binaries react to
  /// CALI_CONFIG (Caliper region profile on stdout) and
  /// BENCHPARK_PERF_COUNTERS (modeled hardware counters) — the hooks the
  /// ramble modifiers use.
  std::map<std::string, std::string> env;
};

struct RunOutcome {
  bool success = false;
  int exit_code = 0;
  double elapsed_seconds = 0;   // modeled (or real) wall time
  std::string output;           // what the job printed
};

/// What one retried execution produced.
struct ExecResult {
  RunOutcome outcome;
  int attempts = 1;
  /// Total modeled backoff wait (never wall-clock).
  double retry_wait_seconds = 0;
};

/// Run `run_once` through the "experiment.exec" fault site keyed by
/// `key` (the experiment name) behind support::retry_transient.
/// Transient failures (injected, thrown by `run_once`, or a run exiting
/// 75, EX_TEMPFAIL) are retried with support::retry_backoff_seconds
/// waits, then surface as the final failed outcome; a PermanentError
/// ends the run with exit 70. Injected latency is added to the outcome's
/// modeled elapsed time. Every decision is a pure function of (plan
/// seed, key, attempt), so results are identical no matter how many
/// experiments run concurrently.
ExecResult run_with_retry(const std::function<RunOutcome()>& run_once,
                          const std::string& key);

/// Fill derived defaults (uses_math_library by app name) and validate.
RunParams normalized(RunParams params);

/// Model a run on `system`. Throws SystemError for impossible requests
/// (more ranks than cores, GPUs on a CPU-only machine).
RunOutcome run_simulated(const system::SystemDescription& system,
                         const RunParams& params);

/// Actually run the kernel on this machine (saxpy/stream/amg2023 only).
RunOutcome run_native(const RunParams& params);

/// A pluggable simulation model for an application. Registered models are
/// consulted before the builtins, so adding a benchmark to Benchpark
/// (Section 4) needs no changes to this module: supply the app
/// definition, the package recipe, and a model.
using SimModel = std::function<RunOutcome(
    const system::SystemDescription&, const RunParams&)>;

void register_sim_model(const std::string& app, SimModel model);
[[nodiscard]] bool has_sim_model(const std::string& app);

}  // namespace benchpark::runtime
