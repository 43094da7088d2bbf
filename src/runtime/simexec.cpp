#include "src/runtime/simexec.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/benchmarks/fft.hpp"
#include "src/benchmarks/gemm.hpp"
#include "src/benchmarks/multigrid.hpp"
#include "src/benchmarks/ptrans.hpp"
#include "src/benchmarks/randomaccess.hpp"
#include "src/benchmarks/saxpy.hpp"
#include "src/benchmarks/stream.hpp"
#include "src/obs/trace.hpp"
#include "src/system/beff.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/hash.hpp"
#include "src/support/rng.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::runtime {

using support::format_double;
using system::Collective;
using system::PerfModel;
using system::SystemDescription;

RunParams normalized(RunParams params) {
  if (params.app.empty()) throw SystemError("run has no application");
  if (params.n == 0) params.n = 1024;
  if (params.n_nodes < 1) params.n_nodes = 1;
  if (params.n_ranks < 1) params.n_ranks = 1;
  if (params.n_threads < 1) params.n_threads = 1;
  if (params.app == "amg2023") params.uses_math_library = true;
  return params;
}

namespace {

support::Rng make_rng(const SystemDescription& system,
                      const RunParams& params) {
  support::Hasher h;
  h.update(system.name);
  h.update(params.app);
  h.update(params.n);
  h.update(static_cast<std::uint64_t>(params.n_ranks));
  h.update(static_cast<std::uint64_t>(params.n_threads));
  h.update(static_cast<std::uint64_t>(params.n_nodes));
  h.update(params.repetition);
  return support::Rng(system.seed ^ h.digest());
}

void validate_allocation(const SystemDescription& system,
                         const RunParams& params) {
  if (params.n_nodes > system.num_nodes) {
    throw SystemError("requested " + std::to_string(params.n_nodes) +
                      " nodes; " + system.name + " has " +
                      std::to_string(system.num_nodes));
  }
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  if (ranks_per_node * params.n_threads > system.cpu.cores_per_node) {
    throw SystemError(
        "oversubscribed node on " + system.name + ": " +
        std::to_string(ranks_per_node) + " ranks x " +
        std::to_string(params.n_threads) + " threads > " +
        std::to_string(system.cpu.cores_per_node) + " cores");
  }
  if (params.use_gpu && !system.has_gpu()) {
    throw SystemError("system '" + system.name + "' has no GPUs");
  }
}

/// The Section 7.1 failure: the math library probes CPU features at init
/// and takes a code path using an instruction this hardware lacks.
RunOutcome math_library_crash(const SystemDescription& system) {
  RunOutcome outcome;
  outcome.success = false;
  outcome.exit_code = 132;  // SIGILL
  outcome.elapsed_seconds = 0.01;
  outcome.output =
      "vendor-mathlib: optimized path selected: requires "
      "hardware feature '" +
      *system.disabled_features.begin() +
      "'\n"
      "Illegal instruction (core dumped)\n";
  return outcome;
}

RunOutcome simulate_saxpy(const SystemDescription& system,
                          const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  std::uint64_t per_rank =
      std::max<std::uint64_t>(1, params.n / static_cast<std::uint64_t>(
                                                params.n_ranks));
  double compute =
      params.use_gpu
          ? model.gpu_kernel_seconds(benchmarks::saxpy_flops(per_rank),
                                     benchmarks::saxpy_bytes(per_rank),
                                     ranks_per_node)
          : model.cpu_kernel_seconds(benchmarks::saxpy_flops(per_rank),
                                     benchmarks::saxpy_bytes(per_rank),
                                     ranks_per_node, params.n_threads);
  double comm = 0;
  if (params.n_ranks > 1) {
    comm += model.collective_seconds(Collective::bcast, params.n_ranks, 16);
    comm += model.collective_seconds(Collective::allreduce, params.n_ranks,
                                     8);
  }
  double elapsed = (compute + comm) * rng.noise_factor(system.noise_sigma);

  benchmarks::SaxpyResult r;
  r.n = params.n;
  r.threads = params.n_threads;
  r.elapsed_seconds = elapsed;
  r.gflops = 2.0 * static_cast<double>(params.n) / elapsed / 1e9;
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = elapsed;
  outcome.output = benchmarks::saxpy_output(r);
  return outcome;
}

RunOutcome simulate_amg(const SystemDescription& system,
                        const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  // 2-D domain decomposition: each rank owns (n/sqrt(p))^2 points.
  double p = params.n_ranks;
  double per_rank_n =
      static_cast<double>(params.n) / std::sqrt(std::max(1.0, p));
  auto local = static_cast<std::size_t>(std::max(4.0, per_rank_n));

  double cycle_compute =
      params.use_gpu
          ? model.gpu_kernel_seconds(benchmarks::multigrid_cycle_flops(local),
                                     benchmarks::multigrid_cycle_bytes(local),
                                     ranks_per_node)
          : model.cpu_kernel_seconds(
                benchmarks::multigrid_cycle_flops(local),
                benchmarks::multigrid_cycle_bytes(local), ranks_per_node,
                params.n_threads);
  double cycle_comm = 0;
  if (params.n_ranks > 1) {
    // Halo exchange with 4 neighbors on every level (factor 2 for depth)
    // plus the residual-norm allreduce.
    std::uint64_t halo_bytes =
        static_cast<std::uint64_t>(4 * per_rank_n * sizeof(double));
    cycle_comm += 2.0 * 4.0 * model.p2p_seconds(halo_bytes);
    cycle_comm +=
        model.collective_seconds(Collective::allreduce, params.n_ranks, 8);
  }

  // V(2,2) multigrid: ~0.1 residual reduction per cycle to 1e-8.
  int cycles = 9 + static_cast<int>(rng.below(3));
  double setup = 0.4 * cycle_compute * cycles / 9.0 +
                 (params.n_ranks > 1
                      ? model.collective_seconds(Collective::allgather,
                                                 params.n_ranks, 64)
                      : 0.0);
  double solve = (cycle_compute + cycle_comm) * cycles;
  setup *= rng.noise_factor(system.noise_sigma);
  solve *= rng.noise_factor(system.noise_sigma);

  benchmarks::MultigridResult r;
  r.n = params.n;
  r.levels = static_cast<int>(std::log2(std::max<std::uint64_t>(2, params.n)));
  r.cycles = cycles;
  r.converged = true;
  r.setup_seconds = setup;
  r.solve_seconds = solve;
  r.initial_residual = 1.0;
  r.final_residual = std::pow(0.1, cycles);

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = setup + solve;
  outcome.output = benchmarks::multigrid_output(r);
  return outcome;
}

RunOutcome simulate_stream(const SystemDescription& system,
                           const RunParams& params, support::Rng& rng) {
  // STREAM is per-node: report the node's effective bandwidth.
  double peak = system.cpu.mem_bw_gbs;
  int cores_used = std::min(params.n_threads, system.cpu.cores_per_node);
  double fraction = std::min(
      1.0, static_cast<double>(cores_used) /
               std::max(1, system.cpu.cores_per_node / 4));
  double bw = peak * fraction;

  benchmarks::StreamResult r;
  r.n = params.n;
  r.threads = params.n_threads;
  // Copy/scale slightly beat add/triad (2 vs 3 streams).
  r.bandwidth_gbs = {bw * 1.03 * rng.noise_factor(system.noise_sigma),
                     bw * 1.02 * rng.noise_factor(system.noise_sigma),
                     bw * 0.98 * rng.noise_factor(system.noise_sigma),
                     bw * rng.noise_factor(system.noise_sigma)};
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds =
      10.0 * benchmarks::stream_triad_bytes(params.n) / (bw * 1e9);
  outcome.output = benchmarks::stream_output(r);
  return outcome;
}

RunOutcome simulate_gemm(const SystemDescription& system,
                         const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  // 2-D block decomposition: each rank owns an (n/sqrt(p))^2 tile and
  // multiplies full k panels through it.
  double p = std::max(1.0, static_cast<double>(params.n_ranks));
  std::size_t local = static_cast<std::size_t>(std::max(
      8.0, static_cast<double>(params.n) / std::sqrt(p)));
  double flops = benchmarks::gemm_flops(local) * std::sqrt(p);
  double bytes = benchmarks::gemm_bytes(local) * std::sqrt(p);
  double compute =
      params.use_gpu
          ? model.gpu_kernel_seconds(flops, bytes, ranks_per_node)
          : model.cpu_kernel_seconds(flops, bytes, ranks_per_node,
                                     params.n_threads);
  double comm = 0;
  if (params.n_ranks > 1) {
    // SUMMA-style panel broadcasts along rows and columns.
    std::uint64_t panel_bytes = static_cast<std::uint64_t>(
        static_cast<double>(local) * benchmarks::kGemmKC * sizeof(double));
    comm += 2.0 * model.collective_seconds(Collective::bcast, params.n_ranks,
                                           panel_bytes);
  }
  double elapsed = (compute + comm) * rng.noise_factor(system.noise_sigma);

  benchmarks::GemmResult r;
  r.n = params.n;
  r.threads = params.n_threads;
  r.elapsed_seconds = elapsed;
  r.gflops = benchmarks::gemm_flops(params.n) / elapsed / 1e9;
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = elapsed;
  outcome.output = benchmarks::gemm_output(r);
  return outcome;
}

RunOutcome simulate_ptrans(const SystemDescription& system,
                           const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  double p = std::max(1.0, static_cast<double>(params.n_ranks));
  std::size_t local = static_cast<std::size_t>(std::max(
      8.0, static_cast<double>(params.n) / std::sqrt(p)));
  double compute = model.cpu_kernel_seconds(
      0.0, benchmarks::ptrans_bytes(local), ranks_per_node,
      params.n_threads);
  double comm = 0;
  if (params.n_ranks > 1) {
    // Distributed transpose is an all-to-all of the local tiles.
    std::uint64_t tile_bytes = static_cast<std::uint64_t>(
        benchmarks::ptrans_bytes(local) / (2.0 * p));
    comm += (p - 1.0) * model.p2p_seconds(tile_bytes);
  }
  double elapsed = (compute + comm) * rng.noise_factor(system.noise_sigma);

  benchmarks::PtransResult r;
  r.n = params.n;
  r.threads = params.n_threads;
  r.elapsed_seconds = elapsed;
  r.bandwidth_gbs = benchmarks::ptrans_bytes(params.n) / elapsed / 1e9;
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = elapsed;
  outcome.output = benchmarks::ptrans_output(r);
  return outcome;
}

RunOutcome simulate_fft(const SystemDescription& system,
                        const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  constexpr std::size_t kBatch = 8;
  std::uint64_t per_rank = std::max<std::uint64_t>(
      2, params.n / static_cast<std::uint64_t>(params.n_ranks));
  double flops = benchmarks::fft_flops(per_rank) * kBatch;
  double bytes = benchmarks::fft_bytes(per_rank) * kBatch;
  double compute =
      params.use_gpu
          ? model.gpu_kernel_seconds(flops, bytes, ranks_per_node)
          : model.cpu_kernel_seconds(flops, bytes, ranks_per_node,
                                     params.n_threads);
  double comm = 0;
  if (params.n_ranks > 1) {
    // Distributed FFT pays one transpose-style exchange per butterfly
    // group that crosses rank boundaries.
    std::uint64_t exch = static_cast<std::uint64_t>(
        2.0 * sizeof(double) * static_cast<double>(per_rank));
    comm += std::log2(static_cast<double>(params.n_ranks)) *
            model.p2p_seconds(exch);
  }
  double elapsed = (compute + comm) * rng.noise_factor(system.noise_sigma);

  benchmarks::FftResult r;
  r.n = params.n;
  r.batch = kBatch;
  r.threads = params.n_threads;
  r.elapsed_seconds = elapsed;
  r.gflops = benchmarks::fft_flops(params.n) * kBatch / elapsed / 1e9;
  r.max_roundtrip_error = 1e-15;
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = elapsed;
  outcome.output = benchmarks::fft_output(r);
  return outcome;
}

RunOutcome simulate_randomaccess(const SystemDescription& system,
                                 const RunParams& params,
                                 support::Rng& rng) {
  PerfModel model(system);
  int ranks_per_node =
      (params.n_ranks + params.n_nodes - 1) / params.n_nodes;
  std::uint64_t updates = 4 * params.n;
  // Random 8-byte RMWs touch a full line each way; the dependent-miss
  // pipeline reaches only a fraction of stream bandwidth.
  double effective_bytes = 8.0 * benchmarks::randomaccess_bytes(updates);
  double compute = model.cpu_kernel_seconds(0.0, effective_bytes,
                                            ranks_per_node, params.n_threads);
  double comm = 0;
  if (params.n_ranks > 1) {
    // Bucketed remote updates exchanged every 1024 locals.
    comm += static_cast<double>(updates / 1024) *
            model.p2p_seconds(1024 * sizeof(std::uint64_t)) /
            static_cast<double>(params.n_ranks);
  }
  double elapsed = (compute + comm) * rng.noise_factor(system.noise_sigma);

  benchmarks::RandomAccessResult r;
  r.table_size = params.n;
  r.updates = updates;
  r.threads = params.n_threads;
  r.elapsed_seconds = elapsed;
  r.gups = static_cast<double>(updates) / elapsed / 1e9;
  r.verified = true;

  RunOutcome outcome;
  outcome.success = true;
  outcome.elapsed_seconds = elapsed;
  outcome.output = benchmarks::randomaccess_output(r);
  return outcome;
}

RunOutcome simulate_beff(const SystemDescription& system,
                         const RunParams& params, support::Rng& rng) {
  using benchpark::system::beff_output;
  using benchpark::system::run_beff;
  benchpark::system::BeffResult r = run_beff(system, params.n_ranks);
  double noise = rng.noise_factor(system.noise_sigma);
  r.beff_mbs /= noise;
  r.latency_us *= noise;

  RunOutcome outcome;
  outcome.success = true;
  // The real harness repeats the sweep many times per pattern.
  outcome.elapsed_seconds = r.sweep_seconds * 100 * noise;
  outcome.output = beff_output(r);
  return outcome;
}

RunOutcome simulate_osu_bcast(const SystemDescription& system,
                              const RunParams& params, support::Rng& rng) {
  PerfModel model(system);
  RunOutcome outcome;
  outcome.output = "# OSU MPI Broadcast Latency Test\n# Size  Avg Latency(us)\n";
  double total = 0;
  for (std::uint64_t size = 8; size <= std::max<std::uint64_t>(8, params.n);
       size *= 4) {
    double t = model.collective_seconds(Collective::bcast, params.n_ranks,
                                        size) *
               rng.noise_factor(system.noise_sigma);
    total += t;
    outcome.output += support::pad_left(std::to_string(size), 10) + "  " +
                      format_double(t * 1e6, 5) + "\n";
  }
  outcome.success = true;
  outcome.elapsed_seconds = total * 1000;  // 1000 iterations per size
  outcome.output += "Kernel done\n";
  return outcome;
}

}  // namespace

namespace {

std::map<std::string, SimModel>& sim_models() {
  static std::map<std::string, SimModel> models;
  return models;
}

}  // namespace

void register_sim_model(const std::string& app, SimModel model) {
  sim_models()[app] = std::move(model);
}

bool has_sim_model(const std::string& app) {
  return sim_models().count(app) > 0;
}

namespace {

/// Annotation hooks: what a Caliper-annotated, counter-aware binary
/// appends to stdout when the corresponding environment variables are
/// set (the ramble modifiers' contract).
void append_annotations(const SystemDescription& system,
                        const RunParams& params, RunOutcome& outcome) {
  if (!outcome.success) return;
  double elapsed = outcome.elapsed_seconds;
  if (params.env.count("CALI_CONFIG")) {
    // A simple two-region split: kernel-dominant with an MPI tail that
    // grows with rank count (consistent with the collective model).
    double mpi_share =
        params.n_ranks > 1
            ? std::min(0.35, 0.02 * std::log2((double)params.n_ranks))
            : 0.0;
    double kernel = elapsed * (1.0 - mpi_share) * 0.92;
    double mpi = elapsed * mpi_share;
    outcome.output += "caliper: region profile\n";
    outcome.output += "main " + format_double(elapsed, 6) + " s\n";
    outcome.output += "main/kernel " + format_double(kernel, 6) + " s\n";
    if (mpi > 0) {
      outcome.output += "main/mpi " + format_double(mpi, 6) + " s\n";
    }
  }
  if (params.env.count("BENCHPARK_PERF_COUNTERS")) {
    // Modeled counters from the node hardware: busy cores x frequency,
    // an IPC drawn from the kernel's memory-boundedness, L3 misses from
    // the bytes the kernel streams.
    int ranks_per_node =
        (params.n_ranks + params.n_nodes - 1) / std::max(1, params.n_nodes);
    int cores = std::min(ranks_per_node * params.n_threads,
                         system.cpu.cores_per_node);
    double cycles = elapsed * system.cpu.ghz * 1e9 * std::max(1, cores);
    double ipc = params.app == "stream" ? 0.6 : 1.4;
    double instructions = cycles * ipc;
    double l3_misses =
        static_cast<double>(params.n) * (params.app == "saxpy" ? 12 : 48) /
        64.0;  // bytes / cache line
    outcome.output += "counter cycles: " +
                      std::to_string(static_cast<long long>(cycles)) + "\n";
    outcome.output += "counter instructions: " +
                      std::to_string(static_cast<long long>(instructions)) +
                      "\n";
    outcome.output += "counter l3_misses: " +
                      std::to_string(static_cast<long long>(l3_misses)) +
                      "\n";
    outcome.output += "counter ipc: " + format_double(ipc, 3) + "\n";
  }
}

}  // namespace

namespace {

/// A failed outcome carrying a fault's message, the way a scheduler
/// reports a crashed binary.
RunOutcome failed_outcome(int exit_code, const Error& e) {
  RunOutcome outcome;
  outcome.exit_code = exit_code;
  outcome.output = std::string(e.what()) + "\n";
  return outcome;
}

/// A run that reported EX_TEMPFAIL, thrown so the retry gate treats it
/// like an injected transient fault; carries the outcome to report if
/// the budget runs out.
struct TempfailOutcome : TransientError {
  explicit TempfailOutcome(RunOutcome o)
      : TransientError(o.output), outcome(std::move(o)) {}
  RunOutcome outcome;
};

RunOutcome run_simulated_impl(const SystemDescription& system,
                              const RunParams& raw_params) {
  RunParams params = normalized(raw_params);
  validate_allocation(system, params);

  // Fault gate for the launch itself (keyed by app, attempt = repetition,
  // so "fail repetition 1 only" plans model a flaky first run). Injected
  // failures surface through the outcome — BSD-style exit 75 (tempfail)
  // for transient, 70 (internal software error) for permanent — never as
  // exceptions, matching how a real scheduler sees a crashed binary.
  double injected_latency = 0.0;
  try {
    injected_latency =
        support::fault_hit("runtime.exec", params.app, params.repetition + 1);
  } catch (const TransientError& e) {
    return failed_outcome(75, e);
  } catch (const PermanentError& e) {
    return failed_outcome(70, e);
  }

  if (params.uses_math_library && !system.disabled_features.empty()) {
    return math_library_crash(system);
  }

  if (auto it = sim_models().find(params.app); it != sim_models().end()) {
    RunOutcome outcome = it->second(system, params);
    outcome.elapsed_seconds += injected_latency;
    append_annotations(system, params, outcome);
    return outcome;
  }

  auto rng = make_rng(system, params);
  RunOutcome outcome;
  if (params.app == "saxpy") {
    outcome = simulate_saxpy(system, params, rng);
  } else if (params.app == "amg2023") {
    outcome = simulate_amg(system, params, rng);
  } else if (params.app == "stream") {
    outcome = simulate_stream(system, params, rng);
  } else if (params.app == "osu-bcast") {
    outcome = simulate_osu_bcast(system, params, rng);
  } else if (params.app == "gemm") {
    outcome = simulate_gemm(system, params, rng);
  } else if (params.app == "ptrans") {
    outcome = simulate_ptrans(system, params, rng);
  } else if (params.app == "fft") {
    outcome = simulate_fft(system, params, rng);
  } else if (params.app == "randomaccess") {
    outcome = simulate_randomaccess(system, params, rng);
  } else if (params.app == "beff") {
    outcome = simulate_beff(system, params, rng);
  } else {
    throw SystemError("no simulation model for application '" + params.app +
                      "'");
  }
  outcome.elapsed_seconds += injected_latency;
  append_annotations(system, params, outcome);
  return outcome;
}

}  // namespace

ExecResult run_with_retry(const std::function<RunOutcome()>& run_once,
                          const std::string& key) {
  ExecResult result;
  try {
    result.outcome = support::retry_transient(
        [&](int attempt) {
          result.attempts = attempt;
          const double injected_latency = support::fault_hit(
              "experiment.exec", key, static_cast<std::uint64_t>(attempt));
          RunOutcome outcome = run_once();
          outcome.elapsed_seconds += injected_latency;
          // The run itself reported a transient failure (e.g. the
          // "runtime.exec" fault site) — retry it like a flaky node.
          if (!outcome.success && outcome.exit_code == 75) {
            throw TempfailOutcome(std::move(outcome));
          }
          return outcome;
        },
        [&](int attempt, const TransientError&) {
          result.retry_wait_seconds +=
              support::retry_backoff_seconds(key, attempt);
        });
  } catch (TempfailOutcome& e) {
    result.outcome = std::move(e.outcome);
  } catch (const TransientError& e) {
    result.outcome = failed_outcome(75, e);  // EX_TEMPFAIL: retries exhausted
  } catch (const PermanentError& e) {
    result.outcome = failed_outcome(70, e);  // EX_SOFTWARE: not worth retrying
  }
  return result;
}

RunOutcome run_simulated(const SystemDescription& system,
                         const RunParams& raw_params) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(
      collector,
      collector.enabled() ? "exec:" + raw_params.app : std::string(),
      "runtime");
  RunOutcome outcome = run_simulated_impl(system, raw_params);
  if (span.active()) {
    span.annotate("success", outcome.success ? "1" : "0");
    span.annotate("exit_code", std::to_string(outcome.exit_code));
    // Elapsed time is simulated, so it lands as a modeled span: wall
    // clock never sees it, TraceDiff attributes it separately.
    collector.emit_span("exec.elapsed", "runtime", outcome.elapsed_seconds,
                        {{"app", raw_params.app}});
  }
  return outcome;
}

RunOutcome run_native(const RunParams& raw_params) {
  RunParams params = normalized(raw_params);
  RunOutcome outcome;
  if (params.app == "saxpy") {
    auto r = benchmarks::run_saxpy(params.n, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = r.elapsed_seconds;
    outcome.output = benchmarks::saxpy_output(r);
    return outcome;
  }
  if (params.app == "stream") {
    auto r = benchmarks::run_stream(params.n, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = 0;
    outcome.output = benchmarks::stream_output(r);
    return outcome;
  }
  if (params.app == "amg2023") {
    benchmarks::MultigridOptions options;
    options.n = params.n;
    options.threads = params.n_threads;
    auto r = benchmarks::solve_poisson_multigrid(options);
    outcome.success = r.converged;
    outcome.elapsed_seconds = r.setup_seconds + r.solve_seconds;
    outcome.output = benchmarks::multigrid_output(r);
    return outcome;
  }
  if (params.app == "gemm") {
    auto r = benchmarks::run_gemm(params.n, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = r.elapsed_seconds;
    outcome.output = benchmarks::gemm_output(r);
    return outcome;
  }
  if (params.app == "ptrans") {
    auto r = benchmarks::run_ptrans(params.n, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = r.elapsed_seconds;
    outcome.output = benchmarks::ptrans_output(r);
    return outcome;
  }
  if (params.app == "fft") {
    auto r = benchmarks::run_fft(params.n, 8, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = r.elapsed_seconds;
    outcome.output = benchmarks::fft_output(r);
    return outcome;
  }
  if (params.app == "randomaccess") {
    // params.n carries the table size; clamp to a sane power-of-two log.
    std::size_t log2_size = 10;
    while ((std::uint64_t{1} << (log2_size + 1)) <= params.n &&
           log2_size < 24) {
      ++log2_size;
    }
    auto r = benchmarks::run_randomaccess(log2_size, params.n_threads);
    outcome.success = r.verified;
    outcome.elapsed_seconds = r.elapsed_seconds;
    outcome.output = benchmarks::randomaccess_output(r);
    return outcome;
  }
  if (params.app == "beff") {
    // The sweep itself is a model; natively it runs against the host's
    // detected system description.
    auto r = system::run_beff(system::make_native(), params.n_ranks);
    outcome.success = true;
    outcome.elapsed_seconds = r.sweep_seconds;
    outcome.output = system::beff_output(r);
    return outcome;
  }
  throw SystemError("application '" + params.app +
                    "' has no native implementation");
}

}  // namespace benchpark::runtime
