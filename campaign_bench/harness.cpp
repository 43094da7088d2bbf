// Campaign-level benchmark of Benchpark-CPP.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Workloads (README.md says why each exists and which modules it loads):
//   campaign_cold   the suite against an empty store
//   campaign_warm   the suite against a copy of a store primed in set-up
//   kernels_native  the HPCC kernels on the `native` system, no store
//   service_soak    a closed loop of campaigns through BenchService
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it alternates untraced and traced campaigns and reports the per-module
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "gen.hpp"
#include "measure.hpp"
#include "soak.hpp"
#include "src/benchmarks/fft.hpp"
#include "src/benchmarks/gemm.hpp"
#include "src/benchmarks/ptrans.hpp"
#include "src/benchmarks/randomaccess.hpp"
#include "src/benchmarks/stream.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/ramble/expansion.hpp"
#include "stats.hpp"
#include "suite.hpp"

#ifndef CAMPAIGN_BENCH_BUILD_TYPE
#define CAMPAIGN_BENCH_BUILD_TYPE "unknown"
#endif

namespace campaign_bench {
namespace {

namespace bp = benchpark;
namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path work_dir;
};

/// Counts checks and failures and collects the metrics of one run.
class Report {
 public:
  /// Count one unit of work (an experiment, a ticket, or a check on the
  /// outputs) as attempted, and as failed unless `ok`.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not finite");
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  void print() const {
    std::printf("\n%-40s %20s  %s\n", "metric", "value", "unit");
    for (const auto& m : metrics_) {
      std::printf("%-40s %20.6f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- environment --------------------------------------------------------

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::size_t llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;
}

std::string fs_type(const fs::path& dir) {
  struct statfs s{};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void print_environment(const Options& o) {
  std::printf("env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %d, \"llc_bytes\": %zu, "
              "\"work_dir\": \"%s\", \"work_dir_fs\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, nproc(), llc_bytes(),
              o.work_dir.c_str(), fs_type(o.work_dir).c_str(), __VERSION__,
              CAMPAIGN_BENCH_BUILD_TYPE);
}

// ---- shared reductions --------------------------------------------------

/// Per-key medians over a list of per-campaign value maps.
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const auto& s : samples) {
    for (const auto& [k, v] : s) by_key[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : by_key) out[k] = median(v);
  return out;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Spans the traced run records, in the order run_workflow makes the calls
/// (plus the service runner's analysis scan).
const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "store.open",           "store.warm_start",        "core.setup",
      "ramble.setup",         "ramble.run_all",          "ramble.analyze",
      "analysis.history_load", "analysis.history_append", "store.persist",
      "store.flush",          "analysis.scan"};
  return names;
}

/// Per-module values of one traced campaign (direct workloads) or one
/// traced ticket (service soak).
struct LayerInput {
  const Spans* spans = nullptr;
  std::vector<const PairResult*> pairs;
  double wall_ms = 0;
  double offcpu_ms = 0;
  double nvcsw = 0;
  double oublock = 0;
  double fsyncs = 0;
  double loaded_records = 0;
  double appended_records = 0;
};

std::map<std::string, double> layer_values(const LayerInput& in) {
  std::map<std::string, double> v;
  for (const auto& name : span_names()) {
    const auto& totals = in.spans->totals();
    const auto it = totals.find(name);
    v[name + "_ms"] = it == totals.end() ? 0 : it->second.wall_ms;
    v[name + "_offcpu_ms"] = it == totals.end() ? 0 : it->second.offcpu_ms;
    v[name + "_fsyncs"] =
        it == totals.end() ? 0 : static_cast<double>(it->second.fsyncs);
  }
  double store_hits = 0, store_misses = 0, roots = 0, cz_hits = 0,
         cz_misses = 0, from_source = 0, already = 0, attempts = 0,
         retried = 0, executions = 0, history = 0, template_hits = 0,
         template_misses = 0;
  for (const PairResult* p : in.pairs) {
    store_hits += static_cast<double>(p->run.store_hits);
    store_misses += static_cast<double>(p->run.store_misses);
    roots += static_cast<double>(p->concretize.roots);
    cz_hits += static_cast<double>(p->concretize.cache_hits);
    cz_misses += static_cast<double>(p->concretize.cache_misses);
    from_source += static_cast<double>(p->from_source);
    already += static_cast<double>(p->already_installed);
    attempts += static_cast<double>(p->run.total_attempts);
    retried += static_cast<double>(p->run.retried);
    for (const auto& e : p->run.per_experiment) executions += e.from_store ? 0 : 1;
    history += static_cast<double>(p->history_samples);
    template_hits += static_cast<double>(p->template_hits);
    template_misses += static_cast<double>(p->template_misses);
  }
  v["store.loaded_records"] = in.loaded_records;
  v["store.appended_records"] = in.appended_records;
  v["store.hits"] = store_hits;
  v["store.misses"] = store_misses;
  v["store.hit_ratio"] = ratio(store_hits, store_hits + store_misses);
  v["concretizer.roots"] = roots;
  v["concretizer.cache_hits"] = cz_hits;
  v["concretizer.cache_misses"] = cz_misses;
  v["concretizer.hit_ratio"] = ratio(cz_hits, cz_hits + cz_misses);
  v["ramble.template_hits"] = template_hits;
  v["ramble.template_misses"] = template_misses;
  v["install.from_source"] = from_source;
  v["install.already_installed"] = already;
  v["runtime.attempts"] = attempts;
  v["runtime.retried"] = retried;
  v["runtime.executions"] = executions;
  v["analysis.history_samples"] = history;
  v["proc.offcpu_ms"] = in.offcpu_ms;
  v["proc.nvcsw"] = in.nvcsw;
  v["proc.oublock"] = in.oublock;
  v["proc.fsyncs"] = in.fsyncs;
  v["trace.unattributed_ms"] = in.wall_ms - in.spans->wall_sum_ms();
  return v;
}

/// Name and unit of every end-to-end metric, in report order.
std::vector<std::pair<std::string, std::string>> end_to_end_metrics() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"setup_s", "s"},
      {"campaign_p50_ms", "ms"},
      {"campaign_tail_ms", "ms"},
      {"campaign_cpu_ms", "ms"},
      {"campaigns_per_s", "1/s"},
      {"turnaround_p50_ms", "ms"},
      {"turnaround_tail_ms", "ms"},
      {"success_ratio", "ratio"},
      {"peak_rss_mb", "MiB"}};
  for (const auto& p : simulated_kernel_points()) out.emplace_back(p.metric, p.unit);
  return out;
}

/// "benchmarks.<kernel>.<size class>": the prefix of a kernel's
/// per-module rates.
std::string kernel_prefix(const KernelPoint& p) {
  return "benchmarks." + p.kernel + "." + p.size_class;
}

/// Name and unit of every per-module metric, in report order. Workloads
/// that do not load a module report its metrics as 0.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& span : span_names()) {
    out.emplace_back(span + "_ms", "ms");
    out.emplace_back(span + "_offcpu_ms", "ms");
    out.emplace_back(span + "_fsyncs", "count");
  }
  for (const char* name :
       {"store.loaded_records", "store.appended_records", "store.hits",
        "store.misses", "concretizer.roots", "concretizer.cache_hits",
        "concretizer.cache_misses", "ramble.template_hits",
        "ramble.template_misses", "install.from_source",
        "install.already_installed", "runtime.attempts", "runtime.retried",
        "runtime.executions", "analysis.history_samples", "serve.rejected",
        "proc.nvcsw", "proc.oublock", "proc.fsyncs"}) {
    out.emplace_back(name, "count");
  }
  out.emplace_back("store.hit_ratio", "ratio");
  out.emplace_back("concretizer.hit_ratio", "ratio");
  out.emplace_back("serve.submit_us", "us");
  for (const char* name :
       {"serve.admission_wait_p50_ms", "serve.admission_wait_tail_ms",
        "serve.campaign_ms", "proc.offcpu_ms", "trace.unattributed_ms",
        "trace.overhead_ms"}) {
    out.emplace_back(name, "ms");
  }
  for (const auto& p : simulated_kernel_points()) {
    out.emplace_back(kernel_prefix(p) + ".t1.rate", p.unit);
    out.emplace_back(kernel_prefix(p) + ".tnproc.rate", p.unit);
    out.emplace_back(kernel_prefix(p) + ".par_eff", "ratio");
  }
  return out;
}

/// Add every metric of `names` to the report; a name missing from
/// `values` reads 0 when `missing_is_zero`, else fails a check.
void emit(Report& rep,
          const std::vector<std::pair<std::string, std::string>>& names,
          const std::map<std::string, double>& values, bool missing_is_zero) {
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    if (it == values.end() && !missing_is_zero) {
      rep.check(false, "metric " + name + " was not measured");
    }
    rep.metric(name, it == values.end() ? 0 : it->second, unit);
  }
}

// ---- native kernels, timed from outside ---------------------------------

struct DirectRate {
  double rate = 0;  // in the kernel's FOM unit
  bool verified = false;
};

/// One direct call of a kernel's run_* entry point. The rate is the work
/// the call's own timed loop performs, computed from its arguments with
/// the library's cost functions, over the wall time of the whole call
/// (which also covers allocation, initialisation and verification).
DirectRate time_kernel(const KernelPoint& p, int threads) {
  namespace k = bp::benchmarks;
  const auto start = Clock::now();
  double work = 0;
  bool verified = false;
  if (p.kernel == "gemm") {
    verified = k::run_gemm(p.n, threads).verified;
    work = k::gemm_flops(p.n);  // one repeat
  } else if (p.kernel == "fft") {
    constexpr std::size_t kBatch = 8;  // the native runner's batch
    verified = k::run_fft(p.n, kBatch, threads).verified;
    work = k::fft_flops(p.n) * kBatch;
  } else if (p.kernel == "ptrans") {
    verified = k::run_ptrans(p.n, threads).verified;
    work = k::ptrans_bytes(p.n) * 2;  // two repeats
  } else if (p.kernel == "randomaccess") {
    const auto log2 =
        static_cast<std::size_t>(std::log2(static_cast<double>(p.n)));
    verified = k::run_randomaccess(log2, threads).verified;
    work = 4.0 * static_cast<double>(p.n);  // four updates per entry
  } else if (p.kernel == "stream") {
    verified = k::run_stream(p.n, threads).verified;
    // Three repeats of Copy and Scale (two arrays each), Add and Triad
    // (three each).
    work = 3.0 * 10.0 * static_cast<double>(p.n) * sizeof(double);
  }
  const double seconds = ms_since(start) / 1e3;
  return {seconds > 0 ? work / seconds / 1e9 : 0, verified};
}

/// The median rate of repeated direct calls: calls repeat until 100 ms
/// have passed (at most 50 calls), so one slow call does not decide the
/// rate of a kernel that takes milliseconds.
DirectRate time_kernel_repeated(const KernelPoint& p, int threads) {
  static const std::vector<int> cpus = allowed_cpus();
  std::vector<double> rates;
  bool verified = true;
  const auto start = Clock::now();
  do {
    // One-thread calls take the CPUs in turn, as the campaign's pairs do.
    std::optional<PinToCpu> pin;
    if (threads == 1) pin.emplace(cpus[rates.size() % cpus.size()]);
    const DirectRate d = time_kernel(p, threads);
    rates.push_back(d.rate);
    verified = verified && d.verified;
  } while (ms_since(start) < 100 && rates.size() < 50);
  return {median(rates), verified};
}

/// Time every native kernel point from outside at the campaign's thread
/// count, and check each campaign-reported FOM against that rate. They
/// must agree within a factor of 16: a units or FOM-regex bug is off by
/// orders of magnitude, while the outside time also covers set-up and
/// verification (up to 5x the timed loop for the 4096-point FFT). With
/// `all_widths`, also time each point at nproc threads for the per-module
/// rates and parallel efficiency.
std::map<std::string, double> time_kernels(
    const std::vector<KernelPoint>& points,
    const std::map<std::string, double>& campaign_fom, bool all_widths,
    Report& rep) {
  std::map<std::string, double> out;
  for (const auto& p : points) {
    const std::string prefix = kernel_prefix(p);
    const DirectRate one = time_kernel_repeated(p, p.threads);
    rep.check(one.verified, p.name() + " direct call not verified");
    out[prefix + ".t1.rate"] = one.rate;
    const double fom = campaign_fom.at(p.metric);
    const double agreement = ratio(fom, one.rate);
    std::printf("agreement %-26s campaign %10.4g  outside %10.4g  ratio %.3f\n",
                p.metric.c_str(), fom, one.rate, agreement);
    rep.check(agreement > 1.0 / 16 && agreement < 16,
              p.metric + " disagrees with the rate timed outside");
    if (!all_widths) continue;
    const int threads = nproc();
    const DirectRate wide = time_kernel_repeated(p, threads);
    rep.check(wide.verified, p.name() + " (nproc threads) not verified");
    out[prefix + ".tnproc.rate"] = wide.rate;
    out[prefix + ".par_eff"] = ratio(wide.rate, threads * one.rate);
  }
  return out;
}

// ---- direct workloads ---------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 40;

struct DirectSpec {
  std::vector<Pair> suite;
  bool store = false;   // one store per campaign
  bool primed = false;  // the store is a copy of one primed in set-up
  bool native = false;
};

/// Concatenated FOM tables of a campaign, in suite order.
std::string campaign_table(const std::vector<Pair>& suite,
                           const CampaignResult& c, bool with_values) {
  std::string out;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    out += fom_table(suite[i], c.pairs[i].report, with_values);
  }
  return out;
}

/// Counts a traced campaign must reproduce from its untraced twin, from
/// the reports both paths return.
struct WorkCounts {
  std::size_t store_records = 0;
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;
  std::size_t from_source = 0;
  std::size_t concretize_hits = 0;
  std::size_t concretize_misses = 0;
  std::size_t template_hits = 0;  // RunReport: run_all only
  std::size_t template_misses = 0;
  bool operator==(const WorkCounts&) const = default;

  [[nodiscard]] std::string str() const {
    auto pair = [](std::size_t a, std::size_t b) {
      return std::to_string(a) + "/" + std::to_string(b);
    };
    return std::to_string(store_records) + " records, store " +
           pair(store_hits, store_misses) + ", " +
           std::to_string(from_source) + " built, concretizer " +
           pair(concretize_hits, concretize_misses) + ", templates " +
           pair(template_hits, template_misses);
  }

  static WorkCounts of(const CampaignResult& c) {
    WorkCounts w;
    w.store_records = c.store_records;
    for (const auto& p : c.pairs) {
      w.store_hits += p.run.store_hits;
      w.store_misses += p.run.store_misses;
      w.from_source += p.from_source;
      w.concretize_hits += p.concretize.cache_hits;
      w.concretize_misses += p.concretize.cache_misses;
      w.template_hits += p.run.template_cache_hits;
      w.template_misses += p.run.template_cache_misses;
    }
    return w;
  }
};

/// End-to-end values shared by every workload.
void add_latency_metrics(std::map<std::string, double>& m,
                         const std::vector<double>& campaign_ms,
                         const std::vector<double>& turnaround_ms) {
  m["campaign_p50_ms"] = median(campaign_ms);
  m["campaign_tail_ms"] = tail(campaign_ms);
  m["turnaround_p50_ms"] = median(turnaround_ms);
  m["turnaround_tail_ms"] = tail(turnaround_ms);
  const double level = tail_level(campaign_ms.size());
  std::printf("samples: %zu campaigns; tail = %s\n", campaign_ms.size(),
              level > 0 ? ("p" + std::to_string(static_cast<int>(level))).c_str()
                        : "p50 (fewer than 20 samples)");
}

void run_direct(const Options& o, const DirectSpec& spec, Report& rep) {
  const KernelSizes sizes = KernelSizes::for_llc(llc_bytes());
  const auto points = spec.native ? native_kernel_points(sizes, kKernelThreads)
                                  : simulated_kernel_points();
  std::unique_ptr<bp::core::Driver> driver;
  std::unique_ptr<CampaignRunner> runner;
  std::string primed_table;
  fs::path primed_store;

  auto check_experiments = [&](const CampaignResult& c) {
    for (std::size_t i = 0; i < spec.suite.size(); ++i) {
      const auto& p = c.pairs[i];
      const std::string where =
          spec.suite[i].experiment + "@" + spec.suite[i].system;
      rep.check(!p.report.results.empty(), where + " ran no experiments");
      for (const auto& r : p.report.results) {
        rep.check(r.success, where + " " + r.name + " failed");
      }
    }
  };

  // Set-up, kSetups times, each from empty process-wide caches: a fresh
  // driver (with the kernel templates) and then, when warm, the priming
  // campaign, else `benchpark setup` and `ramble workspace setup` of every
  // pair (Driver::setup, Workspace::setup) without running anything. The
  // last set-up is kept. The runner's placeholder workspace is the
  // benchmark's own and not timed.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    const fs::path dir = o.work_dir / ("setup" + std::to_string(r));
    runner.reset();
    bp::concretizer::ConcretizationCache::global().clear();
    bp::ramble::TemplateCache::global().clear();
    const auto start = Clock::now();
    driver = std::make_unique<bp::core::Driver>();
    if (spec.native) register_native_kernels(*driver, sizes, kKernelThreads);
    bp::ramble::RunRequest request;
    request.threads = 1;  // one experiment at a time: no core contention
    if (!spec.primed) {
      for (const Pair& pair : spec.suite) {
        auto ws = driver->setup(pair.id(), pair.system, dir / pair.slug());
        ws.setup();
      }
    }
    double setup_ms = ms_since(start);
    runner = std::make_unique<CampaignRunner>(
        *driver, spec.suite, request, dir / "placeholder", spec.native);
    if (spec.primed) {
      std::vector<std::size_t> order(spec.suite.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto primed = runner->run(order, dir / "ws", dir / "store", false);
      setup_ms += primed.wall_ms;
      const std::string table = campaign_table(spec.suite, primed, true);
      rep.check(primed_table.empty() || table == primed_table,
                "priming campaigns produced different FOM tables");
      check_experiments(primed);
      primed_table = table;
      primed_store = dir / "store";
    }
    setup_s.push_back(setup_ms / 1e3);
    if (r > 0) fs::remove_all(o.work_dir / ("setup" + std::to_string(r - 1)));
  }

  // Each campaign starts from a fresh run directory (and, when warm, a
  // fresh copy of the primed store); the preparation is not timed.
  const fs::path run_dir = o.work_dir / "run";
  auto campaign = [&](const std::vector<std::size_t>& order, bool traced) {
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    if (spec.primed) {
      fs::copy(primed_store, run_dir / "store", fs::copy_options::recursive);
    }
    std::optional<fs::path> store_dir;
    if (spec.store) store_dir = run_dir / "store";
    CampaignResult c = runner->run(order, run_dir / "ws", store_dir, traced);
    check_experiments(c);
    if (spec.primed) {
      for (std::size_t i = 0; i < spec.suite.size(); ++i) {
        const std::string where =
            spec.suite[i].experiment + "@" + spec.suite[i].system;
        rep.check(c.pairs[i].run.store_misses == 0,
                  where + " missed the primed store");
        rep.check(c.pairs[i].from_source == 0,
                  where + " built from source when warm");
      }
      rep.check(campaign_table(spec.suite, c, true) == primed_table,
                "warm FOM table differs from the priming run");
    }
    return c;
  };

  SplitMix64 rng(o.seed);
  std::vector<double> untraced_ms, untraced_cpu_ms, traced_ms;
  std::map<std::string, std::vector<double>> kernel_samples;
  std::vector<std::map<std::string, double>> layers;
  // Simulated FOMs are seeded per experiment; measured ones vary.
  const bool exact_values = !spec.native;
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  while (Clock::now() < deadline) {
    const auto order = permutation(spec.suite.size(), rng);
    const CampaignResult plain = campaign(order, false);
    untraced_ms.push_back(plain.wall_ms);
    untraced_cpu_ms.push_back(plain.cpu_ms);
    for (const auto& p : points) {
      auto& samples = kernel_samples[p.metric];
      const std::size_t before = samples.size();
      for (std::size_t i = 0; i < spec.suite.size(); ++i) {
        if (spec.suite[i].id().benchmark != p.kernel) continue;
        const auto values = find_foms(plain.pairs[i].report, p);
        samples.insert(samples.end(), values.begin(), values.end());
      }
      rep.check(samples.size() > before, p.metric + ": the campaign reported no " +
                                             p.fom + " for " + p.name());
    }
    if (!o.trace) continue;
    const CampaignResult traced = campaign(order, true);
    traced_ms.push_back(traced.wall_ms);
    rep.check(campaign_table(spec.suite, traced, exact_values) ==
                  campaign_table(spec.suite, plain, exact_values),
              "traced campaign produced a different FOM table");
    const WorkCounts a = WorkCounts::of(plain), b = WorkCounts::of(traced);
    rep.check(a == b, "traced campaign did different work: untraced " +
                          a.str() + ", traced " + b.str());
    LayerInput in;
    in.spans = &traced.spans;
    for (const auto& p : traced.pairs) in.pairs.push_back(&p);
    in.wall_ms = traced.wall_ms;
    in.offcpu_ms = traced.offcpu_ms;
    in.nvcsw = static_cast<double>(traced.usage.nvcsw);
    in.oublock = static_cast<double>(traced.usage.oublock);
    in.fsyncs = static_cast<double>(traced.usage.fsyncs);
    in.loaded_records = static_cast<double>(traced.store_stats.loaded_records);
    in.appended_records =
        static_cast<double>(traced.store_stats.appended_records);
    layers.push_back(layer_values(in));
  }
  fs::remove_all(run_dir);
  rep.check(!untraced_ms.empty(), "no campaign completed");
  if (untraced_ms.empty()) return;

  std::map<std::string, double> kernel_fom;
  for (const auto& p : points) {
    const auto& v = kernel_samples[p.metric];
    kernel_fom[p.metric] = v.empty() ? 0 : median(v);
  }
  std::map<std::string, double> direct;
  if (spec.native) {
    direct = time_kernels(points, kernel_fom, o.trace, rep);
  }

  if (o.trace) {
    auto layer = medians(layers);
    layer["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
    for (const auto& [k, v] : direct) layer[k] = v;
    std::printf("traced campaigns: %zu\n", traced_ms.size());
    emit(rep, per_layer_metrics(), layer, true);
    return;
  }
  double total_ms = 0;
  for (double ms : untraced_ms) total_ms += ms;
  std::map<std::string, double> m = kernel_fom;
  m["setup_s"] = median(setup_s);
  m["campaign_cpu_ms"] = median(untraced_cpu_ms);
  // A direct campaign has no queue: its turnaround is its wall time.
  add_latency_metrics(m, untraced_ms, untraced_ms);
  m["campaigns_per_s"] = static_cast<double>(untraced_ms.size()) / total_ms * 1e3;
  m["success_ratio"] = 1.0 - ratio(static_cast<double>(rep.failed()),
                                   static_cast<double>(rep.attempted()));
  m["peak_rss_mb"] = peak_rss_mb();
  emit(rep, end_to_end_metrics(), m, false);
}

// ---- service soak ---------------------------------------------------------

constexpr std::size_t kSoakTickets = 200;  // per round

void run_soak(const Options& o, Report& rep) {
  SplitMix64 rng(o.seed);
  SoakPlan plan;
  plan.suite = campaign_suite();
  plan.draws = shuffled_laps(plan.suite.size(), kSoakTickets, rng);

  std::vector<double> setup_s, campaign_ms, turnaround_ms, ticket_cpu_ms;
  double round_tickets = 0, round_ms = 0;
  std::vector<double> traced_campaign_ms, submit_us, wait_ms, runner_ms;
  std::vector<std::map<std::string, double>> layers;
  double rejected = 0;
  fs::path kept;  // the last untraced round's service root
  // Totals an untraced round and a traced round of the same plan share.
  std::vector<std::size_t> plain_totals;

  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  for (int r = 0; Clock::now() < deadline || (o.trace && r % 2 == 1); ++r) {
    const bool traced = o.trace && r % 2 == 1;
    const fs::path base = o.work_dir / ("svc" + std::to_string(r));
    const SoakRound round = run_soak_round(plan, base, traced);
    setup_s.push_back(round.setup_ms / 1e3);
    rejected += static_cast<double>(round.stats.rejected);
    rep.check(round.stats.rejected == 0, "service rejected a submission");
    std::vector<std::size_t> totals(4, 0);
    for (const auto& t : round.tickets) {
      const auto& s = t.status;
      rep.check(s.state == bp::serve::TicketState::completed &&
                      s.experiments > 0 && s.succeeded == s.experiments,
                  "ticket " + std::to_string(s.id) + " (" + s.experiment +
                      "@" + s.system + ") ended " +
                      std::string(bp::serve::ticket_state_name(s.state)) +
                      ": " + s.error);
      totals[0] += s.experiments;
      totals[1] += s.succeeded;
      totals[2] += s.store_hits;
      totals[3] += s.store_misses;
    }
    if (!traced) {
      std::vector<double> ticket_ms;
      for (const auto& t : round.tickets) {
        campaign_ms.push_back(t.campaign_ms());
        turnaround_ms.push_back(t.turnaround_ms);
        ticket_ms.push_back(t.campaign_ms());
      }
      // History depth grows through a round: compare its first and last
      // quarter of tickets.
      const auto quarter = static_cast<std::ptrdiff_t>(ticket_ms.size() / 4);
      if (quarter > 0) {
        std::printf(
            "round %d: campaign p50 %.2f ms over the first %td tickets, "
            "%.2f ms over the last %td\n",
            r, median({ticket_ms.begin(), ticket_ms.begin() + quarter}),
            quarter, median({ticket_ms.end() - quarter, ticket_ms.end()}),
            quarter);
      }
      round_tickets += static_cast<double>(round.tickets.size());
      round_ms += round.wall_ms;
      ticket_cpu_ms.push_back(round.cpu_ms /
                              static_cast<double>(round.tickets.size()));
      plain_totals = totals;
      if (!kept.empty()) fs::remove_all(kept);
      kept = base;
      continue;
    }
    rep.check(totals == plain_totals,
              "traced soak round did different work (experiments, "
              "successes, store hits or misses)");
    const double per_ticket = 1.0 / static_cast<double>(round.tickets.size());
    for (const auto& t : round.tickets) {
      traced_campaign_ms.push_back(t.campaign_ms());
      submit_us.push_back(t.submit_us);
      wait_ms.push_back(t.status.admission_wait_seconds * 1e3);
      const auto it = round.runner.find(t.status.id);
      if (it == round.runner.end()) {
        rep.check(false, "traced runner saw no ticket " +
                             std::to_string(t.status.id));
        continue;
      }
      const RunnerSample& s = it->second;
      runner_ms.push_back(s.wall_ms);
      LayerInput in;
      in.spans = &s.spans;
      in.pairs = {&s.pair};
      in.wall_ms = t.campaign_ms();  // dispatch until wait() returns
      in.offcpu_ms = s.offcpu_ms;
      in.nvcsw = static_cast<double>(round.usage.nvcsw) * per_ticket;
      in.oublock = static_cast<double>(round.usage.oublock) * per_ticket;
      in.fsyncs = static_cast<double>(round.usage.fsyncs) * per_ticket;
      in.loaded_records = static_cast<double>(s.loaded_records);
      in.appended_records = static_cast<double>(s.appended_records);
      layers.push_back(layer_values(in));
    }
    fs::remove_all(base);
  }
  rep.check(!campaign_ms.empty(), "no soak round completed");
  if (campaign_ms.empty()) return;

  if (o.trace) {
    auto layer = medians(layers);
    layer["trace.overhead_ms"] = median(traced_campaign_ms) - median(campaign_ms);
    layer["serve.submit_us"] = median(submit_us);
    layer["serve.admission_wait_p50_ms"] = median(wait_ms);
    layer["serve.admission_wait_tail_ms"] = tail(wait_ms);
    layer["serve.campaign_ms"] = median(runner_ms);
    layer["serve.rejected"] = rejected;
    std::printf("traced tickets: %zu\n", traced_campaign_ms.size());
    emit(rep, per_layer_metrics(), layer, true);
    fs::remove_all(kept);
    return;
  }
  std::map<std::string, double> m =
      soak_kernel_foms(plan, kept, simulated_kernel_points());
  fs::remove_all(kept);
  m["setup_s"] = median(setup_s);
  m["campaign_cpu_ms"] = median(ticket_cpu_ms);
  add_latency_metrics(m, campaign_ms, turnaround_ms);
  m["campaigns_per_s"] = round_tickets / round_ms * 1e3;
  m["success_ratio"] = 1.0 - ratio(static_cast<double>(rep.failed()),
                                   static_cast<double>(rep.attempted()));
  m["peak_rss_mb"] = peak_rss_mb();
  std::printf("rounds: %zu untraced of %zu tickets\n",
              static_cast<std::size_t>(round_tickets) / kSoakTickets,
              kSoakTickets);
  emit(rep, end_to_end_metrics(), m, false);
}

// ---- command line ---------------------------------------------------------

/// Empty `dir`, keeping the directory itself (it may be a mount point).
void clear_dir(const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(dir)) {
    fs::remove_all(entry.path());
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload "
               "<campaign_cold|campaign_warm|kernels_native|service_soak> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (arg == "--work-dir") {
        o.work_dir = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  if (o.work_dir.empty()) o.work_dir = fs::path(".bench_work") / o.workload;
  return o;
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  using namespace campaign_bench;
  const Options o = parse(argc, argv);
  std::map<std::string, DirectSpec> direct = {
      {"campaign_cold", {campaign_suite(), true, false, false}},
      {"campaign_warm", {campaign_suite(), true, true, false}},
      {"kernels_native",
       {native_kernel_suite(KernelSizes::for_llc(llc_bytes())), false, false,
        true}},
  };
  if (!direct.count(o.workload) && o.workload != "service_soak") {
    usage(("unknown workload " + o.workload).c_str());
  }
  // Every campaign runs on one thread (the soak's two workers run one
  // campaign each): the engines' pools (concretizer, installer, run_all)
  // stay unused, so a campaign's wall time follows its CPU time instead of
  // how the host schedules pool workers on the virtual CPUs. Native pairs
  // run pinned (CampaignRunner), and workers spawned from a pinned thread
  // would keep its single CPU.
  setenv("BENCHPARK_NUM_THREADS", "1", 1);
  clear_dir(o.work_dir);
  print_environment(o);
  Report rep;
  try {
    if (o.workload == "service_soak") {
      run_soak(o, rep);
    } else {
      run_direct(o, direct.at(o.workload), rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    std::error_code ignored;
    fs::remove_all(o.work_dir, ignored);
    return 1;
  }
  clear_dir(o.work_dir);
  std::fflush(stderr);
  rep.print();
  return 0;
}
