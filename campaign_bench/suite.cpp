#include "suite.hpp"

#include <cmath>
#include <stdexcept>

namespace campaign_bench {

namespace bp = benchpark;

std::string Pair::slug() const {
  std::string out = experiment + "-" + system;
  for (char& c : out) {
    if (c == '/') c = '-';
  }
  return out;
}

std::vector<Pair> campaign_suite() {
  return {
      {"saxpy/openmp", "cts1"},        {"amg2023/openmp", "cts1"},
      {"amg2023/cuda", "ats2"},        {"amg2023/rocm", "ats4"},
      {"gemm/openmp", "cts2"},         {"ptrans/openmp", "cts2"},
      {"fft/openmp", "cts2"},          {"randomaccess/openmp", "cts2"},
      {"stream/openmp", "cts2"},       {"beff/mpi", "cts2"},
  };
}

KernelSizes KernelSizes::for_llc(std::size_t llc_bytes) {
  const auto llc = static_cast<double>(llc_bytes);
  KernelSizes s;
  // The driver's own in-cache sizes (the larger of each template's two).
  s.gemm = 384;
  s.fft = 4096;
  s.ptrans_incache = 1024;
  s.randomaccess_incache = 65536;
  // One n x n matrix of doubles beyond the LLC, n a multiple of 64 so
  // the transpose tiles evenly.
  s.ptrans_dram = 64 * static_cast<std::size_t>(
                           std::ceil(std::sqrt(llc / 8.0) / 64.0 + 1e-9));
  // The smallest power-of-two table of 8-byte entries beyond the LLC.
  // The native runner caps the table at 2^24 entries.
  s.randomaccess_dram = std::size_t{1} << 10;
  while (static_cast<double>(s.randomaccess_dram) * 8.0 <= llc &&
         s.randomaccess_dram < (std::size_t{1} << 24)) {
    s.randomaccess_dram <<= 1;
  }
  // Copy/Scale/Add/Triad stream three arrays of doubles.
  s.stream = static_cast<std::size_t>(std::ceil(4.0 * llc / 24.0));
  return s;
}

namespace {

/// One pair of the native campaign and the sizes its template runs.
struct NativeExperiment {
  std::string kernel;    // benchmark: "gemm"
  std::string variant;   // "openmp-t1", "openmp-dram"
  std::string workload;  // the driver template's workload: "square"
  std::vector<std::size_t> sizes;
};

std::vector<NativeExperiment> native_experiments(const KernelSizes& s) {
  std::vector<NativeExperiment> out;
  for (int t = 1; t <= kTrials; ++t) {
    const std::string variant = "openmp-t" + std::to_string(t);
    // The driver's own in-cache sizes, smaller and larger.
    out.push_back({"gemm", variant, "square", {256, s.gemm}});
    out.push_back({"fft", variant, "batch", {2048, s.fft}});
    out.push_back({"ptrans", variant, "transpose", {512, s.ptrans_incache}});
    out.push_back({"randomaccess", variant, "gups",
                   {32768, s.randomaccess_incache}});
  }
  out.push_back({"ptrans", "openmp-dram", "transpose", {s.ptrans_dram}});
  out.push_back({"randomaccess", "openmp-dram", "gups", {s.randomaccess_dram}});
  out.push_back({"stream", "openmp", "bandwidth", {s.stream}});
  return out;
}

bp::yaml::Node string_list(const std::vector<std::string>& values) {
  auto seq = bp::yaml::Node::make_sequence();
  for (const auto& v : values) seq.push_back(bp::yaml::Node(v));
  return seq;
}

}  // namespace

std::vector<Pair> native_kernel_suite(const KernelSizes& sizes) {
  std::vector<Pair> out;
  for (const auto& e : native_experiments(sizes)) {
    out.push_back({e.kernel + "/" + e.variant, "native"});
  }
  return out;
}

void register_native_kernels(bp::core::Driver& driver, const KernelSizes& s,
                             int threads) {
  for (const auto& e : native_experiments(s)) {
    // The driver's template for the kernel, with the one experiment's n
    // and n_threads replaced; spack specs and env vars stay the driver's.
    bp::yaml::Node node = driver.experiment_config({e.kernel, "openmp"});
    const std::string key = e.kernel + "_{n}_{n_threads}";
    const std::string path = "ramble.applications." + e.kernel +
                             ".workloads." + e.workload + ".experiments." +
                             key + ".variables";
    if (!node.path(path).is_mapping()) {
      throw std::runtime_error("driver template for " + e.kernel +
                               "/openmp has no " + path);
    }
    bp::yaml::Node& body = node["ramble"]["applications"][e.kernel]
                               ["workloads"][e.workload]["experiments"][key];
    std::vector<std::string> sizes;
    for (std::size_t n : e.sizes) sizes.push_back(std::to_string(n));
    body["variables"]["n"] = string_list(sizes);
    body["variables"]["n_threads"] = string_list({std::to_string(threads)});
    auto matrix = bp::yaml::Node::make_mapping();
    matrix["size_threads"] = string_list({"n", "n_threads"});
    body["matrices"] = bp::yaml::Node::make_sequence();
    body["matrices"].push_back(std::move(matrix));
    driver.add_experiment({e.kernel, e.variant}, std::move(node));
  }
}

std::vector<KernelPoint> native_kernel_points(const KernelSizes& s,
                                              int threads) {
  return {
      {"gemm_gflops", "GFLOP/s", "gemm", "incache", s.gemm, threads, "gflops"},
      {"fft_gflops", "GFLOP/s", "fft", "incache", s.fft, threads, "gflops"},
      {"stream_gbs", "GB/s", "stream", "dram", s.stream, threads, "triad"},
      {"ptrans_incache_gbs", "GB/s", "ptrans", "incache", s.ptrans_incache,
       threads, "bw"},
      {"ptrans_dram_gbs", "GB/s", "ptrans", "dram", s.ptrans_dram, threads,
       "bw"},
      {"randomaccess_incache_gups", "GUP/s", "randomaccess", "incache",
       s.randomaccess_incache, threads, "gups"},
      {"randomaccess_dram_gups", "GUP/s", "randomaccess", "dram",
       s.randomaccess_dram, threads, "gups"},
  };
}

std::vector<KernelPoint> simulated_kernel_points() {
  // The driver's templates: the stream array length is 10^7.
  KernelSizes s;
  s.gemm = 384;
  s.fft = 4096;
  s.ptrans_incache = s.ptrans_dram = 1024;
  s.randomaccess_incache = s.randomaccess_dram = 65536;
  s.stream = 10000000;
  return native_kernel_points(s, kKernelThreads);
}

std::vector<double> find_foms(const bp::ramble::AnalyzeReport& report,
                              const KernelPoint& point) {
  std::vector<double> out;
  const std::string n = std::to_string(point.n);
  const std::string threads = std::to_string(point.threads);
  for (const auto& r : report.results) {
    const auto vn = r.variables.find("n");
    const auto vt = r.variables.find("n_threads");
    if (r.app != point.kernel || vn == r.variables.end() ||
        vt == r.variables.end() || vn->second != n || vt->second != threads) {
      continue;
    }
    const auto* v = r.fom(point.fom);
    if (v && v->numeric) out.push_back(v->value);
  }
  return out;
}

std::string fom_table(const Pair& pair, const bp::ramble::AnalyzeReport& report,
                      bool with_values) {
  std::string out;
  for (const auto& r : report.results) {
    out += pair.experiment + "@" + pair.system + " " + r.name +
           (r.success ? " SUCCESS" : " FAILED");
    for (const auto& f : r.foms) {
      out += " " + f.name + "=";
      if (with_values) out += f.raw;
      out += f.units;
    }
    out += "\n";
  }
  return out;
}

}  // namespace campaign_bench
