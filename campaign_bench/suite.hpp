// The experiment sets the workloads run, and how their results are
// reduced to the tables and figures of merit the benchmark checks.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/core/driver.hpp"
#include "src/ramble/workspace.hpp"

namespace campaign_bench {

/// One (experiment, system) pair; a campaign runs each pair once
/// through Driver::run_workflow.
struct Pair {
  std::string experiment;  // "<benchmark>/<variant>"
  std::string system;

  [[nodiscard]] benchpark::core::ExperimentId id() const {
    return benchpark::core::ExperimentId::parse(experiment);
  }
  /// Directory-safe name: "amg2023-cuda-ats2".
  [[nodiscard]] std::string slug() const;
};

/// The paper's section-4 demo plus the HPCC suite, on simulated systems.
std::vector<Pair> campaign_suite();


/// Problem sizes of the native kernel campaign. The in-cache sizes are
/// the driver's own; the beyond-LLC sizes derive from the LLC size.
struct KernelSizes {
  std::size_t gemm = 0;
  std::size_t fft = 0;
  std::size_t ptrans_incache = 0;
  std::size_t ptrans_dram = 0;
  std::size_t randomaccess_incache = 0;
  std::size_t randomaccess_dram = 0;  // table entries, a power of two
  std::size_t stream = 0;             // elements per array

  /// ptrans and RandomAccess one matrix/table beyond `llc_bytes`; the
  /// three STREAM arrays together at least four times `llc_bytes`.
  static KernelSizes for_llc(std::size_t llc_bytes);
};

/// Threads per kernel experiment in the native campaign. On a shared host
/// a kernel spread over every core waits for the slowest one: 8-second
/// windows a minute apart gave 4-thread GEMM medians from 12.5 to 22
/// GFLOP/s, while 1-thread medians stayed within 5.8-6.7. The nproc-wide
/// rates are measured per module instead (benchmarks.*.tnproc.rate).
inline constexpr int kKernelThreads = 1;

/// Repetitions of each in-cache kernel pair in one native campaign. One
/// run of a millisecond kernel reads the host's state of that moment (the
/// 2^16-entry RandomAccess flips between about 0.27 and 0.5 GUP/s as
/// neighbours come and go), so the repetitions are separate pairs that
/// the campaign's shuffle spreads over its whole duration.
inline constexpr int kTrials = 8;

/// The HPCC kernels on the `native` system (real code in src/benchmarks):
/// kTrials pairs per kernel at the driver's in-cache sizes
/// ("gemm/openmp-t3"), and one pair per beyond-LLC size
/// ("ptrans/openmp-dram", "stream/openmp").
std::vector<Pair> native_kernel_suite(const KernelSizes& sizes);

/// Register the templates of native_kernel_suite() with `driver`: the
/// driver's own kernel templates with their sizes replaced, all at
/// `threads` threads.
void register_native_kernels(benchpark::core::Driver& driver,
                             const KernelSizes& sizes, int threads);

/// One end-to-end kernel rate: the FOM the campaign reports for one
/// experiment instance of one kernel pair.
struct KernelPoint {
  std::string metric;      // "gemm_gflops"
  std::string unit;        // "GFLOP/s"
  std::string kernel;      // "gemm": the benchmark of its pairs
  std::string size_class;  // "incache" or "dram"
  std::size_t n = 0;
  int threads = 1;
  std::string fom;  // FOM name in the application definition

  /// The experiment instance in the driver's own templates, "gemm_384_4".
  [[nodiscard]] std::string name() const {
    return kernel + "_" + std::to_string(n) + "_" + std::to_string(threads);
  }
};

/// The seven kernel rates, at the experiment instances the native
/// campaign runs.
std::vector<KernelPoint> native_kernel_points(const KernelSizes& sizes,
                                              int threads);
/// The same seven rates as the simulated suite models them on cts2, at
/// one thread: the driver's templates have no beyond-LLC sizes, so the
/// two DRAM rates read the largest size the template has.
std::vector<KernelPoint> simulated_kernel_points();

/// The point's FOM from every experiment of the kernel at the point's n
/// and thread count.
std::vector<double> find_foms(const benchpark::ramble::AnalyzeReport& report,
                              const KernelPoint& point);

/// One line per experiment: name, status, and each FOM as the program
/// printed it. `with_values` false keeps names and units only, for
/// native runs whose measured values differ from run to run.
std::string fom_table(const Pair& pair,
                      const benchpark::ramble::AnalyzeReport& report,
                      bool with_values);

}  // namespace campaign_bench
