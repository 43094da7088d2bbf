// Timers and resource counters the benchmark wraps around public calls.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace campaign_bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time consumed so far by the calling thread, in milliseconds.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time consumed so far by every thread of the process, in
/// milliseconds. Time the host steals from the virtual CPUs is not
/// counted, so on a shared host it reads steadier than wall time.
inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// fsync and fdatasync calls the process has made (sync_override.cpp).
long sync_calls();

/// Process-wide counters that proxy for waiting on I/O: voluntary
/// context switches and block output operations (getrusage), and fsync
/// calls.
struct Usage {
  long nvcsw = 0;
  long oublock = 0;
  long fsyncs = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {ru.ru_nvcsw, ru.ru_oublock, sync_calls()};
  }
  Usage operator-(const Usage& o) const {
    return {nvcsw - o.nvcsw, oublock - o.oublock, fsyncs - o.fsyncs};
  }
};

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The CPUs the calling thread may run on.
inline std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

/// Pins the calling thread to one CPU for the object's lifetime, then
/// restores the thread's previous CPU set.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu) {
    saved_ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  ~PinToCpu() {
    if (saved_ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// Per-campaign span totals, keyed by span name. A span's off-CPU time is
/// its wall time minus the CPU time of the thread that made the call:
/// time spent blocked on I/O, waiting for pool workers, or preempted. Its
/// fsync count is the process-wide delta, so spans that overlap another
/// thread's work (the service's second worker) may include that work's.
class Spans {
 public:
  struct Total {
    double wall_ms = 0;
    double offcpu_ms = 0;
    long fsyncs = 0;
  };

  /// Time `fn` as span `name` and return its result.
  template <class Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    struct Guard {
      Spans& spans;
      const std::string& name;
      Clock::time_point start = Clock::now();
      double cpu = thread_cpu_ms();
      long syncs = sync_calls();
      ~Guard() {
        const double wall = ms_since(start);
        Total& t = spans.totals_[name];
        t.wall_ms += wall;
        t.offcpu_ms += wall - (thread_cpu_ms() - cpu);
        t.fsyncs += sync_calls() - syncs;
      }
    } guard{*this, name};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::map<std::string, Total>& totals() const {
    return totals_;
  }
  [[nodiscard]] double wall_sum_ms() const {
    double sum = 0;
    for (const auto& [name, t] : totals_) sum += t.wall_ms;
    return sum;
  }

 private:
  std::map<std::string, Total> totals_;
};

}  // namespace campaign_bench
