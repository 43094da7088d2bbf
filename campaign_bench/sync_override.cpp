// Counts the durable-write calls the program under test makes.
//
// The definitions below take precedence over the C library's for every
// call from the statically linked program, pass each call through to the
// kernel unchanged, and count it: the *_fsyncs metrics are exact counts of
// the durability work a campaign asks for, whatever the filesystem makes
// it cost. Linked into the benchmark binary only.
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include "measure.hpp"

namespace campaign_bench {
namespace {
std::atomic<long> g_sync_calls{0};
}  // namespace

long sync_calls() { return g_sync_calls.load(std::memory_order_relaxed); }

}  // namespace campaign_bench

extern "C" int fsync(int fd) {
  campaign_bench::g_sync_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(syscall(SYS_fsync, fd));
}

extern "C" int fdatasync(int fd) {
  campaign_bench::g_sync_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(syscall(SYS_fdatasync, fd));
}
