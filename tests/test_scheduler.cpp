// Batch scheduler tests: script parsing (Figure 13's rendered output),
// FIFO and EASY-backfill policies, accounting, timeouts.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/sched/scheduler.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"

namespace sched = benchpark::sched;
namespace sys = benchpark::system;
using sched::BatchJob;
using sched::BatchScheduler;
using sched::JobState;
using sched::Policy;

namespace {

BatchJob quick_job(const std::string& name, int nodes, double runtime,
                   double limit = 3600) {
  BatchJob job;
  job.name = name;
  job.user = "olga";
  job.nodes = nodes;
  job.ranks = nodes * 8;
  job.time_limit_seconds = limit;
  job.work = [runtime] {
    return sched::JobResult{runtime, true, "Kernel done\n"};
  };
  return job;
}

}  // namespace

TEST(ScriptParse, SlurmDirectives) {
  std::string script =
      "#!/bin/bash\n"
      "#SBATCH -N 2\n"
      "#SBATCH -n 16\n"
      "#SBATCH -t 120:00\n"
      "cd /run/dir\n"
      "srun -N 2 -n 16 saxpy -n 1024\n";
  auto req = sched::parse_batch_script(script, sys::SchedulerKind::slurm);
  EXPECT_EQ(req.nodes, 2);
  EXPECT_EQ(req.ranks, 16);
  ASSERT_TRUE(req.time_limit_seconds.has_value());
  EXPECT_DOUBLE_EQ(*req.time_limit_seconds, 7200);
}

TEST(ScriptParse, SlurmLongFormAndHms) {
  std::string script = "#SBATCH --nodes 4\n#SBATCH --time=2:30:00\n";
  auto req = sched::parse_batch_script(script, sys::SchedulerKind::slurm);
  EXPECT_EQ(req.nodes, 4);
  EXPECT_DOUBLE_EQ(*req.time_limit_seconds, 9000);
}

TEST(ScriptParse, LsfDirectives) {
  std::string script = "#BSUB -nnodes 8\n#BSUB -n 32\n#BSUB -W 30\n";
  auto req = sched::parse_batch_script(script, sys::SchedulerKind::lsf);
  EXPECT_EQ(req.nodes, 8);
  EXPECT_EQ(req.ranks, 32);
  EXPECT_DOUBLE_EQ(*req.time_limit_seconds, 1800);
}

TEST(ScriptParse, FluxDirectives) {
  std::string script = "#flux: -N 2\n#flux: -n 8\n#flux: -t 45m\n";
  auto req = sched::parse_batch_script(script, sys::SchedulerKind::flux);
  EXPECT_EQ(req.nodes, 2);
  EXPECT_DOUBLE_EQ(*req.time_limit_seconds, 2700);
}

TEST(ScriptParse, IgnoresForeignDirectives) {
  std::string script = "#SBATCH -N 2\n#BSUB -nnodes 99\n";
  auto req = sched::parse_batch_script(script, sys::SchedulerKind::slurm);
  EXPECT_EQ(req.nodes, 2);
}

TEST(ScriptParse, MalformedValueThrows) {
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N lots\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
}

TEST(Scheduler, SingleJobRuns) {
  BatchScheduler s(16);
  auto id = s.submit(quick_job("saxpy", 2, 100));
  s.run_until_idle();
  const auto& r = s.record(id);
  EXPECT_EQ(r.state, JobState::completed);
  EXPECT_DOUBLE_EQ(r.start_time, 0);
  EXPECT_DOUBLE_EQ(r.end_time, 100);
  EXPECT_EQ(r.output, "Kernel done\n");
}

TEST(Scheduler, RejectsImpossibleJobs) {
  BatchScheduler s(4);
  EXPECT_THROW(s.submit(quick_job("too-big", 8, 10)),
               benchpark::SchedulerError);
  EXPECT_THROW(s.submit(quick_job("no-nodes", 0, 10)),
               benchpark::SchedulerError);
}

TEST(Scheduler, ParallelJobsShareNodes) {
  BatchScheduler s(4);
  auto a = s.submit(quick_job("a", 2, 100));
  auto b = s.submit(quick_job("b", 2, 50));
  s.run_until_idle();
  // Both fit: both start at t=0.
  EXPECT_DOUBLE_EQ(s.record(a).start_time, 0);
  EXPECT_DOUBLE_EQ(s.record(b).start_time, 0);
  EXPECT_DOUBLE_EQ(s.makespan(), 100);
}

TEST(Scheduler, FifoQueuesWhenFull) {
  BatchScheduler s(4, Policy::fifo);
  auto a = s.submit(quick_job("a", 4, 100));
  auto b = s.submit(quick_job("b", 2, 10));
  s.run_until_idle();
  EXPECT_DOUBLE_EQ(s.record(b).start_time, 100);
  EXPECT_DOUBLE_EQ(s.record(b).wait_time(), 100);
  EXPECT_DOUBLE_EQ(s.record(a).wait_time(), 0);
}

TEST(Scheduler, FifoHeadOfLineBlocking) {
  // FIFO: a small job behind a big queued job waits even if it would fit.
  BatchScheduler s(4, Policy::fifo);
  (void)s.submit(quick_job("running", 3, 100, 200));
  (void)s.submit(quick_job("head-needs-4", 4, 50, 100));
  auto little = s.submit(quick_job("little", 1, 10, 20));
  s.run_until_idle();
  EXPECT_GE(s.record(little).start_time, 100.0);
}

TEST(Scheduler, BackfillLetsSmallJobsThrough) {
  // Same workload with EASY backfill: the little job fits in the idle
  // node and finishes before the head job could start -> starts at 0.
  BatchScheduler s(4, Policy::backfill);
  (void)s.submit(quick_job("running", 3, 100, 200));
  auto head = s.submit(quick_job("head-needs-4", 4, 50, 100));
  auto little = s.submit(quick_job("little", 1, 10, 20));
  s.run_until_idle();
  EXPECT_DOUBLE_EQ(s.record(little).start_time, 0);
  // And the head job was not delayed by the backfill.
  EXPECT_DOUBLE_EQ(s.record(head).start_time, 100);
}

TEST(Scheduler, BackfillRefusesDelayingHead) {
  BatchScheduler s(4, Policy::backfill);
  (void)s.submit(quick_job("running", 3, 100, 200));
  (void)s.submit(quick_job("head-needs-4", 4, 50, 100));
  // This one's walltime limit (150) overruns the head's earliest start
  // (t=100), so backfill must refuse it.
  auto blocked = s.submit(quick_job("blocked", 1, 10, 150));
  s.run_until_idle();
  EXPECT_GE(s.record(blocked).start_time, 100.0);
}

TEST(Scheduler, BackfillImprovesMakespan) {
  // wide-1 leaves 2 idle nodes for 60s; the 2 small jobs fit into that
  // hole under backfill (one after the other, each within its 30s limit),
  // but under FIFO they queue behind wide-2 and trail the schedule.
  auto workload = [](Policy policy) {
    BatchScheduler s(8, policy);
    (void)s.submit(quick_job("wide-1", 6, 60, 100));
    (void)s.submit(quick_job("wide-2", 8, 60, 100));
    (void)s.submit(quick_job("small-1", 2, 30, 30));
    (void)s.submit(quick_job("small-2", 2, 30, 30));
    s.run_until_idle();
    return s.makespan();
  };
  double fifo = workload(Policy::fifo);
  double backfill = workload(Policy::backfill);
  EXPECT_DOUBLE_EQ(fifo, 150);      // smalls run after wide-2
  EXPECT_DOUBLE_EQ(backfill, 120);  // smalls hide inside wide-1's hole
  EXPECT_LT(backfill, fifo);
}

TEST(Scheduler, TimeoutCancelsJob) {
  BatchScheduler s(4);
  auto id = s.submit(quick_job("overrun", 1, 5000, /*limit=*/60));
  s.run_until_idle();
  const auto& r = s.record(id);
  EXPECT_EQ(r.state, JobState::timeout);
  EXPECT_DOUBLE_EQ(r.end_time, 60);
  EXPECT_NE(r.output.find("CANCELLED DUE TO TIME LIMIT"), std::string::npos);
}

TEST(Scheduler, FailedJobRecorded) {
  BatchScheduler s(4);
  BatchJob job = quick_job("crash", 1, 10);
  job.work = [] {
    return sched::JobResult{0.01, false, "Illegal instruction\n"};
  };
  auto id = s.submit(std::move(job));
  s.run_until_idle();
  EXPECT_EQ(s.record(id).state, JobState::failed);
}

TEST(Scheduler, AccountingListsAllJobs) {
  BatchScheduler s(8);
  for (int i = 0; i < 5; ++i) (void)s.submit(quick_job("j", 1, 10));
  s.run_until_idle();
  EXPECT_EQ(s.records().size(), 5u);
  EXPECT_THROW((void)s.record(999), benchpark::SchedulerError);
}

TEST(Scheduler, ThrowingJobReleasesItsNodes) {
  // A work callback that throws must not leak busy nodes: the job fails,
  // the nodes come back, and later jobs still run.
  BatchScheduler scheduler(4);
  BatchJob bomb = quick_job("bomb", 4, 10);
  bomb.work = []() -> sched::JobResult {
    throw std::runtime_error("node panic");
  };
  auto bomb_id = scheduler.submit(bomb);
  auto after_id = scheduler.submit(quick_job("after", 4, 5));
  scheduler.run_until_idle();

  const auto& failed = scheduler.record(bomb_id);
  EXPECT_EQ(failed.state, JobState::failed);
  EXPECT_NE(failed.output.find("job raised: node panic"), std::string::npos);
  EXPECT_EQ(scheduler.record(after_id).state, JobState::completed);
  EXPECT_EQ(scheduler.busy_nodes(), 0);
}

TEST(Scheduler, InjectedJobFaultFailsJobAndReleasesNodes) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse("sched.job:nth=1,key=flaky");

  BatchScheduler scheduler(2);
  auto flaky_id = scheduler.submit(quick_job("flaky", 1, 10));
  auto solid_id = scheduler.submit(quick_job("solid", 1, 10));
  scheduler.run_until_idle();

  EXPECT_EQ(scheduler.record(flaky_id).state, JobState::failed);
  EXPECT_NE(scheduler.record(flaky_id).output.find("injected transient"),
            std::string::npos);
  EXPECT_EQ(scheduler.record(solid_id).state, JobState::completed);
  EXPECT_EQ(scheduler.busy_nodes(), 0);
}

TEST(Scheduler, InjectedLatencyExtendsRuntime) {
  benchpark::support::ScopedFaultPlan scope;
  auto& plan = benchpark::support::FaultPlan::global();
  plan.clear();
  plan = benchpark::support::FaultPlan::parse("sched.job:latency=7.5");

  BatchScheduler scheduler(1);
  auto id = scheduler.submit(quick_job("slowed", 1, 10));
  scheduler.run_until_idle();
  const auto& record = scheduler.record(id);
  EXPECT_EQ(record.state, JobState::completed);
  EXPECT_DOUBLE_EQ(record.end_time - record.start_time, 17.5);
}

TEST(ScriptParse, NegativeTimeLimitRejected) {
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N 1\n#SBATCH -n 1\n"
                                         "#SBATCH -t -5:00\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N 1\n#SBATCH -n 1\n"
                                         "#SBATCH -t 0\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
  EXPECT_THROW(sched::parse_batch_script("#flux: -N 1\n#flux: -n 1\n"
                                         "#flux: -t -30m\n",
                                         sys::SchedulerKind::flux),
               benchpark::SchedulerError);
}

TEST(ScriptParse, NonPositiveResourceCountsRejected) {
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N -2\n#SBATCH -n 16\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
  EXPECT_THROW(sched::parse_batch_script("#SBATCH -N 2\n#SBATCH -n 0\n",
                                         sys::SchedulerKind::slurm),
               benchpark::SchedulerError);
}

// ------------------------------------------------- concurrency contract
// (regression tests for the service daemon's use: many dispatch workers
// submitting onto shared schedulers while one driver runs the clock)

TEST(SchedulerContention, ConcurrentSubmittersGetUniqueIdsAndAllRun) {
  BatchScheduler scheduler(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::vector<sched::JobId>> ids(kThreads);
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&scheduler, &ids, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ids[static_cast<std::size_t>(t)].push_back(scheduler.submit(
              quick_job("job-" + std::to_string(t) + "-" + std::to_string(i),
                        1 + (i % 4), 5.0)));
        }
      });
    }
    for (auto& s : submitters) s.join();
  }
  std::set<sched::JobId> unique;
  for (const auto& batch : ids) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads * kPerThread));

  scheduler.run_until_idle();
  EXPECT_EQ(scheduler.busy_nodes(), 0);
  auto records = scheduler.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto* record : records) {
    EXPECT_EQ(record->state, JobState::completed) << record->name;
  }
}

TEST(SchedulerContention, SubmitRacesRunUntilIdle) {
  // A submitter thread keeps landing jobs while the driver thread runs
  // the clock; the driver loops until everything submitted has finished
  // (run_until_idle may observe a momentarily-empty queue mid-stream).
  BatchScheduler scheduler(16);
  constexpr int kJobs = 60;
  std::atomic<int> submitted{0};
  std::thread submitter([&scheduler, &submitted] {
    for (int i = 0; i < kJobs; ++i) {
      scheduler.submit(quick_job("raced-" + std::to_string(i), 1 + (i % 3),
                                 2.0));
      submitted.fetch_add(1, std::memory_order_release);
      if (i % 8 == 0) std::this_thread::yield();
    }
  });
  while (submitted.load(std::memory_order_acquire) < kJobs ||
         scheduler.records().size() <
             static_cast<std::size_t>(kJobs) ||
         scheduler.busy_nodes() != 0) {
    scheduler.run_until_idle();
    std::this_thread::yield();
  }
  submitter.join();
  scheduler.run_until_idle();

  auto records = scheduler.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kJobs));
  for (const auto* record : records) {
    EXPECT_EQ(record->state, JobState::completed) << record->name;
    EXPECT_LE(record->nodes, scheduler.total_nodes());
  }
  EXPECT_EQ(scheduler.busy_nodes(), 0);
}

TEST(SchedulerContention, CallbacksMaySubmitMoreWork) {
  // Jobs spawned from inside a running job's work callback (the lock is
  // released around callbacks) are picked up by the same run loop.
  BatchScheduler scheduler(8);
  std::atomic<int> spawned{0};
  for (int seed = 0; seed < 4; ++seed) {
    BatchJob job;
    job.name = "seed-" + std::to_string(seed);
    job.user = "olga";
    job.nodes = 1;
    job.time_limit_seconds = 3600;
    job.work = [&scheduler, &spawned, seed] {
      for (int child = 0; child < 5; ++child) {
        scheduler.submit(quick_job(
            "child-" + std::to_string(seed) + "-" + std::to_string(child), 1,
            1.0));
        spawned.fetch_add(1, std::memory_order_relaxed);
      }
      return sched::JobResult{3.0, true, "seeded\n"};
    };
    scheduler.submit(std::move(job));
  }
  scheduler.run_until_idle();
  EXPECT_EQ(spawned.load(), 20);
  auto records = scheduler.records();
  ASSERT_EQ(records.size(), 24u);
  for (const auto* record : records) {
    EXPECT_EQ(record->state, JobState::completed) << record->name;
  }
  EXPECT_EQ(scheduler.busy_nodes(), 0);
}
