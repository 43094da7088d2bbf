// Parallel experiment-run engine tests: TemplateCache counter exactness
// under concurrent expansion, run_with_retry attempt accounting through
// the "experiment.exec" fault site, serial-vs-parallel byte parity of
// Workspace::run_all (clean, under a fault plan, and on a time-limit
// kill), and parallel ingestion through run_analysis. This suite
// carries the "threads" label so the TSAN CI job races the cache and the
// run engine for real.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/analysis/fom.hpp"
#include "src/ramble/expansion.hpp"
#include "src/ramble/workspace.hpp"
#include "src/runtime/simexec.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/string_util.hpp"
#include "src/system/system.hpp"
#include "src/yaml/parser.hpp"

namespace analysis = benchpark::analysis;
namespace ramble = benchpark::ramble;
namespace runtime = benchpark::runtime;
namespace support = benchpark::support;
namespace sys = benchpark::system;
using ramble::VariableMap;

namespace {

/// Reset the process-wide template cache (stats and entries) and restore
/// the unlimited default capacity when the test ends.
class ScopedTemplateCache {
public:
  ScopedTemplateCache() { ramble::TemplateCache::global().clear(); }
  ~ScopedTemplateCache() {
    auto& cache = ramble::TemplateCache::global();
    cache.set_capacity(0);
    cache.clear();
  }
  ScopedTemplateCache(const ScopedTemplateCache&) = delete;
  ScopedTemplateCache& operator=(const ScopedTemplateCache&) = delete;
};

const char* kSaxpyRambleYaml =
    "ramble:\n"
    "  applications:\n"
    "    saxpy:\n"
    "      workloads:\n"
    "        problem:\n"
    "          env_vars:\n"
    "            set:\n"
    "              OMP_NUM_THREADS: '{n_threads}'\n"
    "          variables:\n"
    "            n_ranks: '8'\n"
    "            batch_time: '120'\n"
    "          experiments:\n"
    "            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n"
    "              variables:\n"
    "                processes_per_node: ['8', '4']\n"
    "                n_nodes: ['1', '2']\n"
    "                n_threads: ['2', '4']\n"
    "                n: ['512', '1024']\n"
    "              matrices:\n"
    "              - size_threads:\n"
    "                - n\n"
    "                - n_threads\n"
    "  spack:\n"
    "    packages:\n"
    "      gcc1211:\n"
    "        spack_spec: gcc@12.1.1\n"
    "      default-mpi:\n"
    "        spack_spec: mvapich2@2.3.7\n"
    "      saxpy:\n"
    "        spack_spec: saxpy@1.0.0 +openmp\n"
    "        compiler: gcc1211\n"
    "    environments:\n"
    "      saxpy:\n"
    "        packages:\n"
    "        - default-mpi\n"
    "        - saxpy\n";

ramble::Workspace make_saxpy_workspace(const support::TempDir& tmp) {
  auto system = sys::SystemRegistry::instance().get("cts1");
  auto ws = ramble::Workspace::create(tmp.path() / "workspace", system);
  ws.configure(benchpark::yaml::parse(kSaxpyRambleYaml));
  return ws;
}

std::filesystem::path out_path(const ramble::Workspace& ws,
                               const ramble::PreparedExperiment& exp) {
  return ws.root() / "experiments" / exp.app / exp.workload / exp.name /
         (exp.name + ".out");
}

void expect_reports_equal(const ramble::RunReport& a,
                          const ramble::RunReport& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.total_attempts, b.total_attempts);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_DOUBLE_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_DOUBLE_EQ(a.total_simulated_seconds, b.total_simulated_seconds);
  // The hit/miss split depends on what the process-wide template cache
  // already holds when each run starts, but every lookup counts exactly
  // once.
  EXPECT_EQ(a.template_cache_hits + a.template_cache_misses,
            b.template_cache_hits + b.template_cache_misses);
}

}  // namespace

// --------------------------------------------------------- TemplateCache

TEST(TemplateCache, CountersExactUnderConcurrentExpansion) {
  ScopedTemplateCache scope;
  auto& cache = ramble::TemplateCache::global();

  // 8 distinct templates over one shared variable value: every expand()
  // performs exactly 2 cache lookups (the template and the value "4").
  std::vector<std::string> templates;
  for (int i = 0; i < 8; ++i) {
    templates.push_back("t" + std::to_string(i) + " -n {n}");
  }
  const VariableMap vars{{"n", "4"}};

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const auto& text = templates[(t + round) % templates.size()];
        auto expanded = ramble::expand(text, vars);
        EXPECT_EQ(expanded, text.substr(0, 2) + " -n 4");
      }
    });
  }
  for (auto& w : workers) w.join();

  auto stats = cache.stats();
  // Lookup accounting is exact: one hit or miss per get(), nothing
  // double-counted even when 8 threads race the same shard.
  EXPECT_EQ(stats.lookups(),
            static_cast<std::size_t>(kThreads) * kRounds * 2);
  // 9 unique keys (8 templates + the value "4"). Misses are
  // single-flight: concurrent first lookups of a key wait for one compile
  // and count as hits.
  EXPECT_EQ(stats.misses, 9u);
  EXPECT_EQ(stats.inserts, 9u);
  EXPECT_EQ(cache.size(), 9u);
  EXPECT_EQ(stats.evictions, 0u);

  // A warm serial pass over every template is all hits: 16 lookups, no
  // new misses.
  for (const auto& text : templates) (void)ramble::expand(text, vars);
  auto warm = cache.stats();
  EXPECT_EQ(warm.misses, stats.misses);
  EXPECT_EQ(warm.hits, stats.hits + 16u);
}

TEST(TemplateCache, EvictsOldestWhenOverCapacity) {
  ScopedTemplateCache scope;
  auto& cache = ramble::TemplateCache::global();
  cache.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    (void)cache.get("evict-" + std::to_string(i) + " {x" +
                    std::to_string(i) + "}");
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The oldest template rolled off: looking it up again is a fresh miss.
  auto before = cache.stats();
  (void)cache.get("evict-0 {x0}");
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(TemplateCache, ExpandUncachedBypassesTheCache) {
  ScopedTemplateCache scope;
  auto& cache = ramble::TemplateCache::global();
  const VariableMap vars{{"n", "{m}*2"}, {"m", "3"}};
  auto before = cache.stats();
  EXPECT_EQ(ramble::expand_uncached("a {n}", vars), "a 6");
  auto after = cache.stats();
  EXPECT_EQ(after.lookups(), before.lookups());
  EXPECT_EQ(cache.size(), 0u);
  // Cached and uncached paths agree on the result.
  EXPECT_EQ(ramble::expand("a {n}", vars), "a 6");
  EXPECT_GT(cache.stats().lookups(), after.lookups());
}

// --------------------------------------------------------- run_with_retry

TEST(RunWithRetry, TransientFaultRetriesWithDeterministicBackoff) {
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.nth = 1;  // first attempt of every experiment fails transiently
  plan.add_rule(rule);

  int calls = 0;
  auto run_once = [&] {
    ++calls;
    runtime::RunOutcome outcome;
    outcome.success = true;
    outcome.elapsed_seconds = 1.0;
    outcome.output = "ok\n";
    return outcome;
  };
  auto result = runtime::run_with_retry(run_once, "exp-a");
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(calls, 1);  // attempt 1 failed before reaching run_once
  EXPECT_TRUE(result.outcome.success);
  // Attempt 1's wait: base * 2^0 plus non-negative jitter.
  EXPECT_GE(result.retry_wait_seconds, 0.25);

  // The wait is a pure function of (seed, key, attempt): re-running
  // reproduces it bit for bit, and a different key changes it.
  auto again = runtime::run_with_retry(run_once, "exp-a");
  EXPECT_DOUBLE_EQ(again.retry_wait_seconds, result.retry_wait_seconds);
  auto other = runtime::run_with_retry(run_once, "exp-b");
  EXPECT_NE(other.retry_wait_seconds, result.retry_wait_seconds);
  // Pinned: the backoff formula and its jitter seed are part of the
  // reproducibility contract, so these bytes must never drift.
  EXPECT_DOUBLE_EQ(result.retry_wait_seconds, 0.29949456889396459);
  EXPECT_DOUBLE_EQ(other.retry_wait_seconds, 0.28591058601923391);
}

TEST(RunWithRetry, ExhaustedTransientBudgetSurfacesTempfail) {
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.nth = 1;
  rule.count = 99;
  plan.add_rule(rule);

  int calls = 0;
  auto result = runtime::run_with_retry(
      [&] {
        ++calls;
        return runtime::RunOutcome{};
      },
      "doomed");
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(result.attempts, 3);  // support::kRetryAttempts
  EXPECT_FALSE(result.outcome.success);
  EXPECT_EQ(result.outcome.exit_code, 75);  // EX_TEMPFAIL
}

TEST(RunWithRetry, PermanentFaultFailsImmediately) {
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.nth = 1;
  rule.kind = support::FaultKind::permanent;
  plan.add_rule(rule);

  int calls = 0;
  auto result = runtime::run_with_retry(
      [&] {
        ++calls;
        return runtime::RunOutcome{};
      },
      "hard-fail");
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(result.outcome.success);
  EXPECT_EQ(result.outcome.exit_code, 70);  // EX_SOFTWARE
  EXPECT_DOUBLE_EQ(result.retry_wait_seconds, 0.0);
}

TEST(RunWithRetry, TransientOutcomeExitCodeIsRetried) {
  support::ScopedFaultPlan scope;
  support::FaultPlan::global().clear();

  // The job itself reports EX_TEMPFAIL once, then succeeds.
  int calls = 0;
  auto flaky = [&] {
    runtime::RunOutcome outcome;
    if (++calls == 1) {
      outcome.exit_code = 75;
      outcome.output = "node drained\n";
      return outcome;
    }
    outcome.success = true;
    outcome.output = "ok\n";
    return outcome;
  };
  auto result = runtime::run_with_retry(flaky, "flaky");
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(result.outcome.success);
  EXPECT_GT(result.retry_wait_seconds, 0.0);

  // A permanently tempfailing job exhausts the budget.
  auto always_tempfail = [] {
    runtime::RunOutcome outcome;
    outcome.exit_code = 75;
    return outcome;
  };
  auto exhausted = runtime::run_with_retry(always_tempfail, "flaky");
  EXPECT_EQ(exhausted.attempts, 3);
  EXPECT_EQ(exhausted.outcome.exit_code, 75);
}

// -------------------------------------------------- run_all byte parity

TEST(RunEngine, ParallelRunAllMatchesSerialByteForByte) {
  ScopedTemplateCache cache_scope;
  support::TempDir tmp_serial;
  support::TempDir tmp_parallel;
  auto ws_serial = make_saxpy_workspace(tmp_serial);
  auto ws_parallel = make_saxpy_workspace(tmp_parallel);
  ws_serial.setup();
  ws_parallel.setup();

  ramble::TemplateCache::global().clear();
  auto serial = ws_serial.run_all(ramble::RunRequest{.threads = 1});
  ramble::TemplateCache::global().clear();
  auto parallel = ws_parallel.run_all(ramble::RunRequest{.threads = 8});

  EXPECT_EQ(serial.experiments, 8u);
  EXPECT_EQ(serial.succeeded, 8u);
  EXPECT_EQ(serial.total_attempts, 8u);
  expect_reports_equal(serial, parallel);

  ASSERT_EQ(ws_serial.prepared().size(), ws_parallel.prepared().size());
  for (std::size_t i = 0; i < ws_serial.prepared().size(); ++i) {
    const auto& exp_s = ws_serial.prepared()[i];
    const auto& exp_p = ws_parallel.prepared()[i];
    EXPECT_EQ(exp_s.name, exp_p.name);
    EXPECT_EQ(support::read_file(out_path(ws_serial, exp_s)),
              support::read_file(out_path(ws_parallel, exp_p)))
        << exp_s.name;
  }

  // FOM tables render identically whichever width analyzed them.
  auto table_serial =
      ws_serial.analyze(ramble::RunRequest{.threads = 1}).to_table().render();
  auto table_parallel = ws_parallel.analyze(ramble::RunRequest{.threads = 8})
                            .to_table()
                            .render();
  EXPECT_EQ(table_serial, table_parallel);
  EXPECT_NE(table_serial.find("SUCCESS"), std::string::npos);
}

TEST(RunEngine, ParallelMatchesSerialUnderFaultPlan) {
  ScopedTemplateCache cache_scope;
  support::ScopedFaultPlan fault_scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.nth = 1;  // every experiment's first attempt fails transiently
  plan.add_rule(rule);

  support::TempDir tmp_serial;
  support::TempDir tmp_parallel;
  auto ws_serial = make_saxpy_workspace(tmp_serial);
  auto ws_parallel = make_saxpy_workspace(tmp_parallel);
  ws_serial.setup();
  ws_parallel.setup();

  auto serial = ws_serial.run_all(ramble::RunRequest{.threads = 1});
  auto parallel = ws_parallel.run_all(ramble::RunRequest{.threads = 8});

  EXPECT_EQ(serial.experiments, 8u);
  EXPECT_EQ(serial.retried, 8u);
  EXPECT_EQ(serial.total_attempts, 16u);
  EXPECT_EQ(serial.succeeded, 8u);
  EXPECT_GT(serial.retry_wait_seconds, 0.0);
  expect_reports_equal(serial, parallel);

  for (std::size_t i = 0; i < ws_serial.prepared().size(); ++i) {
    EXPECT_EQ(
        support::read_file(out_path(ws_serial, ws_serial.prepared()[i])),
        support::read_file(out_path(ws_parallel, ws_parallel.prepared()[i])));
  }
  EXPECT_EQ(
      ws_serial.analyze(ramble::RunRequest{.threads = 1}).to_table().render(),
      ws_parallel.analyze(ramble::RunRequest{.threads = 8})
          .to_table()
          .render());
}

TEST(RunEngine, PermanentFaultCrashesOneExperiment) {
  ScopedTemplateCache cache_scope;
  support::ScopedFaultPlan fault_scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.key = "saxpy_512_1_8_2";  // exactly one of the eight experiments
  rule.nth = 1;
  rule.kind = support::FaultKind::permanent;
  plan.add_rule(rule);

  support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  ws.setup();
  auto report = ws.run_all(ramble::RunRequest{.threads = 4});
  EXPECT_EQ(report.experiments, 8u);
  EXPECT_EQ(report.succeeded, 7u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.retried, 0u);  // permanent faults are not retried
  EXPECT_EQ(report.total_attempts, 8u);

  auto analyzed = ws.analyze(ramble::RunRequest{.threads = 4});
  EXPECT_EQ(analyzed.num_success(), 7u);
  for (const auto& result : analyzed.results) {
    if (result.name == "saxpy_512_1_8_2") {
      EXPECT_FALSE(result.success);
      EXPECT_EQ(result.output.find("Kernel done"), std::string::npos);
    } else {
      EXPECT_TRUE(result.success) << result.name;
    }
  }
}

TEST(RunEngine, RunAllRequiresSetup) {
  support::TempDir tmp;
  auto ws = make_saxpy_workspace(tmp);
  EXPECT_THROW(ws.run_all(), benchpark::ExperimentError);
}

TEST(RunEngine, TimeLimitKillIsIdenticalAtEveryWidth) {
  ScopedTemplateCache cache_scope;
  support::ScopedFaultPlan fault_scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  // One experiment runs 60 modeled seconds longer than usual; every
  // script asks for 0.5 minutes ("#SBATCH -t 0.5:00").
  const std::string slow = "saxpy_512_1_8_2";
  support::FaultRule rule;
  rule.site = "experiment.exec";
  rule.key = slow;
  rule.latency_seconds = 60;
  rule.kind = support::FaultKind::none;
  plan.add_rule(rule);
  const std::string yaml = support::replace_all(
      kSaxpyRambleYaml, "batch_time: '120'", "batch_time: '0.5'");
  auto make = [&yaml](const support::TempDir& tmp) {
    auto ws = ramble::Workspace::create(
        tmp.path() / "workspace", sys::SystemRegistry::instance().get("cts1"));
    ws.configure(benchpark::yaml::parse(yaml));
    ws.setup();
    return ws;
  };

  support::TempDir tmp_serial;
  support::TempDir tmp_parallel;
  auto ws_serial = make(tmp_serial);
  auto ws_parallel = make(tmp_parallel);
  auto serial = ws_serial.run_all(ramble::RunRequest{.threads = 1});
  auto parallel = ws_parallel.run_all(ramble::RunRequest{.threads = 8});

  EXPECT_EQ(serial.experiments, 8u);
  EXPECT_EQ(serial.timeouts, 1u);
  EXPECT_EQ(serial.failed, 1u);
  expect_reports_equal(serial, parallel);

  bool saw_slow = false;
  for (std::size_t i = 0; i < ws_serial.prepared().size(); ++i) {
    const auto& exp = ws_serial.prepared()[i];
    const auto& outcome = serial.per_experiment[i];
    auto bytes = support::read_file(out_path(ws_serial, exp));
    EXPECT_EQ(bytes, support::read_file(
                         out_path(ws_parallel, ws_parallel.prepared()[i])))
        << exp.name;
    if (exp.name != slow) {
      EXPECT_TRUE(outcome.success) << exp.name;
      continue;
    }
    saw_slow = true;
    EXPECT_FALSE(outcome.success);
    EXPECT_DOUBLE_EQ(outcome.runtime_seconds, 30.0);  // clamped to limit
    // Job ids follow submission order, like the batch scheduler's.
    const std::string kill = "\nslurmstepd: *** JOB " + std::to_string(i + 1) +
                             " CANCELLED DUE TO TIME LIMIT ***\n";
    ASSERT_GE(bytes.size(), kill.size());
    EXPECT_EQ(bytes.substr(bytes.size() - kill.size()), kill);
  }
  EXPECT_TRUE(saw_slow);
}

TEST(RunEngine, NodeRequestAboveSystemSizeThrows) {
  // cts1 has 256 nodes; the n_nodes=512 experiments cannot be placed.
  const std::string yaml = support::replace_all(
      kSaxpyRambleYaml, "n_nodes: ['1', '2']", "n_nodes: ['1', '512']");
  for (int threads : {1, 8}) {
    support::TempDir tmp;
    auto ws = ramble::Workspace::create(
        tmp.path() / "workspace", sys::SystemRegistry::instance().get("cts1"));
    ws.configure(benchpark::yaml::parse(yaml));
    ws.setup();
    EXPECT_THROW(ws.run_all(ramble::RunRequest{.threads = threads}),
                 benchpark::SchedulerError)
        << threads;
  }
}

// ---------------------------------------------------- parallel analysis

TEST(Analysis, ExtractFomsBatchMatchesSerialAtAnyWidth) {
  std::vector<analysis::FomSpec> specs{
      {"elapsed", "elapsed ([0-9.]+)s", "", "s"},
      {"status", "Kernel (done)", "", ""}};
  std::vector<analysis::SuccessCriterion> criteria{{"pass", "Kernel done"}};

  std::vector<std::string> outputs;
  for (int i = 0; i < 7; ++i) {
    outputs.push_back("elapsed " + std::to_string(i) + ".5s\nKernel done\n");
  }
  outputs.push_back("crashed before printing anything\n");

  std::vector<analysis::FomExtractTask> tasks;
  for (const auto& output : outputs) {
    tasks.push_back({&specs, &criteria, &output});
  }
  tasks.push_back({&specs, &criteria, nullptr});  // never ran

  auto serial = analysis::extract_foms_batch(tasks, 1);
  auto parallel = analysis::extract_foms_batch(tasks, 8);
  ASSERT_EQ(serial.size(), tasks.size());
  ASSERT_EQ(parallel.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(serial[i].extracted, parallel[i].extracted) << i;
    EXPECT_EQ(serial[i].success, parallel[i].success) << i;
    ASSERT_EQ(serial[i].foms.size(), parallel[i].foms.size()) << i;
    for (std::size_t j = 0; j < serial[i].foms.size(); ++j) {
      EXPECT_EQ(serial[i].foms[j].name, parallel[i].foms[j].name);
      EXPECT_EQ(serial[i].foms[j].raw, parallel[i].foms[j].raw);
    }
  }
  EXPECT_TRUE(serial[0].extracted);
  EXPECT_TRUE(serial[0].success);
  ASSERT_EQ(serial[0].foms.size(), 2u);
  EXPECT_DOUBLE_EQ(serial[0].foms[0].value, 0.5);
  EXPECT_TRUE(serial[7].extracted);
  EXPECT_FALSE(serial[7].success);  // ran, but no "Kernel done"
  EXPECT_FALSE(serial.back().extracted);  // null output: never ran
}

// ------------------------------------------------------------- ingestion

namespace {

analysis::ExperimentRecord make_record(const std::string& system,
                                       const std::string& name,
                                       bool success) {
  analysis::ExperimentRecord record;
  record.benchmark = "saxpy";
  record.system = system;
  record.experiment = name;
  record.variables = {{"n", "512"}};
  record.declared_foms = {{"elapsed", "elapsed ([0-9.]+)s", "", "s"},
                          {"bw", "bw ([0-9.]+)", "", "GB/s"}};
  record.success = success;
  if (success) {
    record.foms = {{"elapsed", "1.5", 1.5, true, "s"},
                   {"status", "done", 0, false, ""}};
    record.output =
        "elapsed 1.5s\n"
        "caliper: region profile\n"
        "main 0.500000 s\n"
        "main/kernel 0.300000 s\n"
        "main/mpi 0.100000 s\n";
  }
  return record;
}

/// Ingest `records` through the façade (ingestion only) at `threads`.
analysis::AnalysisResult ingest(
    const std::vector<analysis::ExperimentRecord>& records, int threads) {
  analysis::AnalysisRequest request;
  request.records = &records;
  request.detect = false;
  request.threads = threads;
  return analysis::run_analysis(request);
}

}  // namespace

TEST(Ingest, RowsFromRecordsKeepsCampaignSemantics) {
  std::vector<analysis::ExperimentRecord> records{
      make_record("cts1", "ok_1", true),
      make_record("cts1", "crashed_1", false),
      make_record("ats2", "ok_2", true)};

  auto serial = ingest(records, 1);
  const auto& rows = serial.ingested_rows;
  // Success records contribute one row per *numeric* FOM (1 each);
  // the failed record one CRASHED row per *declared* FOM (2).
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].experiment, "ok_1");
  EXPECT_EQ(rows[0].fom_name, "elapsed");
  EXPECT_TRUE(rows[0].success);
  EXPECT_DOUBLE_EQ(rows[0].value, 1.5);
  EXPECT_EQ(rows[1].experiment, "crashed_1");
  EXPECT_EQ(rows[1].fom_name, "elapsed");
  EXPECT_FALSE(rows[1].success);
  EXPECT_EQ(rows[1].units, "s");
  EXPECT_EQ(rows[2].fom_name, "bw");
  EXPECT_FALSE(rows[2].success);
  EXPECT_EQ(rows[3].experiment, "ok_2");

  // Parallel build, identical rows; serial insertion numbers them in
  // record order.
  auto wide = ingest(records, 8);
  ASSERT_EQ(wide.ingested_rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(wide.ingested_rows[i].experiment, rows[i].experiment) << i;
    EXPECT_EQ(wide.ingested_rows[i].fom_name, rows[i].fom_name) << i;
  }
  EXPECT_EQ(serial.db.size(), rows.size());
  EXPECT_EQ(serial.stats.rows_ingested, rows.size());
  auto numbered = wide.db.query({});
  ASSERT_EQ(numbered.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(numbered[i]->sequence, i + 1) << i;
    EXPECT_EQ(numbered[i]->experiment, rows[i].experiment) << i;
  }
}

TEST(Ingest, ProfileFromOutputParsesCaliperSection) {
  auto with_output = [](std::string output) {
    auto record = make_record("cts1", "ok_1", true);
    record.output = std::move(output);
    return std::vector<analysis::ExperimentRecord>{record};
  };
  auto parsed = ingest(with_output("noise line\n"
                                   "caliper: region profile\n"
                                   "main 0.500000 s\n"
                                   "main/kernel 0.300000 s\n"
                                   "trailing non-profile line\n"),
                       1);
  ASSERT_EQ(parsed.thicket.num_profiles(), 1u);
  // The section ends at the first line that does not parse.
  EXPECT_EQ(parsed.thicket.paths(),
            (std::vector<std::string>{"main", "main/kernel"}));
  auto main = parsed.thicket.value("main", "cts1/ok_1");
  ASSERT_TRUE(main.has_value());
  EXPECT_DOUBLE_EQ(*main, 0.5);

  EXPECT_EQ(ingest(with_output("no marker here"), 1).thicket.num_profiles(),
            0u);
  EXPECT_EQ(
      ingest(with_output("caliper: region profile\n"), 1)
          .thicket.num_profiles(),
      0u);
}

TEST(Ingest, ThicketFromRecordsBuildsMetadataColumns) {
  std::vector<analysis::ExperimentRecord> records{
      make_record("cts1", "ok_1", true),
      make_record("cts1", "crashed_1", false),  // no output: no column
      make_record("ats2", "ok_2", true)};
  auto result = ingest(records, 8);
  const auto& thicket = result.thicket;
  EXPECT_EQ(thicket.num_profiles(), 2u);
  EXPECT_EQ(result.stats.thicket_columns, 2u);
  auto names = thicket.column_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "cts1/ok_1");
  EXPECT_EQ(names[1], "ats2/ok_2");
  auto value = thicket.value("main/kernel", "cts1/ok_1");
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 0.3);
  // Metadata predicates select by system.
  auto cts1_only = thicket.filter(
      [](const std::map<std::string, std::string>& m) {
        auto it = m.find("system");
        return it != m.end() && it->second == "cts1";
      });
  EXPECT_EQ(cts1_only.num_profiles(), 1u);

  // A caller-owned sink receives the same columns, in record order.
  analysis::Thicket sink;
  analysis::AnalysisRequest request;
  request.records = &records;
  request.thicket_out = &sink;
  request.detect = false;
  request.threads = 8;
  auto sunk = analysis::run_analysis(request);
  EXPECT_EQ(sunk.thicket.num_profiles(), 0u);
  EXPECT_EQ(sink.column_names(), names);
  EXPECT_EQ(sunk.stats.thicket_columns, 2u);
}
