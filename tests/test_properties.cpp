// Property-based and parameterized suites: invariants that must hold
// across the whole configuration space, not just the paper's examples.
//
//   * the full workflow runs for every compatible (experiment, system)
//     pair in the registries
//   * spec parse/print round-trips and constraint algebra laws
//   * version-constraint algebra (symmetry, subset => intersects)
//   * microarchitecture compatibility is a partial order
//   * scheduler safety (capacity, causality) under random workloads
//   * Extra-P recovers every hypothesis in its search space exactly
//   * YAML round-trips randomly generated documents
//   * collective models are monotone in ranks and bytes
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "src/analysis/extrap.hpp"
#include "src/archspec/microarch.hpp"
#include "src/core/driver.hpp"
#include "src/obs/trace.hpp"
#include "src/support/parallel.hpp"
#include "src/sched/scheduler.hpp"
#include "src/spec/spec.hpp"
#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/rng.hpp"
#include "src/support/string_util.hpp"
#include "src/system/perf_model.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/parser.hpp"

namespace spec = benchpark::spec;
namespace sys = benchpark::system;

// ------------------------------------------------- workflow matrix sweep

struct WorkflowCase {
  const char* benchmark;
  const char* variant;
  const char* system;
  bool expect_all_success;
};

class WorkflowMatrixTest : public ::testing::TestWithParam<WorkflowCase> {};

TEST_P(WorkflowMatrixTest, FullWorkflowBehavesAsExpected) {
  const auto& param = GetParam();
  benchpark::core::Driver driver;
  benchpark::support::TempDir tmp("wf-matrix");
  auto report = driver.run_workflow({param.benchmark, param.variant},
                                    param.system, tmp.path() / "ws");
  ASSERT_GT(report.results.size(), 0u);
  if (param.expect_all_success) {
    EXPECT_EQ(report.num_success(), report.results.size());
    for (const auto& result : report.results) {
      EXPECT_TRUE(result.ran) << result.name;
      EXPECT_FALSE(result.foms.empty()) << result.name;
    }
  } else {
    EXPECT_EQ(report.num_success(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompatiblePairs, WorkflowMatrixTest,
    ::testing::Values(
        WorkflowCase{"saxpy", "openmp", "cts1", true},
        WorkflowCase{"saxpy", "openmp", "ats2", true},
        WorkflowCase{"saxpy", "openmp", "ats4", true},
        WorkflowCase{"saxpy", "openmp", "cloud-cts", true},
        WorkflowCase{"saxpy", "cuda", "ats2", true},
        WorkflowCase{"saxpy", "rocm", "ats4", true},
        WorkflowCase{"amg2023", "openmp", "cts1", true},
        WorkflowCase{"amg2023", "cuda", "ats2", true},
        WorkflowCase{"amg2023", "rocm", "ats4", true},
        // Section 7.1: the math-library crash on the cloud twin.
        WorkflowCase{"amg2023", "openmp", "cloud-cts", false},
        WorkflowCase{"stream", "openmp", "cts1", true},
        WorkflowCase{"stream", "openmp", "ats4", true},
        WorkflowCase{"osu-bcast", "mpi", "cts1", true},
        WorkflowCase{"osu-bcast", "mpi", "ats2", true}),
    [](const ::testing::TestParamInfo<WorkflowCase>& info) {
      return benchpark::support::replace_all(
          std::string(info.param.benchmark) + "_" + info.param.variant +
              "_on_" + info.param.system,
          "-", "_");
    });

// ----------------------------------------------------- spec round trips

class SpecRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecRoundTripTest, ParsePrintParseIsIdentity) {
  auto first = spec::Spec::parse(GetParam());
  auto second = spec::Spec::parse(first.str());
  EXPECT_TRUE(first == second) << GetParam() << " -> " << first.str();
}

TEST_P(SpecRoundTripTest, ConstrainWithSelfIsIdempotent) {
  auto s = spec::Spec::parse(GetParam());
  auto merged = s;
  merged.constrain(s);
  EXPECT_TRUE(merged == s) << GetParam();
}

TEST_P(SpecRoundTripTest, SatisfiesSelfConstraints) {
  auto s = spec::Spec::parse(GetParam());
  EXPECT_TRUE(s.satisfies(s)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SpecRoundTripTest,
    ::testing::Values(
        "zlib", "amg2023+caliper", "saxpy@1.0.0+openmp~cuda",
        "hypre@2.24:2.28", "openblas threads=openmp",
        "amg2023@1.1+caliper%gcc@12.1.1",
        "saxpy@1.0.0+openmp%gcc@12.1.1 target=broadwell ^cmake@3.23.1:",
        "amg2023 ^hypre+cuda ^mvapich2@2.3.7",
        "mvapich2@2.3.7-gcc12.1.1-magic",
        "hdf5+mpi ^zlib@1.2:",
        "stream@5.10 target=zen3",
        "caliper~mpi+cuda%clang@14.0.5"));

// ------------------------------------------------- version algebra laws

// Strings, not const char*: gtest prints a const char* parameter with its
// address, which would put a per-process value into every test name.
class VersionPairTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {
};

TEST_P(VersionPairTest, IntersectsIsSymmetric) {
  auto a = spec::VersionConstraint::parse(GetParam().first);
  auto b = spec::VersionConstraint::parse(GetParam().second);
  EXPECT_EQ(a.intersects(b), b.intersects(a))
      << GetParam().first << " vs " << GetParam().second;
}

TEST_P(VersionPairTest, SubsetImpliesIntersects) {
  auto a = spec::VersionConstraint::parse(GetParam().first);
  auto b = spec::VersionConstraint::parse(GetParam().second);
  if (a.subset_of(b)) {
    EXPECT_TRUE(a.intersects(b));
  }
  if (b.subset_of(a)) {
    EXPECT_TRUE(b.intersects(a));
  }
}

TEST_P(VersionPairTest, ConstrainProducesSubsetOrThrows) {
  auto a = spec::VersionConstraint::parse(GetParam().first);
  auto b = spec::VersionConstraint::parse(GetParam().second);
  try {
    auto merged = a;
    merged.constrain(b);
    // Whatever survives the merge must still admit something both sides
    // admit — checked via intersects with each input.
    EXPECT_TRUE(merged.intersects(a));
    EXPECT_TRUE(merged.intersects(b));
  } catch (const benchpark::SpecError&) {
    EXPECT_FALSE(a.intersects(b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, VersionPairTest,
    ::testing::Values(std::pair{"1.2", "1.2.5"}, std::pair{"1.2", "1.3"},
                      std::pair{"1.2:1.8", "1.5:2.0"},
                      std::pair{"1.2:1.4", "2.0:"},
                      std::pair{":1.8", "1.2:"},
                      std::pair{"=1.2", "1.2"},
                      std::pair{"1.2,2.0:2.4", "2.2"},
                      std::pair{"3:", ":2"},
                      std::pair{"1.2.3", "1.2"},
                      std::pair{"2.3.7", "2.3.6:2.3.8"}));

// ------------------------------------- microarchitecture partial order

class MicroarchOrderTest : public ::testing::Test {
protected:
  const benchpark::archspec::MicroarchDatabase& db =
      benchpark::archspec::MicroarchDatabase::instance();
};

TEST_F(MicroarchOrderTest, Reflexive) {
  for (const auto& name : db.names()) {
    EXPECT_TRUE(db.compatible(name, name)) << name;
  }
}

TEST_F(MicroarchOrderTest, AntisymmetricUpToFeatureEquality) {
  for (const auto& a : db.names()) {
    for (const auto& b : db.names()) {
      if (a == b) continue;
      if (db.compatible(a, b) && db.compatible(b, a)) {
        EXPECT_EQ(db.get(a).features(), db.get(b).features())
            << a << " <-> " << b;
      }
    }
  }
}

TEST_F(MicroarchOrderTest, Transitive) {
  auto names = db.names();
  for (const auto& a : names) {
    for (const auto& b : names) {
      if (!db.compatible(a, b)) continue;
      for (const auto& c : names) {
        if (db.compatible(b, c)) {
          EXPECT_TRUE(db.compatible(a, c))
              << a << " >= " << b << " >= " << c;
        }
      }
    }
  }
}

TEST_F(MicroarchOrderTest, AncestorsAlwaysCompatible) {
  for (const auto& name : db.names()) {
    for (const auto& ancestor : db.ancestors(name)) {
      EXPECT_TRUE(db.compatible(name, ancestor)) << name << " -> " << ancestor;
      // Features only grow down the DAG.
      const auto& mine = db.get(name).features();
      for (const auto& f : db.get(ancestor).features()) {
        EXPECT_TRUE(mine.count(f)) << name << " missing " << f;
      }
    }
  }
}

// -------------------------------------------- scheduler safety properties

class SchedulerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerPropertyTest, RandomWorkloadSafety) {
  const int seed = GetParam();
  benchpark::support::Rng rng(static_cast<std::uint64_t>(seed));
  const int total_nodes = 32;
  auto policy = (seed % 2 == 0) ? benchpark::sched::Policy::fifo
                                : benchpark::sched::Policy::backfill;
  benchpark::sched::BatchScheduler scheduler(total_nodes, policy);

  const int num_jobs = 80;
  for (int i = 0; i < num_jobs; ++i) {
    benchpark::sched::BatchJob job;
    job.name = "j" + std::to_string(i);
    job.user = "prop";
    job.nodes = 1 + static_cast<int>(rng.below(total_nodes));
    job.ranks = job.nodes;
    double runtime = 1 + rng.uniform(0, 300);
    // ~15% of jobs exceed their limit (timeout injection).
    bool overruns = rng.next_double() < 0.15;
    job.time_limit_seconds = overruns ? runtime * 0.5 : runtime * 1.2;
    job.work = [runtime] {
      return benchpark::sched::JobResult{runtime, true, "done\n"};
    };
    (void)scheduler.submit(std::move(job));
  }
  scheduler.run_until_idle();

  auto records = scheduler.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(num_jobs));

  // Causality: every job started at/after submission and ended at/after
  // its start; terminal states only.
  for (const auto* r : records) {
    EXPECT_GE(r->start_time, r->submit_time) << r->name;
    EXPECT_GE(r->end_time, r->start_time) << r->name;
    EXPECT_TRUE(r->state == benchpark::sched::JobState::completed ||
                r->state == benchpark::sched::JobState::timeout)
        << r->name;
    if (r->state == benchpark::sched::JobState::timeout) {
      EXPECT_NEAR(r->end_time - r->start_time, r->time_limit_seconds, 1e-9);
    }
  }

  // Capacity: at every job-start instant, the set of running jobs fits.
  for (const auto* at : records) {
    int busy = 0;
    for (const auto* other : records) {
      if (other->start_time <= at->start_time &&
          other->end_time > at->start_time) {
        busy += other->nodes;
      }
    }
    EXPECT_LE(busy, total_nodes)
        << "capacity exceeded at t=" << at->start_time;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range(1, 13));

// --------------------------------------------- Extra-P exact recovery

struct Hypothesis {
  double exponent;
  int log_exponent;
};

class ExtrapRecoveryTest : public ::testing::TestWithParam<Hypothesis> {};

TEST_P(ExtrapRecoveryTest, RecoversExactHypothesis) {
  const auto& h = GetParam();
  std::vector<benchpark::analysis::Measurement> data;
  for (double p : {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}) {
    double basis = std::pow(p, h.exponent);
    if (h.log_exponent) basis *= std::pow(std::log2(p), h.log_exponent);
    data.push_back({p, 1.5 + 0.25 * basis});
  }
  auto model = benchpark::analysis::fit_scaling_model(data);
  // The fit must be essentially exact; the winning hypothesis is either
  // the generator or an equivalent-by-RSS alternative.
  for (const auto& m : data) {
    EXPECT_NEAR(model.evaluate(m.p), m.value,
                1e-6 * std::max(1.0, std::fabs(m.value)))
        << "p=" << m.p;
  }
  EXPECT_GT(model.r_squared, 0.999999);
}

INSTANTIATE_TEST_SUITE_P(
    HypothesisSpace, ExtrapRecoveryTest,
    ::testing::Values(Hypothesis{0, 1}, Hypothesis{0, 2},
                      Hypothesis{0.5, 0}, Hypothesis{0.5, 1},
                      Hypothesis{1, 0}, Hypothesis{1, 1},
                      Hypothesis{1, 2}, Hypothesis{2, 0},
                      Hypothesis{1.0 / 3, 0}, Hypothesis{0.75, 1},
                      Hypothesis{1.5, 0}, Hypothesis{3, 0}),
    [](const ::testing::TestParamInfo<Hypothesis>& info) {
      auto e = static_cast<int>(info.param.exponent * 100);
      return "p" + std::to_string(e) + "log" +
             std::to_string(info.param.log_exponent);
    });

// -------------------------------------------------- YAML fuzz round trip

namespace {

benchpark::yaml::Node random_node(benchpark::support::Rng& rng, int depth) {
  using benchpark::yaml::Node;
  auto pick = rng.below(depth >= 3 ? 2 : 4);
  switch (pick) {
    case 0:
      return Node("v" + std::to_string(rng.below(1000)));
    case 1: {
      // Tricky scalars the emitter must quote.
      const char* tricky[] = {"true",  "null",    "8",      "1.5",
                              "a: b",  "x #y",    "",       " lead",
                              "trail ", "[weird", "-dash",  "'q'"};
      return Node(tricky[rng.below(12)]);
    }
    case 2: {
      Node seq = Node::make_sequence();
      auto n = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        seq.push_back(random_node(rng, depth + 1));
      }
      return seq;
    }
    default: {
      Node map = Node::make_mapping();
      auto n = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        map["key" + std::to_string(i)] = random_node(rng, depth + 1);
      }
      return map;
    }
  }
}

}  // namespace

class YamlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(YamlFuzzTest, EmitParseRoundTrip) {
  benchpark::support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  auto original = random_node(rng, 0);
  if (original.is_scalar() || original.is_null()) return;  // document root
  auto text = benchpark::yaml::emit(original);
  benchpark::yaml::Node reparsed;
  ASSERT_NO_THROW(reparsed = benchpark::yaml::parse(text)) << text;
  EXPECT_TRUE(original == reparsed) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlFuzzTest, ::testing::Range(1, 33));

// ------------------------------------------- collective model monotonicity

struct CollectiveCase {
  const char* system;
  sys::Collective kind;
};

class CollectiveMonotoneTest
    : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveMonotoneTest, MonotoneInRanksAndBytes) {
  const auto& param = GetParam();
  const auto& system = sys::SystemRegistry::instance().get(param.system);
  sys::PerfModel model(system);
  double previous = 0;
  for (int p : {2, 4, 16, 64, 256, 1024, 4096}) {
    double t = model.collective_seconds(param.kind, p, 4096);
    EXPECT_GE(t, previous) << param.system << " p=" << p;
    previous = t;
  }
  previous = 0;
  for (std::uint64_t bytes : {8ull, 512ull, 65536ull, 1048576ull}) {
    double t = model.collective_seconds(param.kind, 128, bytes);
    EXPECT_GE(t, previous) << param.system << " bytes=" << bytes;
    previous = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndKinds, CollectiveMonotoneTest,
    ::testing::Values(
        CollectiveCase{"cts1", sys::Collective::bcast},
        CollectiveCase{"cts1", sys::Collective::allreduce},
        CollectiveCase{"ats2", sys::Collective::bcast},
        CollectiveCase{"ats2", sys::Collective::barrier},
        CollectiveCase{"ats4", sys::Collective::allreduce},
        CollectiveCase{"ats4", sys::Collective::allgather},
        CollectiveCase{"cloud-cts", sys::Collective::bcast},
        CollectiveCase{"cloud-cts", sys::Collective::reduce}),
    [](const ::testing::TestParamInfo<CollectiveCase>& info) {
      return benchpark::support::replace_all(info.param.system, "-", "_") +
             "_" +
             benchpark::support::replace_all(
                 std::string(sys::collective_name(info.param.kind)), "_",
                 "");
    });

// ------------------------------------------------ tracing properties

namespace {

namespace obs = benchpark::obs;

/// Enable the global trace collector for one test, restoring the
/// disabled empty state afterwards.
class ScopedTrace {
public:
  ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.reset();
    c.set_enabled(true);
  }
  ~ScopedTrace() {
    auto& c = obs::TraceCollector::global();
    c.set_enabled(false);
    c.reset();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

}  // namespace

class TraceNestingPropertyTest : public ::testing::TestWithParam<int> {};

// Under arbitrary ThreadPool fan-out the span stream must stay
// well-nested per thread: any two wall-clock spans on one thread are
// either disjoint or one contains the other, every parent id resolves,
// and every pool chunk hangs off its batch's span.
TEST_P(TraceNestingPropertyTest, PoolWorkloadsProduceWellNestedSpans) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  benchpark::support::Rng rng(seed * 6271);
  ScopedTrace guard;
  auto& collector = obs::TraceCollector::global();

  const int rounds = 2 + static_cast<int>(rng.below(3));
  std::size_t pool_batches = 0;
  for (int round = 0; round < rounds; ++round) {
    obs::ScopedSpan round_span(collector,
                               "round" + std::to_string(round), "prop");
    const std::size_t n = 8 + rng.below(56);
    const int threads = 2 + static_cast<int>(rng.below(6));
    if (threads > 1 && n >= 2) ++pool_batches;
    benchpark::support::parallel_for(n, threads, [&](std::size_t lo,
                                                     std::size_t hi) {
      // Per-chunk depth derived from the range (the shared rng is not
      // thread-safe); every chunk nests a few spans and emits leaves.
      int depth = 1 + static_cast<int>(lo % 3);
      std::vector<std::unique_ptr<obs::ScopedSpan>> open;
      for (int d = 0; d < depth; ++d) {
        open.push_back(std::make_unique<obs::ScopedSpan>(
            collector, "depth" + std::to_string(d), "prop"));
      }
      if (lo % 2 == 0) {
        collector.emit_span("leaf.modeled", "prop",
                            static_cast<double>(hi - lo) * 1e-3);
      } else {
        collector.instant("leaf.instant", "prop");
      }
      while (!open.empty()) open.pop_back();  // LIFO unwind
    });
  }

  auto trace = collector.snapshot();
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
  for (const auto& e : trace.events) {
    if (e.phase != obs::TraceEvent::Phase::span) continue;
    by_id[e.id] = &e;
    if (!e.modeled) by_tid[e.tid].push_back(&e);
  }
  // Parents always resolve.
  for (const auto& [id, e] : by_id) {
    if (e->parent != 0) {
      EXPECT_TRUE(by_id.count(e->parent))
          << e->name << " dangling parent " << e->parent;
    }
  }
  // Per-thread well-nestedness: no partial interval overlap.
  for (const auto& [tid, spans] : by_tid) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const auto* a = spans[i];
        const auto* b = spans[j];
        bool partial = a->ts_us < b->ts_us && b->ts_us < a->end_us() &&
                       a->end_us() < b->end_us();
        bool partial_rev = b->ts_us < a->ts_us && a->ts_us < b->end_us() &&
                           b->end_us() < a->end_us();
        EXPECT_FALSE(partial || partial_rev)
            << a->name << " / " << b->name << " on tid " << tid;
      }
    }
  }
  // Every pool batch span exists and every chunk-root span ("depth0")
  // parents on a pool.batch span.
  EXPECT_EQ(trace.count_named("pool.batch"), pool_batches);
  for (const auto* chunk : trace.named("depth0")) {
    auto it = by_id.find(chunk->parent);
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(it->second->name, "pool.batch");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceNestingPropertyTest,
                         ::testing::Range(1, 9));

// Counters must be exact under concurrent increments — no lost updates,
// no double counts — and independent of thread interleaving.
TEST(TraceCounterProperty, ExactUnderConcurrentIncrements) {
  obs::TraceCollector collector;
  collector.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        collector.counter_add("prop.count");
        collector.counter_add("prop.sum", i % 5);
        collector.gauge_set("prop.tid" + std::to_string(t),
                            static_cast<double>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto trace = collector.snapshot();
  EXPECT_EQ(trace.counters.at("prop.count"),
            static_cast<long long>(kThreads) * kRounds);
  // Sum of i%5 over 2000 rounds = 400 * (0+1+2+3+4) = 4000 per thread.
  EXPECT_EQ(trace.counters.at("prop.sum"),
            static_cast<long long>(kThreads) * 4000);
  // Each thread's gauge holds its own final write.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(trace.gauges.at("prop.tid" + std::to_string(t)),
                     static_cast<double>(kRounds - 1));
  }
}

// Chrome-trace JSON round-trips arbitrary traces through the YAML/JSON
// parser: spans, instants, counters, gauges, metadata, tricky strings.
class TraceJsonFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TraceJsonFuzzTest, ChromeJsonRoundTrip) {
  benchpark::support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const char* tricky[] = {"plain",   "with space", "q\"uote",  "back\\slash",
                          "tab\there", "new\nline", "a: b",    "x #y",
                          "[weird",  "{brace}",    "comma,",   "\xce\xbcs"};
  auto pick_string = [&](const char* prefix) {
    return std::string(prefix) + tricky[rng.below(12)];
  };

  obs::Trace original;
  const auto num_events = 1 + rng.below(12);
  std::uint64_t next_id = 1;
  for (std::uint64_t i = 0; i < num_events; ++i) {
    obs::TraceEvent e;
    bool is_span = rng.below(4) != 0;
    e.phase = is_span ? obs::TraceEvent::Phase::span
                      : obs::TraceEvent::Phase::instant;
    e.name = pick_string("n");
    if (rng.below(2)) e.category = pick_string("c");
    e.tid = static_cast<std::uint32_t>(rng.below(4));
    // Multiples of 0.5 survive the %.3f fixed-point export exactly.
    e.ts_us = static_cast<double>(rng.below(100000)) * 0.5;
    if (is_span) {
      e.dur_us = static_cast<double>(rng.below(100000)) * 0.5;
      e.id = next_id++;
      if (e.id > 1 && rng.below(2)) e.parent = 1 + rng.below(e.id - 1);
      e.modeled = rng.below(3) == 0;
    }
    auto num_args = rng.below(3);
    for (std::uint64_t a = 0; a < num_args; ++a) {
      e.args.emplace_back("k" + std::to_string(a), pick_string("v"));
    }
    original.events.push_back(std::move(e));
  }
  auto num_counters = rng.below(4);
  for (std::uint64_t i = 0; i < num_counters; ++i) {
    original.counters["ctr" + std::to_string(i)] =
        static_cast<long long>(rng.below(2000000)) - 1000000;
  }
  auto num_gauges = rng.below(3);
  for (std::uint64_t i = 0; i < num_gauges; ++i) {
    original.gauges["g" + std::to_string(i)] =
        static_cast<double>(rng.below(10000)) * 0.5;
  }
  auto num_meta = rng.below(4);
  for (std::uint64_t i = 0; i < num_meta; ++i) {
    original.metadata["m" + std::to_string(i)] = pick_string("meta");
  }

  std::string json = original.to_chrome_json();
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must stay single-line";
  obs::Trace parsed;
  ASSERT_NO_THROW(parsed = obs::Trace::from_chrome_json(
                      std::string_view{json}))
      << json;

  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    const auto& a = original.events[i];
    const auto& b = parsed.events[i];
    EXPECT_EQ(a.name, b.name) << json;
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(static_cast<int>(a.phase), static_cast<int>(b.phase));
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.modeled, b.modeled);
    EXPECT_DOUBLE_EQ(a.ts_us, b.ts_us);
    EXPECT_DOUBLE_EQ(a.dur_us, b.dur_us);
    EXPECT_EQ(a.args, b.args) << a.name;
  }
  EXPECT_EQ(parsed.counters, original.counters);
  EXPECT_EQ(parsed.gauges, original.gauges);
  EXPECT_EQ(parsed.metadata, original.metadata);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceJsonFuzzTest, ::testing::Range(1, 25));
