// ConcretizationCache tests: canonical spec-text stability, the sharded
// memo table itself, cached==uncached property checks (including under a
// chaos fault plan on "concretizer.resolve"), warm-batch parallel stats,
// and capacity eviction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/concretizer/concretize_cache.hpp"
#include "src/concretizer/concretizer.hpp"
#include "src/pkg/repo.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/yaml/parser.hpp"

namespace cz = benchpark::concretizer;
namespace pkg = benchpark::pkg;
namespace support = benchpark::support;
using benchpark::spec::Spec;
using benchpark::spec::Version;

namespace {

cz::Config scope_config(const std::string& target = "broadwell") {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target(target);
  auto packages = benchpark::yaml::parse(
      "packages:\n"
      "  mpi:\n"
      "    externals:\n"
      "    - spec: mvapich2@2.3.7\n"
      "      prefix: /path/to/mvapich2\n"
      "    buildable: false\n"
      "  mvapich2:\n"
      "    externals:\n"
      "    - spec: mvapich2@2.3.7\n"
      "      prefix: /path/to/mvapich2\n"
      "    buildable: false\n"
      "  blas:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/mkl\n"
      "    buildable: false\n"
      "  lapack:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/mkl\n"
      "    buildable: false\n"
      "  intel-oneapi-mkl:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/mkl\n"
      "    buildable: false\n");
  config.load_packages_yaml(packages);
  return config;
}

/// RAII guard: every test starts from an empty, unbounded global cache
/// and leaves it that way (the cache is process-wide state).
struct CacheReset {
  CacheReset() {
    cz::ConcretizationCache::global().set_capacity(0);
    cz::ConcretizationCache::global().clear();
  }
  ~CacheReset() {
    cz::ConcretizationCache::global().set_capacity(0);
    cz::ConcretizationCache::global().clear();
  }
};

std::vector<Spec> parse_all(const std::vector<std::string>& texts) {
  std::vector<Spec> roots;
  roots.reserve(texts.size());
  for (const auto& t : texts) roots.push_back(Spec::parse(t));
  return roots;
}

}  // namespace

// ---------------------------------------------------------------------------
// Canonical spec text / hash.

TEST(CanonicalSpec, ConstraintOrderDoesNotMatter) {
  auto a = Spec::parse("amg2023 ^hypre ^mvapich2");
  auto b = Spec::parse("amg2023 ^mvapich2 ^hypre");
  EXPECT_EQ(cz::canonical_spec_text(a), cz::canonical_spec_text(b));
  EXPECT_EQ(cz::canonical_spec_hash(a), cz::canonical_spec_hash(b));
}

TEST(CanonicalSpec, VariantOrderDoesNotMatter) {
  auto a = Spec::parse("saxpy+cuda~openmp");
  auto b = Spec::parse("saxpy~openmp+cuda");
  EXPECT_EQ(cz::canonical_spec_text(a), cz::canonical_spec_text(b));
}

TEST(CanonicalSpec, SemanticDifferencesChangeText) {
  auto base = cz::canonical_spec_hash(Spec::parse("saxpy+openmp"));
  EXPECT_NE(base, cz::canonical_spec_hash(Spec::parse("saxpy~openmp")));
  EXPECT_NE(base, cz::canonical_spec_hash(Spec::parse("saxpy+openmp@1.0")));
  EXPECT_NE(base,
            cz::canonical_spec_hash(Spec::parse("saxpy+openmp ^zlib")));
  EXPECT_NE(base,
            cz::canonical_spec_hash(Spec::parse("saxpy+openmp%gcc@12")));
  EXPECT_NE(base, cz::canonical_spec_hash(
                      Spec::parse("saxpy+openmp target=zen3")));
}

TEST(CanonicalSpec, StableAcrossParses) {
  const std::string text = "amg2023+caliper%gcc@12.1.1 ^hypre@2.26: ^zlib";
  EXPECT_EQ(cz::canonical_spec_hash(Spec::parse(text)),
            cz::canonical_spec_hash(Spec::parse(text)));
}

// ---------------------------------------------------------------------------
// The memo table.

TEST(ConcretizationCache, InsertLookupInvalidate) {
  cz::ConcretizationCache cache;
  EXPECT_FALSE(cache.lookup("k1"));
  auto inserted = std::make_shared<const Spec>(Spec::parse("zlib@1.3"));
  cache.insert("k1", inserted);
  auto found = cache.lookup("k1");
  ASSERT_TRUE(found);
  EXPECT_EQ(found->get(), inserted.get());  // shared, not copied
  EXPECT_EQ((*found)->name(), "zlib");
  EXPECT_EQ(cache.size(), 1u);

  EXPECT_TRUE(cache.invalidate("k1"));
  EXPECT_FALSE(cache.invalidate("k1"));
  EXPECT_FALSE(cache.lookup("k1"));
  EXPECT_EQ(cache.size(), 0u);

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.lookups(), 3u);
}

TEST(ConcretizationCache, CapacityEvictsOldestFirst) {
  cz::ConcretizationCache cache;
  cache.set_capacity(2);
  cache.insert("a", std::make_shared<const Spec>(Spec::parse("zlib@1.2.13")));
  cache.insert("b", std::make_shared<const Spec>(Spec::parse("zlib@1.3")));
  cache.insert("c", std::make_shared<const Spec>(Spec::parse("cmake@3.26.3")));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // "a" was oldest; "b" and "c" survive.
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_TRUE(cache.lookup("b"));
  EXPECT_TRUE(cache.lookup("c"));
}

TEST(ConcretizationCache, ClearEmptiesAllShards) {
  cz::ConcretizationCache cache;
  auto zlib = std::make_shared<const Spec>(Spec::parse("zlib@1.3"));
  for (int i = 0; i < 64; ++i) cache.insert("key-" + std::to_string(i), zlib);
  EXPECT_EQ(cache.size(), 64u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(cache.lookup("key-" + std::to_string(i)));
  }
}

// ---------------------------------------------------------------------------
// Property: cached and uncached concretization agree, and a warm cache
// serves every repeated root without re-resolving.

TEST(ConcretizeCached, CachedEqualsUncached) {
  CacheReset reset;
  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  const std::vector<std::string> matrix = {
      "amg2023+caliper", "saxpy", "saxpy~openmp", "hypre",
      "zlib",            "osu-micro-benchmarks",  "openblas",     "stream",
  };

  cz::ConcretizeRequest uncached;
  uncached.roots = parse_all(matrix);
  uncached.unify = false;
  uncached.use_cache = false;

  cz::ConcretizeRequest cached = uncached;
  cached.use_cache = true;

  auto plain = c.concretize_all(uncached);
  auto cold = c.concretize_all(cached);
  auto warm = c.concretize_all(cached);

  ASSERT_EQ(plain.specs.size(), warm.specs.size());
  for (std::size_t i = 0; i < plain.specs.size(); ++i) {
    EXPECT_EQ(plain.specs[i].dag_hash(), cold.specs[i].dag_hash());
    EXPECT_EQ(plain.specs[i].dag_hash(), warm.specs[i].dag_hash());
  }
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, matrix.size());
  EXPECT_EQ(warm.cache_hits, matrix.size());
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST(ConcretizeCached, UnifyBatchesCacheByComponent) {
  CacheReset reset;
  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  cz::ConcretizeRequest request;
  request.roots = parse_all({"amg2023+caliper", "saxpy", "zlib"});
  request.unify = true;
  request.use_cache = true;

  auto cold = c.concretize_all(request);
  auto warm = c.concretize_all(request);
  ASSERT_EQ(cold.specs.size(), warm.specs.size());
  for (std::size_t i = 0; i < cold.specs.size(); ++i) {
    EXPECT_EQ(cold.specs[i].dag_hash(), warm.specs[i].dag_hash());
  }
  EXPECT_EQ(warm.cache_hits, request.roots.size());
  EXPECT_EQ(warm.cache_misses, 0u);

  // unify semantics survive the warm path: one mvapich2 for both users.
  EXPECT_EQ(warm.specs[0].dependency("mvapich2")->dag_hash(),
            warm.specs[1].dependency("mvapich2")->dag_hash());
}

TEST(ConcretizeCached, ScopeChangeMissesCache) {
  CacheReset reset;
  cz::Concretizer broadwell(pkg::default_repo_stack(), scope_config());
  cz::Concretizer zen3(pkg::default_repo_stack(), scope_config("zen3"));

  cz::ConcretizeRequest request;
  request.roots = parse_all({"saxpy"});
  request.unify = false;
  request.use_cache = true;

  (void)broadwell.concretize_all(request);
  auto other_scope = zen3.concretize_all(request);
  // Same abstract root, different config fingerprint: no cross-talk.
  EXPECT_EQ(other_scope.cache_hits, 0u);
  EXPECT_EQ(other_scope.specs[0].target(), "zen3");
}

TEST(ConcretizeCached, SeededContextDisablesCaching) {
  CacheReset reset;
  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  cz::Context ctx;
  cz::ConcretizeRequest first;
  first.roots = parse_all({"hypre~openmp"});
  first.unify = true;
  first.context = &ctx;
  first.use_cache = true;
  (void)c.concretize_all(first);

  // The context now pins hypre~openmp; a request resolving hypre through
  // it is not a pure function of the roots and must not be cached.
  cz::ConcretizeRequest second;
  second.roots = parse_all({"hypre"});
  second.unify = true;
  second.context = &ctx;
  second.use_cache = true;
  auto result = c.concretize_all(second);
  EXPECT_EQ(result.cache_hits + result.cache_misses, 0u);
  EXPECT_FALSE(result.specs[0].variant_enabled("openmp"));
}

TEST(ConcretizeCached, ParallelWarmBatchCountsExactly) {
  CacheReset reset;
  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  // A repeated-roots matrix: 4 unique roots x 8 repetitions.
  std::vector<Spec> roots;
  const std::vector<std::string> unique = {"saxpy", "hypre", "zlib",
                                           "amg2023+caliper"};
  for (int rep = 0; rep < 8; ++rep) {
    for (const auto& u : unique) roots.push_back(Spec::parse(u));
  }

  cz::ConcretizeRequest request;
  request.roots = roots;
  request.unify = false;
  request.use_cache = true;
  request.threads = 8;

  auto result = c.concretize_all(request);
  ASSERT_EQ(result.specs.size(), roots.size());
  // Misses are single-flight: each unique root resolves exactly once, and
  // a repeat racing its first resolution waits for it and counts a hit.
  EXPECT_EQ(result.cache_misses, unique.size());
  EXPECT_EQ(result.cache_hits, roots.size() - unique.size());

  // All repetitions of a root agree.
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(result.specs[i].dag_hash(),
              result.specs[i % unique.size()].dag_hash());
  }

  auto warm = c.concretize_all(request);
  EXPECT_EQ(warm.cache_hits, roots.size());
  EXPECT_EQ(warm.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: the "concretizer.resolve" fault site.

TEST(ConcretizeChaos, TransientFaultInvalidatesAndRetries) {
  CacheReset reset;
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "concretizer.resolve";
  rule.nth = 1;  // first attempt on every key fails...
  rule.count = 1;
  plan.add_rule(rule);

  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  cz::ConcretizeRequest request;
  request.roots = parse_all({"saxpy", "hypre"});
  request.unify = false;
  request.use_cache = true;
  auto faulted = c.concretize_all(request);  // ...and the retry succeeds
  ASSERT_EQ(faulted.specs.size(), 2u);
  EXPECT_TRUE(faulted.specs[0].concrete());

  // The results under chaos match a clean, uncached resolution.
  plan.clear();
  cz::ConcretizeRequest clean = request;
  clean.use_cache = false;
  auto reference = c.concretize_all(clean);
  for (std::size_t i = 0; i < reference.specs.size(); ++i) {
    EXPECT_EQ(faulted.specs[i].dag_hash(), reference.specs[i].dag_hash());
  }
}

TEST(ConcretizeChaos, PermanentFaultPropagates) {
  CacheReset reset;
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "concretizer.resolve";
  rule.nth = 1;
  rule.count = 1;
  rule.kind = support::FaultKind::permanent;
  plan.add_rule(rule);

  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  cz::ConcretizeRequest request;
  request.roots = parse_all({"saxpy"});
  request.unify = false;
  request.use_cache = true;
  EXPECT_THROW((void)c.concretize_all(request), benchpark::PermanentError);
}

TEST(ConcretizeChaos, ExhaustedRetriesPropagateTransient) {
  CacheReset reset;
  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "concretizer.resolve";
  rule.nth = 1;
  rule.count = 100;  // every attempt fails
  plan.add_rule(rule);

  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  cz::ConcretizeRequest request;
  request.roots = parse_all({"zlib"});
  request.unify = false;
  request.use_cache = true;
  EXPECT_THROW((void)c.concretize_all(request), benchpark::TransientError);
}

TEST(ConcretizeChaos, CachedEqualsUncachedUnderChaos) {
  // The headline property, under fire: a flaky resolver with cache
  // poisoning still converges to exactly the clean answer.
  CacheReset reset;
  cz::Concretizer c(pkg::default_repo_stack(), scope_config());
  const std::vector<std::string> matrix = {"amg2023+caliper", "saxpy",
                                           "hypre", "osu-micro-benchmarks"};

  cz::ConcretizeRequest clean;
  clean.roots = parse_all(matrix);
  clean.unify = true;
  clean.use_cache = false;
  auto reference = c.concretize_all(clean);

  support::ScopedFaultPlan scope;
  auto& plan = support::FaultPlan::global();
  plan.clear();
  support::FaultRule rule;
  rule.site = "concretizer.resolve";
  rule.nth = 1;  // every key's first attempt fails: warm entries get
  rule.count = 1;  // poisoned (invalidated) and must re-resolve cleanly
  plan.add_rule(rule);

  cz::ConcretizeRequest chaotic;
  chaotic.roots = clean.roots;
  chaotic.unify = true;
  chaotic.use_cache = true;
  for (int round = 0; round < 4; ++round) {
    auto result = c.concretize_all(chaotic);
    ASSERT_EQ(result.specs.size(), reference.specs.size());
    for (std::size_t i = 0; i < reference.specs.size(); ++i) {
      EXPECT_EQ(result.specs[i].dag_hash(), reference.specs[i].dag_hash())
          << "round " << round << " root " << matrix[i];
    }
  }
}
