// Concretizer tests: version selection, virtual resolution, externals
// (Figure 4), compiler/target assignment, unification (Figure 3's
// "concretizer: unify: true"), conflicts, packages.yaml round-trips, the
// unified concretize_all(ConcretizeRequest) entry point (including what
// the removed legacy overloads did), and the ConcretizationError taxonomy.
#include <gtest/gtest.h>

#include "src/concretizer/concretizer.hpp"
#include "src/pkg/repo.hpp"
#include "src/pkg/yaml_repo.hpp"
#include "src/support/error.hpp"
#include "src/yaml/parser.hpp"

namespace cz = benchpark::concretizer;
namespace pkg = benchpark::pkg;
namespace spec = benchpark::spec;
using spec::Spec;
using spec::Version;

namespace {

/// A cts1-like scope: gcc+intel compilers, MKL and mvapich2 externals
/// (exactly the Figure 4 configuration), broadwell target.
cz::Config cts1_like_config() {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "/usr/tce/bin/gcc",
                       "/usr/tce/bin/g++"});
  config.add_compiler({"gcc", Version("10.3.1"), "", ""});
  config.add_compiler({"intel", Version("2021.6.0"), "", ""});
  config.set_default_target("broadwell");
  config.set_default_compiler("gcc@12.1.1");

  auto packages = benchpark::yaml::parse(
      "packages:\n"
      "  blas:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/intel-oneapi-mkl\n"
      "    buildable: false\n"
      "  lapack:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/intel-oneapi-mkl\n"
      "    buildable: false\n"
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
      "  intel-oneapi-mkl:\n"
      "    externals:\n"
      "    - spec: intel-oneapi-mkl@2022.1.0\n"
      "      prefix: /path/to/intel-oneapi-mkl\n"
      "    buildable: false\n");
  config.load_packages_yaml(packages);
  return config;
}

cz::Concretizer make_concretizer() {
  return cz::Concretizer(pkg::default_repo_stack(), cts1_like_config());
}

/// One root through the unified API, legacy semantics (fresh context, no
/// memo cache) so every test stays independent of suite order.
Spec concretize1(const cz::Concretizer& c, const std::string& text) {
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse(text)};
  request.unify = false;
  request.use_cache = false;
  return std::move(c.concretize_all(request).specs.front());
}

/// One root resolved inside a shared context (unify semantics).
Spec concretize_in(const cz::Concretizer& c, const std::string& text,
                   cz::Context& ctx) {
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse(text)};
  request.unify = true;
  request.context = &ctx;
  request.use_cache = false;
  return std::move(c.concretize_all(request).specs.front());
}

}  // namespace

TEST(Concretizer, PinsHighestVersion) {
  auto c = make_concretizer();
  auto s = concretize1(c, "zlib");
  EXPECT_TRUE(s.concrete());
  EXPECT_EQ(s.concrete_version().str(), "1.3");
}

TEST(Concretizer, RespectsVersionConstraint) {
  auto c = make_concretizer();
  auto s = concretize1(c, "zlib@:1.2");
  EXPECT_EQ(s.concrete_version().str(), "1.2.13");
}

TEST(Concretizer, UnsatisfiableVersionThrows) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "zlib@99:"), benchpark::ConcretizationError);
}

TEST(Concretizer, AppliesVariantDefaults) {
  auto c = make_concretizer();
  auto s = concretize1(c, "saxpy");
  EXPECT_TRUE(s.variant_enabled("openmp"));   // default true
  EXPECT_FALSE(s.variant_enabled("cuda"));    // default false
}

TEST(Concretizer, UserVariantOverridesDefault) {
  auto c = make_concretizer();
  auto s = concretize1(c, "saxpy~openmp");
  EXPECT_FALSE(s.variant_enabled("openmp"));
}

TEST(Concretizer, UnknownVariantThrows) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "zlib+nonexistent"),
               benchpark::ConcretizationError);
}

TEST(Concretizer, DisallowedVariantValueThrows) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "openblas threads=fibers"),
               benchpark::ConcretizationError);
}

TEST(Concretizer, AssignsDefaultCompilerAndTarget) {
  auto c = make_concretizer();
  auto s = concretize1(c, "zlib");
  ASSERT_TRUE(s.compiler().has_value());
  EXPECT_EQ(s.compiler()->name, "gcc");
  EXPECT_TRUE(s.compiler()->versions.satisfied_by(Version("12.1.1")));
  EXPECT_EQ(s.target(), "broadwell");
}

TEST(Concretizer, UserCompilerSelection) {
  auto c = make_concretizer();
  auto s = concretize1(c, "zlib%intel");
  EXPECT_EQ(s.compiler()->name, "intel");
}

TEST(Concretizer, CompilerVersionRangePicksHighest) {
  auto c = make_concretizer();
  auto s = concretize1(c, "zlib%gcc@10:");
  EXPECT_TRUE(s.compiler()->versions.satisfied_by(Version("12.1.1")));
}

TEST(Concretizer, UnknownCompilerThrows) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "zlib%xl"), benchpark::ConcretizationError);
}

TEST(Concretizer, ExternalShortCircuitsBuild) {
  auto c = make_concretizer();
  auto s = concretize1(c, "intel-oneapi-mkl");
  EXPECT_TRUE(s.is_external());
  EXPECT_EQ(s.external_prefix(), "/path/to/intel-oneapi-mkl");
  EXPECT_TRUE(s.dependencies().empty());
}

TEST(Concretizer, VirtualResolvesToExternalProvider) {
  // Figure 4: the "mpi" virtual must resolve to the system mvapich2.
  auto c = make_concretizer();
  auto s = concretize1(c, "saxpy");
  const auto* mpi_dep = s.dependency("mvapich2");
  ASSERT_NE(mpi_dep, nullptr) << s.str();
  EXPECT_TRUE(mpi_dep->is_external());
  EXPECT_EQ(mpi_dep->concrete_version().str(), "2.3.7");
}

TEST(Concretizer, BlasVirtualResolvesToMkl) {
  auto c = make_concretizer();
  auto s = concretize1(c, "hypre");
  const auto* blas = s.dependency("intel-oneapi-mkl");
  ASSERT_NE(blas, nullptr);
  EXPECT_TRUE(blas->is_external());
}

TEST(Concretizer, UserProviderChoiceWins) {
  // No externals scope: pick providers freely.
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("zen3");
  cz::Concretizer c(pkg::default_repo_stack(), config);

  auto s = concretize1(c, "saxpy ^openmpi");
  EXPECT_NE(s.dependency("openmpi"), nullptr);
  EXPECT_EQ(s.dependency("mvapich2"), nullptr);
}

TEST(Concretizer, ProviderPreferenceFromConfig) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("zen3");
  config.package("mpi").preferred_providers = {"openmpi"};
  cz::Concretizer c(pkg::default_repo_stack(), config);

  auto s = concretize1(c, "saxpy");
  EXPECT_NE(s.dependency("openmpi"), nullptr);
}

TEST(Concretizer, NotBuildableWithoutExternalThrows) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.package("zlib").buildable = false;
  cz::Concretizer c(pkg::default_repo_stack(), config);
  EXPECT_THROW(concretize1(c, "zlib"), benchpark::ConcretizationError);
}

TEST(Concretizer, VersionPreferenceFromConfig) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.package("hypre").preferred_versions = {"2.26.0"};
  cz::Concretizer c(pkg::default_repo_stack(), config);
  auto s = concretize1(c, "hypre");
  EXPECT_EQ(s.concrete_version().str(), "2.26.0");
}

TEST(Concretizer, RequireConstraintApplied) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.package("hypre").require = Spec::parse("@:2.26");
  cz::Concretizer c(pkg::default_repo_stack(), config);
  auto s = concretize1(c, "hypre");
  EXPECT_EQ(s.concrete_version().str(), "2.26.0");
}

TEST(Concretizer, ConditionalDependencyActivation) {
  auto c = make_concretizer();
  auto with_caliper = concretize1(c, "amg2023+caliper");
  EXPECT_NE(with_caliper.dependency("caliper"), nullptr);
  EXPECT_NE(with_caliper.dependency("adiak"), nullptr);

  auto plain = concretize1(c, "amg2023~caliper");
  EXPECT_EQ(plain.dependency("caliper"), nullptr);
}

TEST(Concretizer, VariantPropagationViaConditionalDeps) {
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  config.set_default_target("zen3");
  cz::Concretizer c(pkg::default_repo_stack(), config);
  auto s = concretize1(c, "amg2023+cuda");
  const auto* hypre = s.dependency("hypre");
  ASSERT_NE(hypre, nullptr);
  EXPECT_TRUE(hypre->variant_enabled("cuda"));
  // ... and hypre+cuda pulls the CUDA runtime into the DAG.
  EXPECT_NE(hypre->dependency("cuda"), nullptr);
}

TEST(Concretizer, ConflictSurfaces) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "saxpy+cuda+rocm"), benchpark::PackageError);
}

TEST(Concretizer, DepsInheritCompilerAndTarget) {
  auto c = make_concretizer();
  auto s = concretize1(c, "amg2023%gcc@12.1.1 target=broadwell");
  const auto* hypre = s.dependency("hypre");
  ASSERT_NE(hypre, nullptr);
  EXPECT_EQ(hypre->compiler()->name, "gcc");
  EXPECT_EQ(hypre->target(), "broadwell");
}

TEST(Concretizer, UnifyReusesResolvedSpecs) {
  auto c = make_concretizer();
  cz::Context ctx;
  auto amg = concretize_in(c, "amg2023+caliper", ctx);
  auto saxpy = concretize_in(c, "saxpy", ctx);
  // Both share one mvapich2 resolution in the context.
  EXPECT_EQ(amg.dependency("mvapich2")->dag_hash(),
            saxpy.dependency("mvapich2")->dag_hash());
}

TEST(Concretizer, UnifyConflictThrows) {
  auto c = make_concretizer();
  cz::Context ctx;
  (void)concretize_in(c, "hypre~openmp", ctx);
  EXPECT_THROW(concretize_in(c, "hypre+openmp", ctx),
               benchpark::ConcretizationError);
}

TEST(Concretizer, NoUnifyAllowsDivergence) {
  auto c = make_concretizer();
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse("hypre~openmp"), Spec::parse("hypre+openmp")};
  request.unify = false;
  request.use_cache = false;
  auto specs = c.concretize_all(request).specs;
  EXPECT_FALSE(specs[0].variant_enabled("openmp"));
  EXPECT_TRUE(specs[1].variant_enabled("openmp"));
}

TEST(Concretizer, UnknownUserDependencyThrows) {
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "zlib ^hypre"),
               benchpark::ConcretizationError);
}

TEST(Concretizer, DeterministicDagHashes) {
  auto c1 = make_concretizer();
  auto c2 = make_concretizer();
  EXPECT_EQ(concretize1(c1, "amg2023+caliper").dag_hash(),
            concretize1(c2, "amg2023+caliper").dag_hash());
}

TEST(Concretizer, Figure2WorkflowSpec) {
  // "spack add amg2023+caliper; spack concretize" end to end.
  auto c = make_concretizer();
  auto s = concretize1(c, "amg2023+caliper");
  EXPECT_TRUE(s.concrete());
  EXPECT_TRUE(s.variant_enabled("caliper"));
  EXPECT_EQ(s.compiler()->name, "gcc");
  EXPECT_EQ(s.target(), "broadwell");
  // Full closure: hypre, blas external, mpi external, caliper, adiak.
  EXPECT_NE(s.dependency("hypre"), nullptr);
  EXPECT_NE(s.dependency("caliper"), nullptr);
}

// ---------------------------------------------------------------------------
// concretize_all: the unified request/result API.

TEST(ConcretizeAll, ResultsAlignWithRoots) {
  auto c = make_concretizer();
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse("zlib"), Spec::parse("hypre"),
                   Spec::parse("saxpy")};
  request.unify = true;
  request.use_cache = false;
  auto result = c.concretize_all(request);
  ASSERT_EQ(result.specs.size(), 3u);
  EXPECT_EQ(result.specs[0].name(), "zlib");
  EXPECT_EQ(result.specs[1].name(), "hypre");
  EXPECT_EQ(result.specs[2].name(), "saxpy");
  for (const auto& s : result.specs) EXPECT_TRUE(s.concrete());
}

TEST(ConcretizeAll, EmptyRequestIsEmptyResult) {
  auto c = make_concretizer();
  auto result = c.concretize_all({});
  EXPECT_TRUE(result.specs.empty());
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_misses, 0u);
}

TEST(ConcretizeAll, UnifySharesResolutionsAcrossRoots) {
  auto c = make_concretizer();
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse("amg2023+caliper"), Spec::parse("saxpy")};
  request.unify = true;
  request.use_cache = false;
  auto result = c.concretize_all(request);
  EXPECT_EQ(result.specs[0].dependency("mvapich2")->dag_hash(),
            result.specs[1].dependency("mvapich2")->dag_hash());
}

TEST(ConcretizeAll, ParallelMatchesSerial) {
  auto c = make_concretizer();
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse("amg2023+caliper"), Spec::parse("saxpy"),
                   Spec::parse("hypre"), Spec::parse("zlib"),
                   Spec::parse("osu-micro-benchmarks"), Spec::parse("openblas")};
  request.unify = true;
  request.use_cache = false;

  auto serial = request;
  serial.threads = 1;
  auto parallel = request;
  parallel.threads = 8;

  auto serial_result = c.concretize_all(serial);
  auto parallel_result = c.concretize_all(parallel);
  ASSERT_EQ(serial_result.specs.size(), parallel_result.specs.size());
  for (std::size_t i = 0; i < serial_result.specs.size(); ++i) {
    EXPECT_EQ(serial_result.specs[i].dag_hash(),
              parallel_result.specs[i].dag_hash())
        << serial_result.specs[i].name();
  }
}

TEST(ConcretizeAll, SharedContextAccumulates) {
  auto c = make_concretizer();
  cz::Context ctx;
  cz::ConcretizeRequest request;
  request.roots = {Spec::parse("amg2023+caliper")};
  request.unify = true;
  request.context = &ctx;
  request.use_cache = false;
  (void)c.concretize_all(request);
  EXPECT_GT(ctx.size(), 0u);
  ASSERT_NE(ctx.find("mvapich2"), nullptr);

  // A second request against the same context unifies with the first.
  cz::ConcretizeRequest second;
  second.roots = {Spec::parse("saxpy")};
  second.unify = true;
  second.context = &ctx;
  second.use_cache = false;
  auto saxpy = c.concretize_all(second).specs.front();
  EXPECT_EQ(saxpy.dependency("mvapich2")->dag_hash(),
            ctx.find("mvapich2")->dag_hash());
}

TEST(ConcretizeAll, StatsSnapshotIsByValue) {
  auto c = make_concretizer();
  auto before = c.stats();
  (void)concretize1(c, "zlib");
  auto after = c.stats();
  // `before` is a snapshot: it must not have moved.
  EXPECT_EQ(before.specs_resolved, 0u);
  EXPECT_GT(after.specs_resolved, before.specs_resolved);
}

TEST(ConcretizeAll, ScopeFingerprintReflectsConfig) {
  auto c1 = make_concretizer();
  auto c2 = make_concretizer();
  EXPECT_EQ(c1.scope_fingerprint(), c2.scope_fingerprint());

  cz::Config other = cts1_like_config();
  other.set_default_target("zen3");
  cz::Concretizer c3(pkg::default_repo_stack(), other);
  EXPECT_NE(c1.scope_fingerprint(), c3.scope_fingerprint());
}

// ---------------------------------------------------------------------------
// Error taxonomy: each failure mode has a dedicated ConcretizationError
// subclass naming the conflicting constraints.

TEST(ConcretizerErrors, UnsatisfiableVersion) {
  auto c = make_concretizer();
  try {
    (void)concretize1(c, "zlib@99:");
    FAIL() << "expected UnsatisfiableVersionError";
  } catch (const benchpark::UnsatisfiableVersionError& e) {
    EXPECT_NE(std::string(e.what()).find("zlib"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("99:"), std::string::npos);
    // The message names the versions that *are* known.
    EXPECT_NE(std::string(e.what()).find("1.3"), std::string::npos);
  }
}

TEST(ConcretizerErrors, NoProvider) {
  // Every mpi provider unbuildable, no external: the virtual is stuck.
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  for (const char* p : {"mvapich2", "openmpi", "spectrum-mpi", "cray-mpich"}) {
    config.package(p).buildable = false;
  }
  cz::Concretizer c(pkg::default_repo_stack(), config);
  try {
    (void)concretize1(c, "saxpy");
    FAIL() << "expected NoProviderError";
  } catch (const benchpark::NoProviderError& e) {
    EXPECT_NE(std::string(e.what()).find("mpi"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mvapich2"), std::string::npos);
  }
}

TEST(ConcretizerErrors, UnifyConflict) {
  auto c = make_concretizer();
  cz::Context ctx;
  (void)concretize_in(c, "hypre~openmp", ctx);
  try {
    (void)concretize_in(c, "hypre+openmp", ctx);
    FAIL() << "expected UnifyConflictError";
  } catch (const benchpark::UnifyConflictError& e) {
    // Both sides of the conflict are named.
    EXPECT_NE(std::string(e.what()).find("~openmp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("+openmp"), std::string::npos);
  }
}

TEST(ConcretizerErrors, DependencyCycle) {
  auto repo = pkg::repo_from_yaml(
      "cyclic", benchpark::yaml::parse("packages:\n"
                                       "  alpha:\n"
                                       "    versions: ['1.0']\n"
                                       "    depends_on: [beta]\n"
                                       "  beta:\n"
                                       "    versions: ['1.0']\n"
                                       "    depends_on: [alpha]\n"));
  pkg::RepoStack stack;
  stack.push_back(std::move(repo));
  cz::Config config;
  config.add_compiler({"gcc", Version("12.1.1"), "", ""});
  cz::Concretizer c(std::move(stack), config);
  try {
    (void)concretize1(c, "alpha");
    FAIL() << "expected DependencyCycleError";
  } catch (const benchpark::DependencyCycleError& e) {
    // The whole chain is spelled out.
    EXPECT_NE(std::string(e.what()).find("alpha -> beta -> alpha"),
              std::string::npos);
  }
}

TEST(ConcretizerErrors, TaxonomyIsConcretizationError) {
  // Every subclass must stay catchable as ConcretizationError (and Error).
  auto c = make_concretizer();
  EXPECT_THROW(concretize1(c, "zlib@99:"), benchpark::ConcretizationError);
  EXPECT_THROW(concretize1(c, "zlib@99:"), benchpark::Error);
}

// ---------------------------------------------------------------------------
// Config round-trips.

TEST(ConcretizerConfig, PackagesYamlRoundTrip) {
  auto config = cts1_like_config();
  auto emitted = config.packages_yaml();
  cz::Config reloaded;
  reloaded.add_compiler({"gcc", Version("12.1.1"), "", ""});
  reloaded.load_packages_yaml(emitted);
  const auto* mpi = reloaded.settings_for("mpi");
  ASSERT_NE(mpi, nullptr);
  ASSERT_EQ(mpi->externals.size(), 1u);
  EXPECT_EQ(mpi->externals[0].prefix, "/path/to/mvapich2");
  EXPECT_FALSE(mpi->buildable);
}

TEST(ConcretizerConfig, CompilersYamlRoundTrip) {
  auto config = cts1_like_config();
  auto emitted = config.compilers_yaml();
  cz::Config reloaded;
  reloaded.load_compilers_yaml(emitted);
  EXPECT_EQ(reloaded.compilers().size(), config.compilers().size());
  EXPECT_NE(reloaded.find_compiler({"intel", {}}), nullptr);
}

TEST(ConcretizerConfig, MergeOverlays) {
  cz::Config base;
  base.add_compiler({"gcc", Version("10.3.1"), "", ""});
  base.set_default_target("x86_64");
  base.package("zlib").preferred_versions = {"1.2.13"};

  cz::Config site;
  site.set_default_target("zen3");

  base.merge_from(site);
  EXPECT_EQ(base.default_target(), "zen3");
  ASSERT_NE(base.settings_for("zlib"), nullptr);  // untouched by overlay
}

// ---------------------------------------------------------------------------
// The request API covers everything the removed legacy overloads did:
// single roots, text parsing, shared contexts, unify on/off, and stats
// accumulation — pinned here so the consolidation never regresses them.

TEST(ConcretizerRequestApi, SingleRoot) {
  auto c = make_concretizer();
  auto s = std::move(
      c.concretize_all({.roots = {Spec::parse("zlib")},
                        .unify = false,
                        .use_cache = false,
                        .threads = 1})
          .specs.front());
  EXPECT_TRUE(s.concrete());
  EXPECT_EQ(s.concrete_version().str(), "1.3");
}

TEST(ConcretizerRequestApi, ParsedTextRoot) {
  auto c = make_concretizer();
  auto s = std::move(
      c.concretize_all({.roots = {Spec::parse("zlib@:1.2")},
                        .unify = false,
                        .use_cache = false,
                        .threads = 1})
          .specs.front());
  EXPECT_EQ(s.concrete_version().str(), "1.2.13");
}

TEST(ConcretizerRequestApi, SharedContextUnifies) {
  auto c = make_concretizer();
  cz::Concretizer::Context ctx;  // legacy nested name still works
  auto amg = std::move(
      c.concretize_all({.roots = {Spec::parse("amg2023+caliper")},
                        .context = &ctx,
                        .use_cache = false,
                        .threads = 1})
          .specs.front());
  auto saxpy = std::move(
      c.concretize_all({.roots = {Spec::parse("saxpy")},
                        .context = &ctx,
                        .use_cache = false,
                        .threads = 1})
          .specs.front());
  EXPECT_EQ(amg.dependency("mvapich2")->dag_hash(),
            saxpy.dependency("mvapich2")->dag_hash());
}

TEST(ConcretizerRequestApi, UnifyFalseRootsIndependent) {
  auto c = make_concretizer();
  auto specs = c.concretize_all({.roots = {Spec::parse("hypre~openmp"),
                                           Spec::parse("hypre+openmp")},
                                 .unify = false,
                                 .use_cache = false,
                                 .threads = 1})
                   .specs;
  EXPECT_FALSE(specs[0].variant_enabled("openmp"));
  EXPECT_TRUE(specs[1].variant_enabled("openmp"));
}

TEST(ConcretizerRequestApi, StatsAccumulate) {
  auto c = make_concretizer();
  (void)c.concretize_all({.roots = {Spec::parse("amg2023+caliper")},
                          .unify = false,
                          .use_cache = false,
                          .threads = 1});
  EXPECT_GT(c.stats().specs_resolved, 3u);
  EXPECT_GE(c.stats().externals_used, 2u);
  EXPECT_GE(c.stats().virtuals_resolved, 2u);
}
