// Tests for package recipes and repositories, including the Figure 11
// saxpy recipe (variants -> cmake args) and the repo overlay mechanism
// (the `repo/` directory of Figure 1a).
#include <gtest/gtest.h>

#include <memory>

#include "src/pkg/repo.hpp"
#include "src/support/error.hpp"

namespace pkg = benchpark::pkg;
namespace spec = benchpark::spec;
using pkg::BuildSystem;
using pkg::PackageRecipe;
using spec::Spec;

TEST(PackageRecipe, BestVersionPicksHighestNonDeprecated) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.version("1.0").version("2.0").version("3.0", false, /*deprecated=*/true);
  auto v = p.best_version({});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str(), "2.0");
}

TEST(PackageRecipe, PreferredVersionWinsOverHigher) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.version("1.0", /*preferred=*/true).version("2.0");
  EXPECT_EQ(p.best_version({})->str(), "1.0");
}

TEST(PackageRecipe, ConstraintOverridesPreference) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.version("1.0", /*preferred=*/true).version("2.0");
  auto v = p.best_version(spec::VersionConstraint::parse("2.0"));
  EXPECT_EQ(v->str(), "2.0");
}

TEST(PackageRecipe, DeprecatedReachableByExplicitRequest) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.version("1.0").version("0.9", false, /*deprecated=*/true);
  auto v = p.best_version(spec::VersionConstraint::parse("=0.9"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str(), "0.9");
}

TEST(PackageRecipe, NoVersionMatches) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.version("1.0");
  EXPECT_FALSE(p.best_version(spec::VersionConstraint::parse("2:")).has_value());
}

TEST(PackageRecipe, ConditionalDependencies) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.variant("cuda", false, "CUDA");
  p.depends_on("zlib");
  p.depends_on("cuda", "+cuda");
  auto plain = Spec::parse("demo~cuda");
  auto with_cuda = Spec::parse("demo+cuda");
  EXPECT_EQ(p.active_dependencies(plain).size(), 1u);
  EXPECT_EQ(p.active_dependencies(with_cuda).size(), 2u);
}

TEST(PackageRecipe, ConflictDetection) {
  PackageRecipe p("demo", BuildSystem::cmake);
  p.variant("cuda", false, "").variant("rocm", false, "");
  p.conflicts("+cuda", "+rocm", "pick one");
  EXPECT_NO_THROW(p.check_conflicts(Spec::parse("demo+cuda~rocm")));
  EXPECT_THROW(p.check_conflicts(Spec::parse("demo+cuda+rocm")),
               benchpark::PackageError);
}

TEST(PackageRecipe, BadVariantDefaultThrows) {
  PackageRecipe p("demo", BuildSystem::cmake);
  EXPECT_THROW(p.variant("mode", "bad", {"a", "b"}, ""),
               benchpark::PackageError);
}

TEST(BuiltinRepo, Figure11SaxpyCmakeArgs) {
  auto repo = pkg::builtin_repo();
  const auto* saxpy = repo->find("saxpy");
  ASSERT_NE(saxpy, nullptr);
  EXPECT_EQ(saxpy->build_system(), BuildSystem::cmake);

  auto openmp = Spec::parse("saxpy+openmp~cuda~rocm");
  auto args = saxpy->build_args(openmp);
  EXPECT_EQ(args, (std::vector<std::string>{"-DUSE_OPENMP=ON"}));

  auto cuda = Spec::parse("saxpy~openmp+cuda~rocm");
  EXPECT_EQ(saxpy->build_args(cuda),
            (std::vector<std::string>{"-DUSE_CUDA=ON"}));

  auto rocm = Spec::parse("saxpy~openmp~cuda+rocm");
  EXPECT_EQ(saxpy->build_args(rocm),
            (std::vector<std::string>{"-DUSE_HIP=ON"}));
}

TEST(BuiltinRepo, SaxpyGpuBackendsConflict) {
  auto repo = pkg::builtin_repo();
  EXPECT_THROW(
      repo->find("saxpy")->check_conflicts(Spec::parse("saxpy+cuda+rocm")),
      benchpark::PackageError);
}

TEST(BuiltinRepo, MpiProviders) {
  auto repo = pkg::builtin_repo();
  auto providers = repo->providers_of("mpi");
  std::vector<std::string> names;
  for (const auto* p : providers) names.push_back(p->name());
  EXPECT_NE(std::find(names.begin(), names.end(), "mvapich2"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "spectrum-mpi"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cray-mpich"), names.end());
  EXPECT_TRUE(repo->is_virtual("mpi"));
  EXPECT_FALSE(repo->is_virtual("saxpy"));
}

TEST(BuiltinRepo, BlasProviders) {
  auto repo = pkg::builtin_repo();
  auto providers = repo->providers_of("blas");
  EXPECT_GE(providers.size(), 2u);
}

TEST(BuiltinRepo, Amg2023DependsOnHypreStack) {
  auto repo = pkg::builtin_repo();
  const auto* amg = repo->find("amg2023");
  ASSERT_NE(amg, nullptr);
  auto with_caliper = Spec::parse("amg2023+caliper~cuda~rocm+openmp");
  auto deps = amg->active_dependencies(with_caliper);
  std::vector<std::string> names;
  for (const auto* d : deps) names.push_back(d->dep.name());
  EXPECT_NE(std::find(names.begin(), names.end(), "hypre"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "caliper"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "adiak"), names.end());

  auto without = Spec::parse("amg2023~caliper~cuda~rocm+openmp");
  auto fewer = amg->active_dependencies(without);
  EXPECT_LT(fewer.size(), deps.size());
}

TEST(RepoStack, OverlayShadowsUpstream) {
  auto overlay = std::make_shared<pkg::Repo>("benchpark-repo");
  PackageRecipe patched("saxpy", BuildSystem::cmake);
  patched.version("9.9.9");
  overlay->add(std::move(patched));

  pkg::RepoStack stack;
  stack.push_back(pkg::builtin_repo());
  stack.push_front(overlay);

  EXPECT_EQ(stack.get("saxpy").best_version({})->str(), "9.9.9");
  // Upstream packages still visible through the overlay.
  EXPECT_TRUE(stack.has("amg2023"));
}

TEST(RepoStack, UnknownPackageThrows) {
  auto stack = pkg::default_repo_stack();
  EXPECT_THROW((void)stack.get("no-such-package"), benchpark::PackageError);
}

TEST(RepoStack, PackageNamesSortedUnique) {
  auto stack = pkg::default_repo_stack();
  auto names = stack.package_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_GE(names.size(), 20u);
}
