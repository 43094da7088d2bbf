// Tests for the archspec substrate: database integrity, compatibility
// partial order, cpuinfo detection, compiler flag selection (the two uses
// Section 3.1.3 names).
#include <gtest/gtest.h>

#include "src/archspec/microarch.hpp"
#include "src/support/error.hpp"

namespace arch = benchpark::archspec;
using arch::MicroarchDatabase;
using benchpark::spec::Version;

TEST(Microarch, DatabaseHasExpectedEntries) {
  const auto& db = MicroarchDatabase::instance();
  for (const char* name :
       {"x86_64", "broadwell", "skylake_avx512", "zen3", "power9le",
        "a64fx", "x86_64_v3"}) {
    EXPECT_NE(db.find(name), nullptr) << name;
  }
  EXPECT_EQ(db.find("not-a-chip"), nullptr);
  EXPECT_THROW((void)db.get("not-a-chip"), benchpark::SystemError);
}

TEST(Microarch, FeaturesAreCumulative) {
  const auto& db = MicroarchDatabase::instance();
  // zen3 inherits avx2 through zen <- x86_64_v3.
  EXPECT_TRUE(db.get("zen3").has_feature("avx2"));
  EXPECT_TRUE(db.get("zen3").has_feature("sse2"));
  EXPECT_TRUE(db.get("skylake_avx512").has_feature("avx"));
  EXPECT_FALSE(db.get("broadwell").has_feature("avx512f"));
}

TEST(Microarch, AncestorsNearestFirst) {
  const auto& db = MicroarchDatabase::instance();
  auto anc = db.ancestors("zen2");
  ASSERT_GE(anc.size(), 3u);
  EXPECT_EQ(anc[0], "zen");
  EXPECT_EQ(anc.back(), "x86_64");
}

TEST(Microarch, CompatibilityIsReflexiveAndFollowsAncestry) {
  const auto& db = MicroarchDatabase::instance();
  EXPECT_TRUE(db.compatible("zen3", "zen3"));
  EXPECT_TRUE(db.compatible("zen3", "zen"));
  EXPECT_TRUE(db.compatible("zen3", "x86_64"));
  EXPECT_FALSE(db.compatible("zen", "zen3"));  // older can't run newer
}

TEST(Microarch, CrossFamilyIncompatible) {
  const auto& db = MicroarchDatabase::instance();
  EXPECT_FALSE(db.compatible("zen3", "power9le"));
  EXPECT_FALSE(db.compatible("power9le", "x86_64"));
}

TEST(Microarch, FeatureSupersetWithinFamily) {
  const auto& db = MicroarchDatabase::instance();
  // icelake has every zen feature? No — vendor features differ (clzero);
  // but skylake_avx512 covers x86_64_v4's feature list.
  EXPECT_TRUE(db.compatible("skylake_avx512", "x86_64_v4"));
  EXPECT_FALSE(db.compatible("broadwell", "x86_64_v4"));
}

TEST(Microarch, Family) {
  const auto& db = MicroarchDatabase::instance();
  EXPECT_EQ(db.family("cascadelake"), "x86_64");
  EXPECT_EQ(db.family("power9le"), "ppc64le");
  EXPECT_EQ(db.family("graviton3"), "aarch64");
}

TEST(Detect, IntelBroadwellFromFlags) {
  std::string cpuinfo =
      "processor : 0\n"
      "vendor_id : GenuineIntel\n"
      "flags : fpu sse2 sse4_2 avx avx2 adx rdseed\n";
  EXPECT_EQ(arch::detect_from_cpuinfo(cpuinfo), "broadwell");
}

TEST(Detect, IntelSkylakeAvx512) {
  std::string cpuinfo =
      "vendor_id : GenuineIntel\n"
      "flags : sse4_2 avx avx2 adx clflushopt avx512f avx512bw\n";
  EXPECT_EQ(arch::detect_from_cpuinfo(cpuinfo), "skylake_avx512");
}

TEST(Detect, AmdZen3) {
  std::string cpuinfo =
      "vendor_id : AuthenticAMD\n"
      "flags : sse4_2 avx avx2 clzero clwb vaes pku\n";
  EXPECT_EQ(arch::detect_from_cpuinfo(cpuinfo), "zen3");
}

TEST(Detect, Power9ViaCpuLine) {
  std::string cpuinfo =
      "processor : 0\n"
      "cpu : POWER9, altivec supported\n";
  EXPECT_EQ(arch::detect_from_cpuinfo(cpuinfo), "power9le");
}

TEST(Detect, GenericFallbackByLevel) {
  std::string cpuinfo =
      "vendor_id : SomethingElse\n"
      "flags : sse2 sse4_2 avx avx2\n";
  EXPECT_EQ(arch::detect_from_cpuinfo(cpuinfo), "x86_64_v3");
}

TEST(Detect, GarbageThrows) {
  EXPECT_THROW(arch::detect_from_cpuinfo("not cpuinfo at all"),
               benchpark::SystemError);
}

TEST(Detect, HostDetectionReturnsKnownName) {
  auto host = arch::detect_host();
  EXPECT_NE(MicroarchDatabase::instance().find(host), nullptr) << host;
}

TEST(Flags, GccTargetsAndVersionGates) {
  EXPECT_EQ(arch::optimization_flags("gcc", Version("12.1.1"), "zen3"),
            "-march=znver3");
  // Old GCC predates znver3: falls back to znver2.
  EXPECT_EQ(arch::optimization_flags("gcc", Version("9.4.0"), "zen3"),
            "-march=znver2");
  EXPECT_EQ(arch::optimization_flags("gcc", Version("12.1.1"), "broadwell"),
            "-march=broadwell");
  EXPECT_EQ(arch::optimization_flags("gcc", Version("12.1.1"), "power9le"),
            "-mcpu=power9");
  EXPECT_EQ(arch::optimization_flags("gcc", Version("12.1.1"), "x86_64_v3"),
            "-march=x86-64-v3");
  EXPECT_EQ(arch::optimization_flags("gcc", Version("8.5.0"), "x86_64_v3"),
            "-march=x86-64 -mtune=generic");
}

TEST(Flags, IntelCompiler) {
  EXPECT_EQ(arch::optimization_flags("intel", Version("2021.6.0"),
                                     "cascadelake"),
            "-xCORE-AVX512");
  EXPECT_EQ(arch::optimization_flags("intel", Version("2021.6.0"),
                                     "broadwell"),
            "-xCORE-AVX2");
  EXPECT_THROW(
      arch::optimization_flags("intel", Version("2021.6.0"), "power9le"),
      benchpark::SystemError);
}

TEST(Flags, IbmXl) {
  EXPECT_EQ(arch::optimization_flags("xl", Version("16.1.1"), "power9le"),
            "-qarch=pwr9");
  EXPECT_THROW(arch::optimization_flags("xl", Version("16.1.1"), "zen3"),
               benchpark::SystemError);
}

TEST(Flags, UnknownTargetThrows) {
  EXPECT_THROW(arch::optimization_flags("gcc", Version("12.1.1"), "mystery"),
               benchpark::SystemError);
}

TEST(Flags, UnknownCompilerConservative) {
  EXPECT_EQ(arch::optimization_flags("weirdcc", Version("1.0"), "zen3"),
            "-O2");
}
