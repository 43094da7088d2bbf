#include "src/concretizer/concretize_cache.hpp"

#include <algorithm>
#include <vector>

#include "src/support/hash.hpp"

namespace benchpark::concretizer {

// ---------------------------------------------------------- canonical text

namespace {

std::string canonical_no_deps(const spec::Spec& s) {
  // Mirrors Spec::str_no_deps() (variants iterate the name-sorted map),
  // plus the external prefix, which str_no_deps omits but which changes
  // what the spec resolves to.
  std::string out = s.name();
  if (!s.versions().is_any()) out += "@" + s.versions().str();
  for (const auto& [vname, vvalue] : s.variants()) {
    if (vvalue.kind() == spec::VariantValue::Kind::boolean) {
      out += (vvalue.as_bool() ? "+" : "~") + vname;
    } else {
      out += " " + vname + "=" + vvalue.value_str();
    }
  }
  if (s.compiler()) out += "%" + s.compiler()->str();
  if (!s.target().empty()) out += " target=" + s.target();
  if (s.is_external()) out += " external=" + s.external_prefix();
  return out;
}

}  // namespace

std::string canonical_spec_text(const spec::Spec& abstract) {
  std::string out = canonical_no_deps(abstract);
  std::vector<std::string> deps;
  deps.reserve(abstract.dependencies().size());
  for (const auto& d : abstract.dependencies()) {
    // Recursive: programmatically built constraints may nest deeper than
    // the one-level ^dep grammar the parser produces.
    deps.push_back(canonical_spec_text(d));
  }
  std::sort(deps.begin(), deps.end());
  for (const auto& d : deps) out += " ^{" + d + "}";
  return out;
}

std::string canonical_spec_hash(const spec::Spec& abstract) {
  return support::hash_base32(canonical_spec_text(abstract));
}

// ------------------------------------------------------------------- cache

ConcretizationCache& ConcretizationCache::global() {
  static ConcretizationCache instance;
  return instance;
}

}  // namespace benchpark::concretizer
