// Spack-like environments: manifest + lockfile (Section 3.1, Figure 2/3).
//
// "In Spack, environment manifests are treated as user input, and the
// output of the concretizer is written to a lockfile." An Environment
// holds abstract user specs (the manifest), concretizes them (optionally
// unified), and emits a lockfile that fully pins the build: that lockfile
// is what makes Benchpark experiments functionally reproducible.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/concretizer/concretizer.hpp"
#include "src/install/installer.hpp"
#include "src/spec/spec.hpp"
#include "src/yaml/node.hpp"

namespace benchpark::env {

class Environment {
public:
  Environment() = default;

  /// Figure 3: build an environment from a spack.yaml manifest node.
  static Environment from_manifest(const yaml::Node& spack_yaml);

  // -- manifest manipulation (spack env create / spack add) -------------
  void add(const std::string& abstract_spec_text);
  void add(spec::Spec abstract);
  /// Remove by package name; returns false when absent.
  bool remove(std::string_view package_name);

  [[nodiscard]] const std::vector<spec::Spec>& user_specs() const {
    return user_specs_;
  }
  [[nodiscard]] bool unify() const { return unify_; }
  void set_unify(bool unify) { unify_ = unify; }
  [[nodiscard]] bool view() const { return view_; }
  void set_view(bool view) { view_ = view; }

  /// Emit the manifest back as a spack.yaml tree (round-trips Figure 3).
  [[nodiscard]] yaml::Node manifest_yaml() const;

  // -- concretization (spack concretize) ----------------------------------
  /// Resolve the manifest through Concretizer::concretize_all (memo cache
  /// on, roots fanned out on the shared pool).
  void concretize(const concretizer::Concretizer& concretizer);
  [[nodiscard]] bool concretized() const { return !concrete_specs_.empty(); }
  /// Cache traffic of the most recent concretize() call.
  [[nodiscard]] std::size_t concretize_cache_hits() const {
    return concretize_cache_hits_;
  }
  [[nodiscard]] std::size_t concretize_cache_misses() const {
    return concretize_cache_misses_;
  }
  [[nodiscard]] const std::vector<spec::Spec>& concrete_specs() const {
    return concrete_specs_;
  }
  [[nodiscard]] const spec::Spec* concrete_for(
      std::string_view package_name) const;

  /// Lockfile with roots and the fully pinned closure, keyed by DAG hash.
  [[nodiscard]] yaml::Node lockfile() const;
  /// Rebuild a concretized environment from a lockfile (functional
  /// reproducibility: no concretizer needed on the consuming side).
  static Environment from_lockfile(const yaml::Node& lockfile);

  // -- installation (spack install) -----------------------------------------
  /// Install every root, in manifest order, through `installer`; later
  /// roots reuse what earlier roots built. Every root gets its turn even
  /// after one fails; the first failure is then rethrown.
  install::InstallReport install_all(
      install::Installer& installer,
      const install::InstallOptions& options = {}) const;

private:
  std::vector<spec::Spec> user_specs_;
  std::vector<spec::Spec> concrete_specs_;
  bool unify_ = true;
  bool view_ = true;
  std::size_t concretize_cache_hits_ = 0;
  std::size_t concretize_cache_misses_ = 0;
};

/// Serialize one concrete spec (with dependency hashes) to a lockfile
/// node; exposed for tests and the metrics database.
yaml::Node concrete_spec_to_node(const spec::Spec& s);
/// Inverse of concrete_spec_to_node given a hash->node index.
spec::Spec concrete_spec_from_node(
    const yaml::Node& node, const yaml::Node& index);

}  // namespace benchpark::env
