#include "src/env/environment.hpp"

#include <algorithm>
#include <exception>

#include "src/support/error.hpp"

namespace benchpark::env {

using spec::Spec;
using yaml::Node;

Environment Environment::from_manifest(const Node& spack_yaml) {
  Environment env;
  const Node& body =
      spack_yaml.has("spack") ? spack_yaml.at("spack") : spack_yaml;
  for (const auto& text : body.at("specs").as_string_list()) {
    env.add(text);
  }
  env.unify_ = body.path("concretizer.unify").as_bool_or(true);
  env.view_ = body.at("view").as_bool_or(true);
  return env;
}

void Environment::add(const std::string& abstract_spec_text) {
  add(Spec::parse(abstract_spec_text));
}

void Environment::add(Spec abstract) {
  if (abstract.name().empty()) {
    throw Error("environments require named specs");
  }
  // Adding the same package again merges constraints (like `spack add`
  // refusing duplicates; we choose merge semantics for ergonomics).
  for (auto& existing : user_specs_) {
    if (existing.name() == abstract.name()) {
      existing.constrain(abstract);
      concrete_specs_.clear();  // invalidate stale concretization
      return;
    }
  }
  user_specs_.push_back(std::move(abstract));
  concrete_specs_.clear();
}

bool Environment::remove(std::string_view package_name) {
  auto it = std::find_if(
      user_specs_.begin(), user_specs_.end(),
      [&](const Spec& s) { return s.name() == package_name; });
  if (it == user_specs_.end()) return false;
  user_specs_.erase(it);
  concrete_specs_.clear();
  return true;
}

Node Environment::manifest_yaml() const {
  Node root = Node::make_mapping();
  Node& body = root["spack"];
  body = Node::make_mapping();
  Node specs = Node::make_sequence();
  for (const auto& s : user_specs_) specs.push_back(Node(s.str()));
  body["specs"] = std::move(specs);
  Node& cz = body["concretizer"];
  cz = Node::make_mapping();
  cz["unify"] = Node(unify_);
  body["view"] = Node(view_);
  return root;
}

void Environment::concretize(const concretizer::Concretizer& concretizer) {
  concretizer::ConcretizeRequest request;
  request.roots = user_specs_;
  request.unify = unify_;
  auto result = concretizer.concretize_all(request);
  concrete_specs_ = std::move(result.specs);
  concretize_cache_hits_ = result.cache_hits;
  concretize_cache_misses_ = result.cache_misses;
}

const Spec* Environment::concrete_for(std::string_view package_name) const {
  for (const auto& s : concrete_specs_) {
    if (s.name() == package_name) return &s;
  }
  // Also search dependency closures.
  for (const auto& root : concrete_specs_) {
    std::vector<const Spec*> stack{&root};
    while (!stack.empty()) {
      const Spec* s = stack.back();
      stack.pop_back();
      if (s->name() == package_name) return s;
      for (const auto& d : s->dependencies()) stack.push_back(&d);
    }
  }
  return nullptr;
}

// ------------------------------------------------------------------ lockfile

Node concrete_spec_to_node(const Spec& s) {
  Node node = Node::make_mapping();
  node["name"] = Node(s.name());
  node["version"] = Node(s.concrete_version().str());
  if (s.compiler()) node["compiler"] = Node(s.compiler()->str());
  node["target"] = Node(s.target());
  if (!s.variants().empty()) {
    Node& variants = node["variants"];
    variants = Node::make_mapping();
    for (const auto& [vname, vvalue] : s.variants()) {
      variants[vname] = Node(vvalue.value_str());
    }
  }
  if (s.is_external()) node["external"] = Node(s.external_prefix());
  if (!s.dependencies().empty()) {
    Node& deps = node["dependencies"];
    deps = Node::make_mapping();
    for (const auto& d : s.dependencies()) {
      deps[d.name()] = Node(d.dag_hash());
    }
  }
  return node;
}

namespace {

void collect_closure(const Spec& s, Node& index) {
  auto hash = s.dag_hash();
  if (index.has(hash)) return;
  index[hash] = concrete_spec_to_node(s);
  for (const auto& d : s.dependencies()) collect_closure(d, index);
}

}  // namespace

Node Environment::lockfile() const {
  if (!concretized()) throw Error("environment is not concretized");
  Node root = Node::make_mapping();
  Node& meta = root["_meta"];
  meta = Node::make_mapping();
  meta["file-type"] = Node("benchpark-lockfile");
  meta["lockfile-version"] = Node(1);

  Node roots = Node::make_sequence();
  for (std::size_t i = 0; i < concrete_specs_.size(); ++i) {
    Node entry = Node::make_mapping();
    entry["spec"] = Node(user_specs_[i].str());
    entry["hash"] = Node(concrete_specs_[i].dag_hash());
    roots.push_back(std::move(entry));
  }
  root["roots"] = std::move(roots);

  Node& index = root["concrete_specs"];
  index = Node::make_mapping();
  for (const auto& s : concrete_specs_) collect_closure(s, index);
  return root;
}

spec::Spec concrete_spec_from_node(const Node& node, const Node& index) {
  Spec s(node.at("name").as_string());
  s.set_versions(spec::VersionConstraint::exactly(
      spec::Version(node.at("version").as_string())));
  if (node.has("compiler")) {
    auto parsed = Spec::parse("x%" + node.at("compiler").as_string());
    s.set_compiler(*parsed.compiler());
  }
  s.set_target(node.at("target").as_string());
  if (node.has("variants")) {
    for (const auto& [vname, vvalue] : node.at("variants").map()) {
      s.set_variant(vname, spec::VariantValue::parse(vvalue.as_string()));
    }
  }
  if (node.has("external")) {
    s.set_external_prefix(node.at("external").as_string());
  }
  if (node.has("dependencies")) {
    for (const auto& [dname, dhash] : node.at("dependencies").map()) {
      const Node& dep_node = index.at(dhash.as_string());
      if (dep_node.is_null()) {
        throw Error("lockfile is missing concrete spec for hash " +
                    dhash.as_string());
      }
      s.add_dependency(concrete_spec_from_node(dep_node, index));
    }
  }
  s.mark_concrete();
  return s;
}

Environment Environment::from_lockfile(const Node& lockfile) {
  Environment env;
  const Node& index = lockfile.at("concrete_specs");
  for (const auto& entry : lockfile.at("roots").items()) {
    env.user_specs_.push_back(Spec::parse(entry.at("spec").as_string()));
    const Node& node = index.at(entry.at("hash").as_string());
    if (node.is_null()) {
      throw Error("lockfile root hash not found: " +
                  entry.at("hash").as_string());
    }
    env.concrete_specs_.push_back(concrete_spec_from_node(node, index));
  }
  return env;
}

install::InstallReport Environment::install_all(
    install::Installer& installer,
    const install::InstallOptions& options) const {
  if (!concretized()) throw Error("environment is not concretized");
  // Roots install in manifest order on one tree, so a shared dependency
  // is built by the first root that needs it and every later root records
  // it as already installed: builder attribution, and so the merged log,
  // is the same bytes at every engine width. Each root's wavefronts still
  // spread across the pool. A failed root does not stop the roots after
  // it; the first failure is rethrown once every root has had its turn.
  install::InstallReport combined;
  std::exception_ptr first_failure;
  for (const auto& root : concrete_specs_) {
    install::InstallReport report;
    try {
      report = installer.install(root, options);
    } catch (...) {
      if (!first_failure) first_failure = std::current_exception();
      continue;
    }
    combined.total_simulated_seconds += report.total_simulated_seconds;
    // critical_path_seconds models unbounded workers, under which the
    // roots could build side by side: the modeled wall-clock is the
    // slowest root's chain, not the sum.
    combined.critical_path_seconds = std::max(combined.critical_path_seconds,
                                              report.critical_path_seconds);
    combined.from_cache += report.from_cache;
    combined.from_source += report.from_source;
    combined.externals += report.externals;
    combined.already_installed += report.already_installed;
    combined.total_attempts += report.total_attempts;
    combined.retry_wait_seconds += report.retry_wait_seconds;
    combined.build_log += report.build_log;
    for (auto& r : report.installed) combined.installed.push_back(std::move(r));
  }
  if (first_failure) std::rethrow_exception(first_failure);
  return combined;
}

}  // namespace benchpark::env
