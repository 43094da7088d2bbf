#include "src/concretizer/concretizer.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "src/concretizer/concretize_cache.hpp"
#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/hash.hpp"
#include "src/support/intern.hpp"
#include "src/support/parallel.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::concretizer {

using spec::Spec;
using spec::VariantValue;
using spec::Version;
using spec::VersionConstraint;

namespace {

/// Insert the full closure of a concrete spec into a context (first
/// entry wins — closures merged from cached roots are identical to what
/// a fresh resolution would have inserted, so collisions are benign).
void merge_closure(const Spec& s,
                   std::map<std::string, Spec, std::less<>>& resolved) {
  resolved.emplace(s.name(), s);
  for (const auto& d : s.dependencies()) merge_closure(d, resolved);
}

}  // namespace

Concretizer::Concretizer(pkg::RepoStack repos, Config config)
    : repos_(std::move(repos)), config_(std::move(config)) {
  support::Hasher cfg;
  cfg.update(config_.fingerprint());
  support::Hasher rep;
  rep.update(repos_.fingerprint());
  scope_fingerprint_ = cfg.hex() + "/" + rep.hex();
}

const Spec* Context::find(std::string_view name) const {
  auto it = resolved_.find(name);
  return it == resolved_.end() ? nullptr : &it->second;
}

ConcretizeStats Concretizer::stats() const {
  ConcretizeStats out;
  out.specs_resolved = stats_.specs_resolved.load(std::memory_order_relaxed);
  out.externals_used = stats_.externals_used.load(std::memory_order_relaxed);
  out.virtuals_resolved =
      stats_.virtuals_resolved.load(std::memory_order_relaxed);
  out.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = stats_.cache_misses.load(std::memory_order_relaxed);
  return out;
}

// ------------------------------------------------------- batched entry

struct Concretizer::BatchCounters {
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> misses{0};
};

spec::Spec Concretizer::resolve_root(const Spec& root, Context& ctx,
                                     const std::string& cache_key,
                                     bool merge_hits,
                                     BatchCounters& batch) const {
  auto& collector = obs::TraceCollector::global();
  auto& cache = ConcretizationCache::global();
  // Chaos hook: a transient fault here models a poisoned cache line /
  // flaky resolver — the entry is invalidated and resolution retried;
  // a permanent fault propagates to the caller.
  return support::retry_transient(
      [&](int attempt) -> Spec {
        double latency = support::fault_hit(
            "concretizer.resolve",
            cache_key.empty() ? root.name() : cache_key,
            static_cast<std::uint64_t>(attempt));
        if (latency > 0) {
          collector.emit_span("concretizer.fault_latency", "concretizer",
                              latency, {{"root", root.name()}});
        }

        obs::ScopedSpan span(collector, "resolve:" + root.name(),
                             "concretizer");
        if (cache_key.empty()) {
          std::vector<std::string> stack;
          return resolve(root, ctx, stack);
        }
        // Single-flight: concurrent misses of one key wait for the first
        // resolver and count as hits. resolve() runs on this thread and
        // never waits on pool work, so a pool worker blocked as a waiter
        // cannot starve it.
        bool miss = false;
        auto cached = cache.get_or_insert(cache_key, [&] {
          miss = true;
          std::vector<std::string> stack;
          return std::make_shared<const Spec>(resolve(root, ctx, stack));
        });
        (miss ? batch.misses : batch.hits)
            .fetch_add(1, std::memory_order_relaxed);
        if (span.active()) span.annotate("cache", miss ? "miss" : "hit");
        if (!miss && merge_hits) merge_closure(*cached, ctx.resolved_);
        return *cached;
      },
      [&](int, const TransientError&) {
        if (!cache_key.empty()) cache.invalidate(cache_key);
      });
}

void Concretizer::static_closure(
    std::string_view name,
    support::ArenaVector<std::uint32_t>& visited) const {
  const std::uint32_t id = support::intern(name);
  if (visited.contains(id)) return;
  visited.push_back(id);
  if (const auto* recipe = repos_.find(name)) {
    for (const auto& d : recipe->dependencies()) {
      static_closure(d.dep.name(), visited);
    }
    return;
  }
  if (repos_.is_virtual(name)) {
    // Any provider could be chosen, so a virtual reaches all of them —
    // plus whatever packages.yaml might steer the choice toward.
    for (const auto* p : repos_.providers_of(name)) {
      static_closure(p->name(), visited);
    }
    if (const auto* vsettings = config_.settings_for(name)) {
      for (const auto& ext : vsettings->externals) {
        static_closure(ext.spec.name(), visited);
      }
      for (const auto& preferred : vsettings->preferred_providers) {
        static_closure(preferred, visited);
      }
    }
  }
  // Unknown names stay as themselves; resolution will surface the error.
}

ConcretizeResult Concretizer::concretize_all(
    const ConcretizeRequest& request) const {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "concretize_all", "concretizer");
  if (span.active()) {
    span.annotate("roots", std::to_string(request.roots.size()));
    span.annotate("unify", request.unify ? "true" : "false");
  }

  const std::size_t n = request.roots.size();
  ConcretizeResult result;
  result.specs.resize(n);
  BatchCounters batch;

  // A pre-seeded context makes results depend on state outside the cache
  // key, so such requests are never cached.
  const bool seeded = request.context && request.context->size() > 0;
  const bool cacheable = request.use_cache && !seeded;
  const int threads = request.threads > 0
                          ? request.threads
                          : support::ThreadPool::default_threads();

  if (n == 0) {
    result.stats = stats();
    return result;
  }

  if (!request.unify) {
    // unify:false — every root resolves in its own context; roots are
    // fully independent, so they fan straight out across the pool.
    std::mutex ctx_mu;
    support::parallel_for(n, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        Context ctx;
        if (request.context) {
          std::lock_guard<std::mutex> lock(ctx_mu);
          ctx = *request.context;
        }
        std::string key;
        if (cacheable) {
          key = scope_fingerprint_ + "|u0|" +
                canonical_spec_hash(request.roots[i]);
        }
        result.specs[i] = resolve_root(request.roots[i], ctx, key,
                                       /*merge_hits=*/false, batch);
        if (request.context) {
          std::lock_guard<std::mutex> lock(ctx_mu);
          merge_closure(result.specs[i], request.context->resolved_);
        }
      }
    });
  } else {
    // unify:true — partition roots into connected components of their
    // static dependency closures (two roots that could ever resolve the
    // same package name land in one component, virtuals reaching every
    // provider). Components cannot interact, so they run concurrently;
    // within a component, roots resolve in manifest order against one
    // context, preserving exact sequential unify semantics. Each
    // component merges its closure into the shared request context under
    // a lock.
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    auto unite = [&](std::size_t a, std::size_t b) {
      parent[find(a)] = find(b);
    };
    {
      // Per-request arena scratch: closures are interned-id vectors, the
      // id -> first-owning-root table is a flat list scanned linearly —
      // package universes are small, so integer scans beat hashing names.
      support::Arena arena;
      support::ArenaVector<std::uint32_t> closure(arena);
      struct Owner {
        std::uint32_t id;
        std::size_t root;
      };
      support::ArenaVector<Owner> owner(arena);
      for (std::size_t i = 0; i < n; ++i) {
        closure.clear();  // keeps the arena slice; no per-root allocation
        static_closure(request.roots[i].name(), closure);
        for (const auto& dep : request.roots[i].dependencies()) {
          static_closure(dep.name(), closure);
        }
        for (const std::uint32_t id : closure) {
          bool seen = false;
          for (const Owner& o : owner) {
            if (o.id == id) {
              unite(i, o.root);
              seen = true;
              break;
            }
          }
          if (!seen) owner.push_back({id, i});
        }
      }
    }
    // Components in first-member order; members keep manifest order.
    std::vector<std::vector<std::size_t>> components;
    {
      std::map<std::size_t, std::size_t> component_of;  // repr -> index
      for (std::size_t i = 0; i < n; ++i) {
        auto [it, inserted] =
            component_of.emplace(find(i), components.size());
        if (inserted) components.emplace_back();
        components[it->second].push_back(i);
      }
    }

    std::mutex ctx_mu;
    support::parallel_for(
        components.size(), threads, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t c = lo; c < hi; ++c) {
            const auto& members = components[c];
            Context ctx;
            if (request.context) {
              std::lock_guard<std::mutex> lock(ctx_mu);
              ctx = *request.context;
            }
            // The component key binds each member's entry to the ordered
            // root list it unified with: the same roots in the same order
            // hit; any change to the component misses.
            std::string component_hash;
            if (cacheable) {
              support::Hasher h;
              for (std::size_t i : members) {
                h.update(canonical_spec_text(request.roots[i]));
              }
              component_hash = h.base32();
            }
            for (std::size_t pos = 0; pos < members.size(); ++pos) {
              const std::size_t i = members[pos];
              std::string key;
              if (cacheable) {
                key = scope_fingerprint_ + "|u1|" + component_hash + "#" +
                      std::to_string(pos);
              }
              result.specs[i] = resolve_root(request.roots[i], ctx, key,
                                             /*merge_hits=*/true, batch);
            }
            if (request.context) {
              std::lock_guard<std::mutex> lock(ctx_mu);
              for (std::size_t i : members) {
                merge_closure(result.specs[i], request.context->resolved_);
              }
            }
          }
        });
  }

  const std::size_t hits = batch.hits.load(std::memory_order_relaxed);
  const std::size_t misses = batch.misses.load(std::memory_order_relaxed);
  stats_.cache_hits.fetch_add(hits, std::memory_order_relaxed);
  stats_.cache_misses.fetch_add(misses, std::memory_order_relaxed);
  result.cache_hits = hits;
  result.cache_misses = misses;
  result.stats = stats();
  if (span.active()) {
    span.annotate("cache_hits", std::to_string(hits));
    span.annotate("cache_misses", std::to_string(misses));
  }
  return result;
}

// ----------------------------------------------------------- resolution

std::optional<Spec> Concretizer::try_external(const Spec& abstract) const {
  const auto* settings = config_.settings_for(abstract.name());
  if (!settings) return std::nullopt;
  for (const auto& ext : settings->externals) {
    if (!ext.spec.satisfies(abstract)) continue;
    Spec concrete = ext.spec;
    // Externals adopt the exact declared version; compiler/target are
    // nominal (the binary already exists).
    concrete.set_versions(
        VersionConstraint::exactly(ext.spec.concrete_version()));
    if (!concrete.compiler()) {
      const auto& comp = config_.default_compiler();
      concrete.set_compiler(
          {comp.name, VersionConstraint::exactly(comp.version)});
    }
    if (concrete.target().empty()) {
      concrete.set_target(config_.default_target().empty()
                              ? "x86_64"
                              : config_.default_target());
    }
    concrete.set_external_prefix(ext.prefix);
    concrete.mark_concrete();
    stats_.externals_used.fetch_add(1, std::memory_order_relaxed);
    return concrete;
  }
  return std::nullopt;
}

Spec Concretizer::resolve_virtual(const Spec& virtual_spec,
                                  Context& ctx) const {
  const std::string& vname = virtual_spec.name();
  stats_.virtuals_resolved.fetch_add(1, std::memory_order_relaxed);

  // A provider already chosen in this context wins (unify).
  auto providers = repos_.providers_of(vname);
  for (const auto* p : providers) {
    if (ctx.find(p->name())) {
      Spec rewritten = virtual_spec;
      rewritten.set_name(p->name());
      return rewritten;
    }
  }

  // Provider preferences for the virtual (packages.yaml `mpi: providers:`)
  // or an external declared under the virtual name.
  const auto* vsettings = config_.settings_for(vname);
  if (vsettings) {
    for (const auto& ext : vsettings->externals) {
      // Externals for virtuals name the provider in their spec.
      Spec rewritten = virtual_spec;
      rewritten.set_name(ext.spec.name());
      return rewritten;
    }
    for (const auto& preferred : vsettings->preferred_providers) {
      auto match = std::find_if(providers.begin(), providers.end(),
                                [&](const pkg::PackageRecipe* p) {
                                  return p->name() == preferred;
                                });
      if (match != providers.end()) {
        Spec rewritten = virtual_spec;
        rewritten.set_name((*match)->name());
        return rewritten;
      }
    }
  }

  // Otherwise the first buildable provider (alphabetical for determinism).
  std::vector<const pkg::PackageRecipe*> candidates;
  for (const auto* p : providers) {
    const auto* psettings = config_.settings_for(p->name());
    bool has_external = psettings && !psettings->externals.empty();
    bool buildable = !psettings || psettings->buildable;
    if (buildable || has_external) candidates.push_back(p);
  }
  if (candidates.empty()) {
    std::string considered;
    for (const auto* p : providers) {
      if (!considered.empty()) considered += ", ";
      considered += p->name();
    }
    throw NoProviderError(
        "no usable provider for virtual '" + vname + "'" +
        (considered.empty()
             ? " (no package provides it)"
             : " (providers " + considered +
                   " are all unbuildable with no external)"));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const pkg::PackageRecipe* a, const pkg::PackageRecipe* b) {
              return a->name() < b->name();
            });
  // Prefer candidates with externals (they cost nothing to use).
  for (const auto* p : candidates) {
    const auto* psettings = config_.settings_for(p->name());
    if (psettings && !psettings->externals.empty()) {
      Spec rewritten = virtual_spec;
      rewritten.set_name(p->name());
      return rewritten;
    }
  }
  Spec rewritten = virtual_spec;
  rewritten.set_name(candidates.front()->name());
  return rewritten;
}

Spec Concretizer::resolve(const Spec& abstract, Context& ctx,
                          std::vector<std::string>& stack) const {
  Spec goal = abstract;

  // 1. Virtuals rewrite to a provider first.
  if (!goal.name().empty() && !repos_.has(goal.name()) &&
      repos_.is_virtual(goal.name())) {
    goal = resolve_virtual(goal, ctx);
  }
  if (goal.name().empty()) {
    throw ConcretizationError("cannot concretize anonymous spec '" +
                              abstract.str() + "'");
  }

  // 2. Hard requirements from packages.yaml.
  const auto* settings = config_.settings_for(goal.name());
  if (settings && settings->require) {
    Spec requirement = *settings->require;
    requirement.set_name(goal.name());
    goal.constrain(requirement);
  }

  // 3. Unification: an already-resolved package must satisfy the new
  //    constraints.
  if (const Spec* existing = ctx.find(goal.name())) {
    if (!existing->satisfies(goal)) {
      throw UnifyConflictError(
          "unify conflict for '" + goal.name() + "': existing '" +
          existing->str() + "' does not satisfy '" + goal.str() + "'");
    }
    return *existing;
  }

  // 4. Cycle guard.
  if (std::find(stack.begin(), stack.end(), goal.name()) != stack.end()) {
    std::string chain;
    for (const auto& name : stack) chain += name + " -> ";
    throw DependencyCycleError("dependency cycle: " + chain + goal.name());
  }
  stack.push_back(goal.name());
  struct PopGuard {
    std::vector<std::string>& s;
    ~PopGuard() { s.pop_back(); }
  } guard{stack};

  // 5. Externals short-circuit the whole subtree.
  if (auto external = try_external(goal)) {
    ctx.resolved_.insert_or_assign(goal.name(), *external);
    stats_.specs_resolved.fetch_add(1, std::memory_order_relaxed);
    return *external;
  }

  const pkg::PackageRecipe& recipe = repos_.get(goal.name());
  if (settings && !settings->buildable) {
    throw ConcretizationError("package '" + goal.name() +
                              "' is not buildable on this system and no "
                              "external satisfies '" +
                              goal.str() + "'");
  }

  Spec concrete(goal.name());

  // 6. Version: preferences first, then highest satisfying.
  VersionConstraint version_goal = goal.versions();
  std::optional<Version> chosen_version;
  if (settings) {
    for (const auto& pref : settings->preferred_versions) {
      auto pref_constraint = VersionConstraint::parse(pref);
      if (!version_goal.intersects(pref_constraint)) continue;
      auto merged = version_goal;
      merged.constrain(pref_constraint);
      if (auto v = recipe.best_version(merged)) {
        chosen_version = v;
        break;
      }
    }
  }
  if (!chosen_version) chosen_version = recipe.best_version(version_goal);
  if (!chosen_version) {
    std::string known;
    for (const auto& v : recipe.versions()) {
      if (!known.empty()) known += ", ";
      known += v.version.str();
    }
    throw UnsatisfiableVersionError(
        "no known version of '" + goal.name() + "' satisfies '@" +
        version_goal.str() + "' (known versions: " + known + ")");
  }
  concrete.set_versions(VersionConstraint::exactly(*chosen_version));

  // 7. Variants: recipe defaults overlaid with requested values.
  for (const auto& vdef : recipe.variants()) {
    concrete.set_variant(vdef.name, vdef.default_value);
  }
  for (const auto& [vname, vvalue] : goal.variants()) {
    const auto* vdef = recipe.find_variant(vname);
    if (!vdef) {
      throw ConcretizationError("package '" + goal.name() +
                                "' has no variant '" + vname + "'");
    }
    if (!vdef->allowed_values.empty() &&
        vvalue.kind() != VariantValue::Kind::boolean) {
      for (const auto& v : vvalue.as_multi()) {
        if (std::find(vdef->allowed_values.begin(), vdef->allowed_values.end(),
                      v) == vdef->allowed_values.end()) {
          throw ConcretizationError("value '" + v + "' not allowed for " +
                                    goal.name() + " variant '" + vname + "'");
        }
      }
    }
    concrete.set_variant(vname, vvalue);
  }

  // 8. Compiler.
  spec::CompilerSpec compiler_goal =
      goal.compiler() ? *goal.compiler() : spec::CompilerSpec{};
  const CompilerEntry* compiler = nullptr;
  if (compiler_goal.name.empty()) {
    compiler = &config_.default_compiler();
  } else {
    compiler = config_.find_compiler(compiler_goal);
    if (!compiler) {
      throw ConcretizationError("no compiler matching '%" +
                                compiler_goal.str() + "' in compilers.yaml");
    }
  }
  concrete.set_compiler(
      {compiler->name, VersionConstraint::exactly(compiler->version)});

  // 9. Target.
  if (!goal.target().empty()) {
    concrete.set_target(goal.target());
  } else if (!config_.default_target().empty()) {
    concrete.set_target(config_.default_target());
  } else {
    concrete.set_target("x86_64");
  }

  // 10. Conflicts check on the resolved (pre-deps) spec.
  recipe.check_conflicts(concrete);

  // 11. Dependencies: recipe declarations merged with the user's ^deps.
  //     User ^deps naming packages the recipe does not pull in become
  //     extra constraints only (Spack would error; we match that).
  // Coalesce multiple declarations of the same dependency (e.g. a plain
  // depends_on("hypre") plus a conditional depends_on("hypre+cuda",
  // when="+cuda")) into one merged constraint before resolving.
  std::vector<Spec> dep_goals;
  for (const auto* ddef : recipe.active_dependencies(concrete)) {
    auto existing = std::find_if(
        dep_goals.begin(), dep_goals.end(),
        [&](const Spec& s) { return s.name() == ddef->dep.name(); });
    if (existing != dep_goals.end()) {
      existing->constrain(ddef->dep);
    } else {
      dep_goals.push_back(ddef->dep);
    }
  }

  std::vector<std::string> resolved_dep_names;
  for (Spec& dep_goal : dep_goals) {
    std::string dep_name = dep_goal.name();
    const std::string declared_name = dep_name;
    // If the declared dependency is a virtual and the user named a concrete
    // provider of it (^mvapich2 for a "mpi" dependency), the user's choice
    // selects the provider.
    if (repos_.is_virtual(dep_name)) {
      for (const auto& user_dep : goal.dependencies()) {
        const auto* user_recipe = repos_.find(user_dep.name());
        if (!user_recipe) continue;
        const auto& virtuals = user_recipe->provided_virtuals();
        if (std::find(virtuals.begin(), virtuals.end(), dep_name) !=
            virtuals.end()) {
          dep_goal.set_name(user_dep.name());
          dep_name = user_dep.name();
          break;
        }
      }
    }
    // Merge user constraints targeting this dependency (by package name or
    // by the virtual name it came from).
    for (const auto& user_dep : goal.dependencies()) {
      if (user_dep.name() == dep_name) {
        dep_goal.constrain(user_dep);
      } else if (user_dep.name() == declared_name) {
        // Constraint written against the virtual name ("^mpi@3:") applies
        // to whichever provider was chosen.
        Spec renamed = user_dep;
        renamed.set_name(dep_name);
        dep_goal.constrain(renamed);
      }
    }
    // Dependencies inherit compiler and target unless they pin their own.
    if (!dep_goal.compiler()) {
      dep_goal.set_compiler(*concrete.compiler());
    }
    if (dep_goal.target().empty()) dep_goal.set_target(concrete.target());

    Spec dep_concrete = resolve(dep_goal, ctx, stack);
    // Avoid duplicate dependency edges (two decls resolving to one pkg).
    if (std::find(resolved_dep_names.begin(), resolved_dep_names.end(),
                  dep_concrete.name()) == resolved_dep_names.end()) {
      resolved_dep_names.push_back(dep_concrete.name());
      concrete.add_dependency(dep_concrete);
    }
    // User constraints on the virtual name also apply to the provider.
    for (const auto& user_dep : goal.dependencies()) {
      if (user_dep.name() != dep_name &&
          user_dep.name() == dep_concrete.name() &&
          !dep_concrete.satisfies(user_dep)) {
        throw ConcretizationError("dependency '" + dep_concrete.str() +
                                  "' does not satisfy requested '" +
                                  user_dep.str() + "'");
      }
    }
  }
  // User-supplied ^deps that no recipe declaration consumed.
  for (const auto& user_dep : goal.dependencies()) {
    std::string resolved_name = user_dep.name();
    if (repos_.is_virtual(resolved_name)) {
      // Find which provider it became, if any.
      continue;  // virtual constraints were merged above
    }
    bool used =
        std::find(resolved_dep_names.begin(), resolved_dep_names.end(),
                  resolved_name) != resolved_dep_names.end();
    if (!used) {
      throw ConcretizationError("'" + goal.name() + "' does not depend on '" +
                                user_dep.name() + "'");
    }
  }

  concrete.mark_concrete();
  ctx.resolved_.insert_or_assign(concrete.name(), concrete);
  stats_.specs_resolved.fetch_add(1, std::memory_order_relaxed);
  return concrete;
}

}  // namespace benchpark::concretizer
