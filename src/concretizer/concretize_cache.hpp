// Process-wide memo table for concretization results.
//
// Concretization is the dominant cost of a large build farm: every
// experiment-matrix cell and every environment root re-resolves the same
// dependency closures. This cache makes repeated roots resolve exactly
// once per process. Entries are keyed by
//
//   (canonical abstract-spec hash, config fingerprint, repo-stack
//    fingerprint [, unify component])
//
// and hold *shared immutable* concrete specs (shared_ptr<const Spec>),
// so every consumer of a warm entry aliases one resolution. The key is
// built by Concretizer::concretize_all; the table is an instantiation of
// support::SnapshotCache (lock-free hits, single-flight misses through
// get_or_insert, oldest-first eviction, "concretizer.cache.*" counters).
// What this module owns is the canonical spec rendering
// (constraint-order independent).
//
// Invalidation: the config and repo-stack fingerprints in the key make
// stale entries unreachable after any scope or recipe change — there is
// nothing to flush, the old keys simply stop being asked for. Explicit
// invalidate()/clear() exist for the chaos path ("concretizer.resolve"
// fault site): a transient fault treats the entry as poisoned, drops it,
// and re-resolves.
#pragma once

#include <memory>
#include <string>

#include "src/spec/spec.hpp"
#include "src/support/snapshot_cache.hpp"

namespace benchpark::concretizer {

/// Canonical rendering of an abstract spec: identical constraint sets
/// produce identical text regardless of the order constraints were
/// written ("amg2023 ^hypre ^mvapich2" == "amg2023 ^mvapich2 ^hypre");
/// any semantic difference changes it. Variants are name-sorted (map
/// order), dependencies are canonicalized recursively and sorted.
[[nodiscard]] std::string canonical_spec_text(const spec::Spec& abstract);

/// Stable base32 hash of canonical_spec_text (the cache-key component).
[[nodiscard]] std::string canonical_spec_hash(const spec::Spec& abstract);

class ConcretizationCache
    : public support::SnapshotCache<std::shared_ptr<const spec::Spec>> {
public:
  ConcretizationCache() : SnapshotCache("concretizer.cache") {}

  /// The process-wide instance every cache-enabled Concretizer consults.
  static ConcretizationCache& global();
};

}  // namespace benchpark::concretizer
