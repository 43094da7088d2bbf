// RCU-style atomic snapshot publication with hazard-pointer reclamation.
//
// Two structures serve their steady-state read paths from an immutable
// snapshot: the one generic cache, support::SnapshotCache
// (support/snapshot_cache.hpp), whose three instantiations are
// buildcache::BinaryCache, concretizer::ConcretizationCache and
// ramble::TemplateCache, and the string interner.
// Readers pin the current snapshot through a per-thread hazard slot: one
// plain load, one store to the thread's own slot, one validating load —
// no lock, no shared reference count, no read-side cache-line contention
// (an atomic<shared_ptr> snapshot was measurably *slower* than a mutex at
// 16 threads: libstdc++ backs it with a spinlock pool and every reader
// bumps the same control-block refcount). Writers copy the current
// snapshot under the owner's mutex, apply the mutation to the
// copy, publish the new version, and retire the old one; a retired
// snapshot is freed on a later publish once no thread's hazard slot pins
// it (the grace period of classic RCU, detected instead of waited for).
//
// Protocol invariants (DESIGN.md §12):
//   * a snapshot, once published, is never mutated;
//   * writers serialize per SnapshotPtr on the owner's mutex, so
//     copy-modify-publish sequences never interleave and the retired list
//     needs no locking of its own;
//   * load() is lock-free and returns a fully consistent snapshot — a
//     reader sees either the whole effect of a publish or none of it,
//     never a torn state;
//   * a SnapshotGuard must stay on the thread that created it and die
//     within the request scope (never stash one); nesting deeper than
//     hazard::Record::kSlots guards on one thread throws;
//   * destroying a SnapshotPtr requires that no readers remain.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace benchpark::support {

namespace hazard {

/// One thread's hazard slots. Records live on a global intrusive list,
/// are claimed on a thread's first pin, released at thread exit, and
/// recycled by later threads — never freed, so writers can always scan.
struct Record {
  static constexpr int kSlots = 8;
  std::atomic<const void*> slots[kSlots];
  std::atomic<bool> owned{false};
  Record* next = nullptr;  // immutable once linked in

  Record() {
    for (auto& s : slots) s.store(nullptr, std::memory_order_relaxed);
  }
};

/// A free slot in the calling thread's record (registering the thread on
/// first use). Throws std::runtime_error when all kSlots are pinned
/// (guard nesting too deep). The slot stays "claimed" exactly while it
/// holds a non-null pointer.
std::atomic<const void*>* claim_slot();

/// True when any thread's slot currently pins `p` (seq_cst scan; pairs
/// with the guard's seq_cst pin-validate protocol).
bool any_hazard(const void* p);

}  // namespace hazard

/// Pins one published snapshot for the guard's scope. Obtained from
/// SnapshotPtr::load(); behaves like a non-owning smart pointer whose
/// target is guaranteed alive until the guard dies.
template <typename T>
class SnapshotGuard {
public:
  explicit SnapshotGuard(const std::atomic<const T*>& src)
      : slot_(hazard::claim_slot()) {
    // Pin-validate loop: publish the candidate in our hazard slot, then
    // re-read the source. Once both agree the writer's sweep is
    // guaranteed to see the pin (both sides seq_cst), so the snapshot
    // cannot be freed while we hold it.
    const T* candidate = src.load(std::memory_order_acquire);
    for (;;) {
      slot_->store(candidate, std::memory_order_seq_cst);
      const T* again = src.load(std::memory_order_seq_cst);
      if (again == candidate) break;
      candidate = again;
    }
    ptr_ = candidate;
  }

  ~SnapshotGuard() { slot_->store(nullptr, std::memory_order_release); }

  SnapshotGuard(const SnapshotGuard&) = delete;
  SnapshotGuard& operator=(const SnapshotGuard&) = delete;

  [[nodiscard]] const T* get() const { return ptr_; }
  [[nodiscard]] const T& operator*() const { return *ptr_; }
  [[nodiscard]] const T* operator->() const { return ptr_; }

private:
  std::atomic<const void*>* slot_;
  const T* ptr_ = nullptr;
};

/// A published, immutable snapshot slot. T is the snapshot payload (a
/// whole shard map); the stored pointer is always non-null after
/// construction so readers never branch on empty.
template <typename T>
class SnapshotPtr {
public:
  SnapshotPtr() : current_(std::make_shared<const T>()) {
    raw_.store(current_.get(), std::memory_order_relaxed);
  }
  explicit SnapshotPtr(std::shared_ptr<const T> initial)
      : current_(std::move(initial)) {
    raw_.store(current_.get(), std::memory_order_relaxed);
  }

  SnapshotPtr(const SnapshotPtr&) = delete;
  SnapshotPtr& operator=(const SnapshotPtr&) = delete;

  /// Lock-free read: pin the current snapshot for the guard's scope.
  [[nodiscard]] SnapshotGuard<T> load() const { return SnapshotGuard<T>(raw_); }

  /// Publish a new snapshot (writers only, under the owning mutex). The
  /// superseded snapshot is retired and freed on a later store() once no
  /// reader pins it.
  void store(std::shared_ptr<const T> next) {
    retired_.push_back(std::move(current_));
    current_ = std::move(next);
    raw_.store(current_.get(), std::memory_order_seq_cst);
    // Sweep: a retired snapshot some slot still pins survives to the
    // next publish; everything unpinned is freed now. Readers racing
    // their pin against this publish either validate against the new
    // pointer (retrying) or were already visible to any_hazard.
    std::size_t kept = 0;
    for (auto& old : retired_) {
      if (hazard::any_hazard(old.get())) {
        retired_[kept++] = std::move(old);
      }
    }
    retired_.resize(kept);
  }

private:
  std::shared_ptr<const T> current_;
  std::atomic<const T*> raw_{nullptr};
  /// Superseded snapshots still (possibly) pinned by readers. Guarded by
  /// the writer-side serialization contract, not a mutex of its own.
  std::vector<std::shared_ptr<const T>> retired_;
};

}  // namespace benchpark::support
