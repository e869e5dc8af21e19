// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Interned call stacks with per-depth suffix hashes.
//
// §5.6: "Dimmunix uses a hash table to map raw call stacks to our own call
// stack objects. Matching a call stack consists of hashing the raw call
// stack and finding the corresponding metadata object S."
//
// Every distinct call stack observed by the engine (and every stack loaded
// from the signature history) is interned exactly once and given a dense
// StackId. For each interned stack we precompute the hash of its top-d
// frames for d = 1..max_depth, and maintain, per depth, an index from suffix
// hash to the stacks sharing that suffix. That index is what makes
// "find all live stacks matching signature stack S at depth d" an O(1)
// lookup instead of a scan.
//
// Concurrency: interning runs on the application's critical path (every
// Request hashes and interns the current stack), so the common "stack
// already interned" case is LOCK-FREE — a probe of an open-addressing index
// of atomics, then an immutable entry read through an AtomicSlab. Only a
// genuinely new stack takes the writer lock. Entry contents never change
// after publication, so Get/MatchesAtDepth/DeepestMatchDepth/Describe are
// lock-free too; the per-depth suffix index is consulted only by rare paths
// (signature-cache rebuilds) and stays under the writer lock.

#ifndef DIMMUNIX_STACK_STACK_TABLE_H_
#define DIMMUNIX_STACK_STACK_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/atomic_slab.h"
#include "src/common/spin_lock.h"
#include "src/stack/frame.h"

namespace dimmunix {

using StackId = std::int32_t;
constexpr StackId kInvalidStackId = -1;

// Immutable after interning; stable address (entries live in a slab).
struct StackEntry {
  StackId id = kInvalidStackId;
  std::vector<Frame> frames;          // innermost first
  std::uint64_t full_hash = 0;        // intern-index hash over all frames
  std::vector<std::uint64_t> depth_hash;  // depth_hash[d-1] = hash of top-d frames
};

class StackTable {
 public:
  explicit StackTable(int max_depth);
  ~StackTable();

  StackTable(const StackTable&) = delete;
  StackTable& operator=(const StackTable&) = delete;

  // Interns `frames`, returning the existing id when already present.
  // Thread-safe; lock-free when the stack is already interned. Invokes any
  // registered new-stack observers (outside all internal locks) when a
  // genuinely new stack is created.
  StackId Intern(const std::vector<Frame>& frames);

  // Entry accessor; the returned reference is valid forever. Lock-free.
  const StackEntry& Get(StackId id) const { return *entries_.Get(static_cast<std::size_t>(id)); }

  // All interned stacks whose top-min(d,len) frames hash-match `entry` at
  // depth d. The result includes `entry` itself. (Diagnostic/offline query
  // — the engine's matcher now tracks per-signature membership on the
  // slots themselves; nothing on the hot path calls this.)
  std::vector<StackId> MatchingAtDepth(StackId id, int depth) const;

  // True iff stacks `a` and `b` match when compared at depth d (§5.5): their
  // top-min(d, len) frames are identical and the shorter stack is only
  // accepted when it is entirely contained, i.e. both are truncated at the
  // same effective depth. Lock-free.
  bool MatchesAtDepth(StackId a, StackId b, int depth) const;

  // The deepest depth (<= max_depth) at which `a` still matches `b`;
  // 0 if they do not even match at depth 1. Used by the calibration
  // fast-path (§5.5). Lock-free.
  int DeepestMatchDepth(StackId a, StackId b) const;

  // Observer invoked for every newly interned stack (after insertion,
  // outside all internal locks). The striped engine no longer registers
  // one (slot memberships are computed lazily); kept as an extension point
  // for tooling that wants to mirror the table incrementally.
  using NewStackObserver = std::function<void(const StackEntry&)>;
  void AddNewStackObserver(NewStackObserver observer);

  int max_depth() const { return max_depth_; }
  std::size_t size() const { return entries_.size(); }

  // Hold the writer lock across fork() (pthread_atfork prepare, then
  // release in parent and child): a child must not inherit it mid-insert
  // from a thread that does not exist there, or its first new stack spins
  // forever.
  void LockForFork() { lock_.Lock(); }
  void UnlockAfterFork() { lock_.Unlock(); }

  // Diagnostic: "frame0;frame1;..." with symbolized names.
  std::string Describe(StackId id) const;

 private:
  // One slot of the lock-free intern index: the entry's full hash (0 =
  // empty; real hashes of 0 are remapped) and its id. A single writer (the
  // insert lock holder) publishes id before hash, so any reader that
  // observes the hash observes a valid id.
  struct IndexSlot {
    std::atomic<std::uint64_t> hash{0};
    std::atomic<StackId> id{kInvalidStackId};
  };
  struct Index {
    explicit Index(std::size_t capacity)
        : mask(capacity - 1), slots(std::make_unique<IndexSlot[]>(capacity)) {}
    const std::size_t mask;  // capacity - 1 (power of two)
    std::unique_ptr<IndexSlot[]> slots;
  };

  std::uint64_t SuffixHash(const std::vector<Frame>& frames, int depth) const;

  // Probes `index` for an entry with `hash` whose frames equal `frames`.
  // Returns kInvalidStackId on miss.
  StackId Probe(const Index& index, std::uint64_t hash,
                const std::vector<Frame>& frames) const;

  // Writer-lock held: inserts (hash -> id) into the current index, growing
  // (and republishing) it when load factor exceeds 1/2.
  void IndexInsertLocked(std::uint64_t hash, StackId id);

  const int max_depth_;
  mutable SpinLock lock_;  // serializes writers (insert + depth index)
  AtomicSlab<StackEntry> entries_;
  std::atomic<Index*> index_;
  std::vector<std::unique_ptr<Index>> retired_;  // old index generations
  // per depth d (1-based): suffix hash -> ids sharing that suffix. Guarded
  // by lock_ (rare-path only).
  std::vector<std::unordered_map<std::uint64_t, std::vector<StackId>>> by_depth_;
  std::vector<NewStackObserver> observers_;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_STACK_STACK_TABLE_H_
