// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Deadlock signatures and the persistent history (§5.3, §5.4).
//
// A signature is a *multiset* of call stacks — one per thread blocked in the
// detected deadlock/starvation — plus a matching depth. Signatures contain
// no thread or lock identities ("this ensures that signatures preserve the
// generality of a deadlock pattern and are fully portable from one execution
// to the next"). Cross-process signatures (src/ipc) need no special
// representation: proc qualification is just one more frame (the process
// identity, prepended at capture time for global locks), so they flow
// through matching, persistence, and multi-process merge unchanged.
//
// The history is loaded from disk at startup, shared read-only among all
// application threads, and mutated only by the monitor thread (§5.4). Writes
// go through an internal lock so the avoidance path can take consistent
// snapshots.
//
// Persistence lives in src/persist/: histories save and load as the
// versioned binary v2 format (magic/CRC, interned stacks, atomic tmp+rename
// — see docs/history-format.md). History exchanges data with that layer via
// persist::HistoryImage (ExportImage/MergeImage below); the asynchronous
// writer around it is persist::HistoryStore.

#ifndef DIMMUNIX_SIGNATURE_HISTORY_H_
#define DIMMUNIX_SIGNATURE_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/spin_lock.h"
#include "src/persist/image.h"
#include "src/signature/calibration_state.h"
#include "src/stack/stack_table.h"

namespace dimmunix {

enum class SignatureKind : std::uint8_t { kDeadlock, kStarvation };

struct Signature {
  SignatureKind kind = SignatureKind::kDeadlock;
  std::vector<StackId> stacks;  // sorted: a canonical multiset
  int match_depth = 4;          // suffix length used during matching (§5.5)
  bool disabled = false;        // §5.7 "allow users to disable signatures"
  // Incremented on every disabled/match_depth change; persisted, so merges
  // across processes let the most-recently-changed copy win the knobs (see
  // persist::SignatureRecord::knob_epoch).
  std::uint16_t knob_epoch = 0;
  std::uint64_t avoidance_count = 0;
  std::uint64_t abort_count = 0;  // yields aborted by the §5.7 timeout bound
  std::uint64_t fp_count = 0;     // retrospective false positives (§5.5)
  CalibrationState calibration;
};

class History {
 public:
  // `table` interns the stacks of loaded signatures; must outlive History.
  explicit History(StackTable* table);

  History(const History&) = delete;
  History& operator=(const History&) = delete;

  // Adds a signature unless an identical stack multiset is already present
  // ("duplicate signatures are disallowed"). Returns the signature index,
  // and sets *added to whether a new entry was created.
  int Add(SignatureKind kind, std::vector<StackId> stacks, int match_depth, bool* added);

  std::size_t size() const;

  // Snapshot accessors -------------------------------------------------------
  // Calls `fn(index, signature)` for every signature under the history lock.
  // `fn` must be short and must not re-enter History.
  void ForEach(const std::function<void(int, const Signature&)>& fn) const;
  Signature Get(int index) const;

  // Mutators (monitor thread / tools) ----------------------------------------
  void SetDisabled(int index, bool disabled);
  void SetMatchDepth(int index, int depth);
  void RecordAvoidance(int index);
  void RecordAbort(int index);
  void RecordFalsePositive(int index);
  // Applies `fn` to the signature under the lock (calibration updates).
  void Mutate(int index, const std::function<void(Signature&)>& fn);

  // Monotonically increases whenever the set of *active* signatures or any
  // matching depth changes; the avoidance engine compares it against its
  // signature-cache generation on the hot path, so the read is a lock-free
  // atomic load.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Persistence ---------------------------------------------------------------
  // Loads (merging) signatures from the v2 snapshot at `path`. Missing file
  // is not an error (returns true with nothing loaded). Malformed content is
  // skipped with a warning; returns false only on I/O failure of an existing
  // file.
  bool Load(const std::string& path);
  // Atomically writes the whole history to `path` in format v2. Thread-safe:
  // concurrent saves (monitor thread vs. control-plane ops) are serialized.
  bool Save(const std::string& path) const;

  // Copies every signature into a portable image (frames, not StackIds).
  persist::HistoryImage ExportImage() const;
  // Merges an image in: new signatures are added (interning their stacks),
  // known ones take the max of each counter; `policy` decides whether the
  // image (kPreferIncoming — reload/vendor patch, §8) or the live history
  // (kPreferExisting — compaction) wins the operator knobs (disabled flag,
  // matching depth). Bumps version() on any matching-relevant change.
  // Returns the number of signatures added.
  int MergeImage(const persist::HistoryImage& image, persist::MergePolicy policy);

 private:
  int AddLocked(SignatureKind kind, std::vector<StackId> stacks, int match_depth, bool* added);

  StackTable* table_;
  mutable SpinLock lock_;
  mutable std::mutex save_m_;  // serializes Save() (file I/O stays off lock_)
  std::vector<Signature> signatures_;
  // Written under lock_; read lock-free by the engine's staleness check.
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace dimmunix

#endif  // DIMMUNIX_SIGNATURE_HISTORY_H_
