// Copyright (c) dimmunix-cpp authors. MIT license.
//
// HistoryImage — the portable, runtime-free representation of a signature
// history. It is what the on-disk format (src/persist/format.h) encodes and
// decodes, and what two histories exchange when they merge: plain frames,
// no StackIds, no StackTable, no locks.
//
// Signatures are keyed by their canonical stack multiset (each stack's
// frames verbatim, the multiset sorted lexicographically), the same
// identity History uses in memory — "duplicate signatures are disallowed"
// (§5.3) holds across process and machine boundaries.

#ifndef DIMMUNIX_PERSIST_IMAGE_H_
#define DIMMUNIX_PERSIST_IMAGE_H_

#include <cstdint>
#include <vector>

#include "src/stack/frame.h"

namespace dimmunix {
namespace persist {

// One signature, self-contained. `kind` mirrors SignatureKind (0 = deadlock,
// 1 = starvation) without pulling the signature headers into this layer.
struct SignatureRecord {
  std::uint8_t kind = 0;
  bool disabled = false;
  // Bumped every time the operator knobs (disabled, match_depth) change.
  // Merges compare epochs first, so a knob change made in one process wins
  // over every stale copy regardless of who compacts last; MergePolicy only
  // breaks ties. Wraps at 65536 — irrelevant in practice (knob changes are
  // operator actions), and a wrap just degrades to tie-break-by-policy.
  std::uint16_t knob_epoch = 0;
  std::int32_t match_depth = 4;
  std::uint64_t avoidance_count = 0;
  std::uint64_t abort_count = 0;
  std::uint64_t fp_count = 0;
  std::vector<std::vector<Frame>> stacks;  // each innermost-first

  // Sorts `stacks` lexicographically — the canonical multiset order every
  // encoder emits, which is what makes save -> load -> save byte-identical.
  void Canonicalize();

  bool SameSignatureAs(const SignatureRecord& other) const;
};

struct HistoryImage {
  std::vector<SignatureRecord> records;

  // Index of the record with `stacks` equal to (canonicalized) `rec`'s,
  // or -1. Linear scan: images are small and short-lived.
  int Find(const SignatureRecord& rec) const;
};

// Who wins the operator knobs (disabled flag, matching depth) when the same
// signature exists on both sides *at the same knob_epoch*. A higher epoch
// always wins outright — the policy is only the tie-breaker. Counters
// always merge with max(): they only ever grow, in every process.
enum class MergePolicy {
  kPreferExisting,  // compaction: in-memory state is newer than the file
  kPreferIncoming,  // reload/vendor patch (§8): the file is authoritative
};

struct MergeStats {
  std::size_t added = 0;    // signatures that did not exist in dst
  std::size_t updated = 0;  // existing signatures whose fields changed
};

// Merges `src` into `dst` under `policy`.
MergeStats MergeInto(HistoryImage* dst, const HistoryImage& src, MergePolicy policy);

// --- Delta extraction (fleet gossip, history_tool diff) ----------------------
//
// Two histories compare by exchanging *digests*: one {hash, knob_epoch} pair
// per signature. The hash is order-independent over the stack multiset (each
// stack hashed separately, the per-stack hashes sorted, then combined), so
// canonical and non-canonical copies of the same signature digest
// identically in every process and on every host.

std::uint64_t SignatureHash(const SignatureRecord& rec);

struct DigestEntry {
  std::uint64_t hash = 0;
  std::uint16_t knob_epoch = 0;
};

// One entry per record, sorted by hash (deterministic wire encoding).
std::vector<DigestEntry> DigestOf(const HistoryImage& image);

// The records of `image` a peer holding `have` is missing — absent from the
// digest entirely, or present with an older knob_epoch (the peer would learn
// a newer operator action from our copy). This is what a gossip round ships.
HistoryImage DeltaAgainst(const HistoryImage& image, const std::vector<DigestEntry>& have);

// Field-level comparison for `history_tool diff`.
struct ImageDiff {
  std::vector<std::uint64_t> only_in_a;  // hashes present in a, absent in b
  std::vector<std::uint64_t> only_in_b;
  struct KnobDiff {
    std::uint64_t hash = 0;
    std::uint16_t epoch_a = 0;
    std::uint16_t epoch_b = 0;
  };
  std::vector<KnobDiff> knob_differs;  // epoch / disabled / depth disagree

  bool identical() const {
    return only_in_a.empty() && only_in_b.empty() && knob_differs.empty();
  }
};

ImageDiff DiffImages(const HistoryImage& a, const HistoryImage& b);

}  // namespace persist
}  // namespace dimmunix

#endif  // DIMMUNIX_PERSIST_IMAGE_H_
