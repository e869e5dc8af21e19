// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/stack/stack_table.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"

namespace dimmunix {
namespace {

constexpr std::size_t kInitialIndexCapacity = 1 << 10;

// The index uses hash == 0 as the empty sentinel.
inline std::uint64_t NonZeroHash(std::uint64_t h) { return h == 0 ? 1 : h; }

// The intern index's key: one multiply-xorshift round per 64-bit frame (the
// xorshift folds high product bits into the low bits the index masks).
std::uint64_t FramesHash(const std::vector<Frame>& frames) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ frames.size();
  for (const Frame frame : frames) {
    h = (h ^ frame) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

StackTable::StackTable(int max_depth) : max_depth_(std::max(1, max_depth)) {
  by_depth_.resize(static_cast<std::size_t>(max_depth_));
  auto index = std::make_unique<Index>(kInitialIndexCapacity);
  index_.store(index.get(), std::memory_order_release);
  retired_.push_back(std::move(index));
}

StackTable::~StackTable() = default;

std::uint64_t StackTable::SuffixHash(const std::vector<Frame>& frames, int depth) const {
  const std::size_t n = std::min(frames.size(), static_cast<std::size_t>(depth));
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = HashCombine(h, frames[i]);
  }
  // Mix in the effective length so that a 2-frame stack does not collide
  // with a 5-frame stack sharing its top 2 frames when compared at depth 2 —
  // they *should* collide there; but at depth 5 the 2-frame stack hashes its
  // whole content, and we must not let it alias a genuinely 5-deep suffix.
  return HashCombine(h, n);
}

StackId StackTable::Probe(const Index& index, std::uint64_t hash,
                          const std::vector<Frame>& frames) const {
  std::size_t i = static_cast<std::size_t>(hash) & index.mask;
  for (std::size_t step = 0; step <= index.mask; ++step) {
    const std::uint64_t slot_hash = index.slots[i].hash.load(std::memory_order_acquire);
    if (slot_hash == 0) {
      return kInvalidStackId;  // empty slot terminates the probe chain
    }
    if (slot_hash == hash) {
      const StackId id = index.slots[i].id.load(std::memory_order_acquire);
      // id precedes hash in publication order, so it is valid here. Full
      // 64-bit hash collisions are possible in principle: verify frames and
      // keep probing on mismatch.
      if (id != kInvalidStackId && Get(id).frames == frames) {
        return id;
      }
    }
    i = (i + 1) & index.mask;
  }
  return kInvalidStackId;
}

void StackTable::IndexInsertLocked(std::uint64_t hash, StackId id) {
  Index* index = index_.load(std::memory_order_relaxed);
  const std::size_t size = entries_.size();
  if (size * 2 > index->mask) {
    // Grow: rehash every published entry into a table twice the size, then
    // publish the new generation. Readers still probing the old generation
    // simply miss new entries and retry under the lock. Old generations are
    // retired (not freed) until destruction — a reader may hold a pointer
    // to one indefinitely.
    auto grown = std::make_unique<Index>((index->mask + 1) * 2);
    // `id`'s entry is already in the slab, so the rehash loop inserts it
    // along with every older entry; the generation is then published whole.
    for (std::size_t e = 0; e < size; ++e) {
      const StackEntry& entry = *entries_.Get(e);
      std::size_t i = static_cast<std::size_t>(NonZeroHash(entry.full_hash)) & grown->mask;
      while (grown->slots[i].hash.load(std::memory_order_relaxed) != 0) {
        i = (i + 1) & grown->mask;
      }
      grown->slots[i].id.store(entry.id, std::memory_order_relaxed);
      grown->slots[i].hash.store(NonZeroHash(entry.full_hash), std::memory_order_relaxed);
    }
    index_.store(grown.get(), std::memory_order_release);
    retired_.push_back(std::move(grown));
    return;
  }
  std::size_t i = static_cast<std::size_t>(hash) & index->mask;
  while (index->slots[i].hash.load(std::memory_order_acquire) != 0) {
    i = (i + 1) & index->mask;
  }
  index->slots[i].id.store(id, std::memory_order_release);
  index->slots[i].hash.store(hash, std::memory_order_release);
}

StackId StackTable::Intern(const std::vector<Frame>& frames) {
  const std::uint64_t full = NonZeroHash(FramesHash(frames));

  // Lock-free fast path: the stack is usually already interned.
  {
    const Index* index = index_.load(std::memory_order_acquire);
    const StackId hit = Probe(*index, full, frames);
    if (hit != kInvalidStackId) {
      return hit;
    }
  }

  const StackEntry* created = nullptr;
  StackId result = kInvalidStackId;
  {
    std::lock_guard<SpinLock> guard(lock_);
    // Double-check under the lock (and against the current generation —
    // the fast path may have probed a stale one).
    const StackId hit = Probe(*index_.load(std::memory_order_relaxed), full, frames);
    if (hit != kInvalidStackId) {
      return hit;
    }
    StackEntry entry;
    entry.id = static_cast<StackId>(entries_.size());
    entry.frames = frames;
    entry.full_hash = full;
    entry.depth_hash.resize(static_cast<std::size_t>(max_depth_));
    for (int d = 1; d <= max_depth_; ++d) {
      entry.depth_hash[static_cast<std::size_t>(d - 1)] = SuffixHash(frames, d);
    }
    StackEntry* stored = entries_.Append(std::move(entry)).first;
    for (int d = 1; d <= max_depth_; ++d) {
      const std::size_t di = static_cast<std::size_t>(d - 1);
      by_depth_[di][stored->depth_hash[di]].push_back(stored->id);
    }
    IndexInsertLocked(full, stored->id);
    created = stored;
    result = stored->id;
  }
  if (created != nullptr) {
    for (const auto& observer : observers_) {
      observer(*created);
    }
  }
  return result;
}

std::vector<StackId> StackTable::MatchingAtDepth(StackId id, int depth) const {
  depth = std::clamp(depth, 1, max_depth_);
  const StackEntry& entry = Get(id);
  const std::uint64_t h = entry.depth_hash[static_cast<std::size_t>(depth - 1)];
  std::vector<StackId> candidates;
  {
    std::lock_guard<SpinLock> guard(lock_);
    const auto& index = by_depth_[static_cast<std::size_t>(depth - 1)];
    auto it = index.find(h);
    if (it == index.end()) {
      return {};
    }
    candidates = it->second;  // copy: verify frames outside the lock
  }
  // Verify frames (hash collisions are possible in principle).
  std::vector<StackId> out;
  out.reserve(candidates.size());
  const std::size_t n = std::min(entry.frames.size(), static_cast<std::size_t>(depth));
  for (StackId candidate : candidates) {
    const StackEntry& other = Get(candidate);
    const std::size_t m = std::min(other.frames.size(), static_cast<std::size_t>(depth));
    if (m == n && std::equal(entry.frames.begin(), entry.frames.begin() + static_cast<long>(n),
                             other.frames.begin())) {
      out.push_back(candidate);
    }
  }
  return out;
}

bool StackTable::MatchesAtDepth(StackId a, StackId b, int depth) const {
  if (a == b) {
    return true;
  }
  depth = std::clamp(depth, 1, max_depth_);
  const StackEntry& ea = Get(a);
  const StackEntry& eb = Get(b);
  const std::size_t n = std::min(ea.frames.size(), static_cast<std::size_t>(depth));
  const std::size_t m = std::min(eb.frames.size(), static_cast<std::size_t>(depth));
  if (n != m) {
    return false;
  }
  if (ea.depth_hash[static_cast<std::size_t>(depth - 1)] !=
      eb.depth_hash[static_cast<std::size_t>(depth - 1)]) {
    return false;
  }
  return std::equal(ea.frames.begin(), ea.frames.begin() + static_cast<long>(n),
                    eb.frames.begin());
}

int StackTable::DeepestMatchDepth(StackId a, StackId b) const {
  if (a == b) {
    return max_depth_;
  }
  int deepest = 0;
  for (int d = 1; d <= max_depth_; ++d) {
    if (MatchesAtDepth(a, b, d)) {
      deepest = d;
    } else {
      break;
    }
  }
  return deepest;
}

void StackTable::AddNewStackObserver(NewStackObserver observer) {
  // Observers are registered at engine construction, before concurrent use.
  observers_.push_back(std::move(observer));
}

std::string StackTable::Describe(StackId id) const {
  const StackEntry& entry = Get(id);
  std::string out;
  for (std::size_t i = 0; i < entry.frames.size(); ++i) {
    if (i > 0) {
      out += ';';
    }
    out += FrameName(entry.frames[i]);
  }
  return out;
}

}  // namespace dimmunix
