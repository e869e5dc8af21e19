// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/signature/history.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/persist/file.h"

namespace dimmunix {

History::History(StackTable* table) : table_(table) {}

int History::AddLocked(SignatureKind kind, std::vector<StackId> stacks, int match_depth,
                       bool* added) {
  std::sort(stacks.begin(), stacks.end());
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    if (signatures_[i].stacks == stacks) {
      if (added != nullptr) {
        *added = false;
      }
      return static_cast<int>(i);
    }
  }
  Signature sig;
  sig.kind = kind;
  sig.stacks = std::move(stacks);
  sig.match_depth = match_depth;
  signatures_.push_back(std::move(sig));
  version_.fetch_add(1, std::memory_order_release);
  if (added != nullptr) {
    *added = true;
  }
  return static_cast<int>(signatures_.size() - 1);
}

int History::Add(SignatureKind kind, std::vector<StackId> stacks, int match_depth, bool* added) {
  std::lock_guard<SpinLock> guard(lock_);
  return AddLocked(kind, std::move(stacks), match_depth, added);
}

std::size_t History::size() const {
  std::lock_guard<SpinLock> guard(lock_);
  return signatures_.size();
}

void History::ForEach(const std::function<void(int, const Signature&)>& fn) const {
  std::lock_guard<SpinLock> guard(lock_);
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    fn(static_cast<int>(i), signatures_[i]);
  }
}

Signature History::Get(int index) const {
  std::lock_guard<SpinLock> guard(lock_);
  return signatures_[static_cast<std::size_t>(index)];
}

void History::SetDisabled(int index, bool disabled) {
  std::lock_guard<SpinLock> guard(lock_);
  Signature& sig = signatures_[static_cast<std::size_t>(index)];
  if (sig.disabled != disabled) {
    sig.disabled = disabled;
    ++sig.knob_epoch;
    version_.fetch_add(1, std::memory_order_release);
  }
}

void History::SetMatchDepth(int index, int depth) {
  std::lock_guard<SpinLock> guard(lock_);
  Signature& sig = signatures_[static_cast<std::size_t>(index)];
  if (sig.match_depth != depth) {
    sig.match_depth = depth;
    ++sig.knob_epoch;
    version_.fetch_add(1, std::memory_order_release);
  }
}

void History::RecordAvoidance(int index) {
  std::lock_guard<SpinLock> guard(lock_);
  ++signatures_[static_cast<std::size_t>(index)].avoidance_count;
}

void History::RecordAbort(int index) {
  std::lock_guard<SpinLock> guard(lock_);
  ++signatures_[static_cast<std::size_t>(index)].abort_count;
}

void History::RecordFalsePositive(int index) {
  std::lock_guard<SpinLock> guard(lock_);
  ++signatures_[static_cast<std::size_t>(index)].fp_count;
}

void History::Mutate(int index, const std::function<void(Signature&)>& fn) {
  std::lock_guard<SpinLock> guard(lock_);
  Signature& sig = signatures_[static_cast<std::size_t>(index)];
  const bool was_disabled = sig.disabled;
  const int old_depth = sig.match_depth;
  fn(sig);
  if (sig.disabled != was_disabled || sig.match_depth != old_depth) {
    ++sig.knob_epoch;  // auto-disable / calibration depth moves count too
  }
  version_.fetch_add(1, std::memory_order_release);
}

persist::HistoryImage History::ExportImage() const {
  persist::HistoryImage image;
  std::lock_guard<SpinLock> guard(lock_);
  image.records.reserve(signatures_.size());
  for (const Signature& sig : signatures_) {
    persist::SignatureRecord rec;
    rec.kind = sig.kind == SignatureKind::kStarvation ? 1 : 0;
    rec.disabled = sig.disabled;
    rec.knob_epoch = sig.knob_epoch;
    rec.match_depth = sig.match_depth;
    rec.avoidance_count = sig.avoidance_count;
    rec.abort_count = sig.abort_count;
    rec.fp_count = sig.fp_count;
    rec.stacks.reserve(sig.stacks.size());
    for (StackId id : sig.stacks) {
      rec.stacks.push_back(table_->Get(id).frames);  // Get is lock-free
    }
    rec.Canonicalize();
    image.records.push_back(std::move(rec));
  }
  return image;
}

int History::MergeImage(const persist::HistoryImage& image, persist::MergePolicy policy) {
  int added_count = 0;
  for (const persist::SignatureRecord& rec : image.records) {
    if (rec.stacks.empty()) {
      continue;
    }
    std::vector<StackId> ids;
    ids.reserve(rec.stacks.size());
    for (const std::vector<Frame>& frames : rec.stacks) {
      ids.push_back(table_->Intern(frames));  // outside lock_: Intern has its own
    }
    // A hand-edited or foreign file may claim a depth beyond what the stack
    // table can compare at; cap it so the reported depth is the effective one.
    const int depth = std::min(std::max(1, static_cast<int>(rec.match_depth)),
                               table_->max_depth());
    const SignatureKind kind = rec.kind == 1 ? SignatureKind::kStarvation
                                             : SignatureKind::kDeadlock;
    std::lock_guard<SpinLock> guard(lock_);
    bool added = false;
    const int index = AddLocked(kind, std::move(ids), depth, &added);
    Signature& sig = signatures_[static_cast<std::size_t>(index)];
    if (added) {
      sig.disabled = rec.disabled;
      sig.knob_epoch = rec.knob_epoch;
      sig.avoidance_count = rec.avoidance_count;
      sig.abort_count = rec.abort_count;
      sig.fp_count = rec.fp_count;
      ++added_count;
      continue;
    }
    // Known signature. Counters only grow — max() never rolls back a live
    // value to a stale on-disk one.
    sig.avoidance_count = std::max(sig.avoidance_count, rec.avoidance_count);
    sig.abort_count = std::max(sig.abort_count, rec.abort_count);
    sig.fp_count = std::max(sig.fp_count, rec.fp_count);
    // Knobs: the higher knob_epoch wins outright (the copy that has seen
    // more operator actions); `policy` breaks same-epoch conflicts — §8
    // reload and vendor patches pass kPreferIncoming so a hand-edited file
    // stays authoritative.
    if (rec.knob_epoch > sig.knob_epoch) {
      sig.disabled = rec.disabled;
      sig.match_depth = depth;
      sig.knob_epoch = rec.knob_epoch;
      version_.fetch_add(1, std::memory_order_release);
    } else if (rec.knob_epoch == sig.knob_epoch &&
               policy == persist::MergePolicy::kPreferIncoming &&
               (sig.disabled != rec.disabled || sig.match_depth != depth)) {
      sig.disabled = rec.disabled;
      sig.match_depth = depth;
      version_.fetch_add(1, std::memory_order_release);
    }
  }
  return added_count;
}

bool History::Load(const std::string& path) {
  persist::HistoryImage image;
  const persist::LoadResult result = persist::LoadHistoryFile(path, &image);
  if (result.status == persist::LoadStatus::kIoError) {
    DIMMUNIX_LOG(kError) << "history: cannot read " << path << ": " << result.message;
    return false;
  }
  if (result.status == persist::LoadStatus::kNotFound) {
    return true;  // no history yet — empty immune system
  }
  if (!result.clean()) {
    DIMMUNIX_LOG(kWarn) << "history: " << path << ": " << result.records_dropped
                        << " record(s) dropped (" << result.message << ")";
  }
  const int added = MergeImage(image, persist::MergePolicy::kPreferIncoming);
  DIMMUNIX_LOG(kInfo) << "history: loaded " << added << " signature(s) from " << path
                      << " (format v" << result.format_version << ")";
  return true;
}

bool History::Save(const std::string& path) const {
  // Saves can race: the monitor persists after archiving while an operator
  // disable (control thread) persists too. Serialize them here; the persist
  // layer's file lock + unique tmp names handle concurrent *processes*.
  std::lock_guard<std::mutex> save_guard(save_m_);
  std::string error;
  if (!persist::SaveHistoryFile(path, ExportImage(), &error)) {
    DIMMUNIX_LOG(kError) << "history: " << error;
    return false;
  }
  return true;
}

}  // namespace dimmunix
