// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/persist/store.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace persist {

HistoryStore::HistoryStore(StoreOptions options, History* history, StackTable* stacks,
                           obs::Recorder* recorder)
    : options_(std::move(options)), history_(history), stacks_(stacks), recorder_(recorder) {}

HistoryStore::~HistoryStore() { Stop(); }

void HistoryStore::Start() {
  {
    std::lock_guard<std::mutex> guard(cv_m_);
    if (started_) {
      return;
    }
    started_ = true;
    stop_ = false;
  }
  // Bring disk and memory in sync at startup: folds any journal left by a
  // crashed predecessor into a fresh snapshot, pulls in signatures other
  // processes wrote since our History::Load, and guarantees the file exists
  // from the instant the runtime is up.
  if (options_.merge_on_start) {
    Compact(MergePolicy::kPreferIncoming, /*sync_only=*/true);
  }
  thread_ = std::thread([this] { Loop(); });
}

void HistoryStore::Stop() {
  {
    std::lock_guard<std::mutex> guard(cv_m_);
    if (!started_) {
      return;
    }
    stop_ = true;
    wake_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> guard(cv_m_);
    started_ = false;
    stop_ = false;
  }
  // Stragglers enqueued while the thread was shutting down (the join makes
  // this thread the queue's consumer now), then a final durable snapshot.
  DrainQueue();
  bool need_final = false;
  {
    std::lock_guard<std::mutex> io(io_m_);
    need_final = dirty_;
  }
  if (need_final) {
    Compact(MergePolicy::kPreferExisting);
  }
}

void HistoryStore::NotifySignatureChanged(int index) {
  queue_.Push(index);
  stat_queued_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(cv_m_);
    wake_ = true;
  }
  cv_.notify_one();
}

bool HistoryStore::SaveNow() { return Compact(MergePolicy::kPreferExisting); }

bool HistoryStore::ExportTo(const std::string& path) {
  const HistoryImage image = history_->ExportImage();
  std::string error;
  if (!SaveHistoryFile(path, image, &error)) {
    DIMMUNIX_LOG(kError) << "persist: export to " << path << " failed: " << error;
    stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

int HistoryStore::MergeFrom(const std::string& path) {
  HistoryImage image;
  const LoadResult load = LoadHistoryFile(path, &image);
  // Unlike startup loads, an explicit merge of a missing file is an error.
  if (!load.ok() || load.status == LoadStatus::kNotFound) {
    DIMMUNIX_LOG(kWarn) << "persist: cannot merge from " << path << ": " << load.message;
    return -1;
  }
  const int added = history_->MergeImage(image, MergePolicy::kPreferIncoming);
  if (added > 0) {
    stat_foreign_.fetch_add(static_cast<std::uint64_t>(added), std::memory_order_relaxed);
  }
  if (on_merged_) {
    on_merged_();
  }
  SaveNow();
  return added;
}

void HistoryStore::SetOnHistoryMerged(std::function<void()> fn) { on_merged_ = std::move(fn); }

StoreStatsSnapshot HistoryStore::stats() const {
  StoreStatsSnapshot snap;
  snap.appends = stat_appends_.load(std::memory_order_relaxed);
  snap.compactions = stat_compactions_.load(std::memory_order_relaxed);
  snap.foreign_merged = stat_foreign_.load(std::memory_order_relaxed);
  snap.io_errors = stat_io_errors_.load(std::memory_order_relaxed);
  snap.queued = stat_queued_.load(std::memory_order_relaxed);
  snap.journal_since_compact = stat_since_compact_.load(std::memory_order_relaxed);
  snap.resyncs = stat_resyncs_.load(std::memory_order_relaxed);
  const std::int64_t last = stat_last_resync_ms_.load(std::memory_order_relaxed);
  if (last >= 0) {
    const std::int64_t now = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count();
    snap.last_resync_age_ms = now >= last ? now - last : 0;
  }
  return snap;
}

void HistoryStore::Loop() {
  if (recorder_ != nullptr) {
    recorder_->NameThisThread("dimmunix-store");
  }
  auto last_resync = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(cv_m_);
  for (;;) {
    if (options_.resync_period.count() > 0) {
      cv_.wait_for(lk, options_.resync_period, [this] { return wake_ || stop_; });
    } else {
      cv_.wait(lk, [this] { return wake_ || stop_; });
    }
    const bool stopping = stop_;
    wake_ = false;
    lk.unlock();
    DrainQueue();
    if (stopping) {
      return;  // Stop() runs the final compaction after the join
    }
    if (options_.resync_period.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_resync >= options_.resync_period) {
        // File wins operator knobs here: this is how a `dimctl disable` or a
        // vendor-shipped signature in one process reaches all the others.
        Compact(MergePolicy::kPreferIncoming, /*sync_only=*/true);
        last_resync = now;
      }
    }
    lk.lock();
  }
}

void HistoryStore::DrainQueue() {
  while (auto op = queue_.Pop()) {
    stat_queued_.fetch_sub(1, std::memory_order_relaxed);
    AppendDelta(*op);
  }
  bool threshold_reached = false;
  {
    std::lock_guard<std::mutex> io(io_m_);
    // threshold <= 0 means "compact on every delta" (src/common/config.h).
    threshold_reached = appends_since_compact_ >= std::max(1, options_.journal_threshold);
  }
  if (threshold_reached) {
    Compact(MergePolicy::kPreferExisting);
  }
}

void HistoryStore::AppendDelta(int index) {
  if (index < 0 || static_cast<std::size_t>(index) >= history_->size()) {
    return;
  }
  const SignatureRecord record = RecordFor(history_->Get(index));
  std::lock_guard<std::mutex> io(io_m_);
  const std::uint64_t flush_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  if (AppendJournalRecord(options_.path, record, options_.fsync_appends)) {
    if (flush_begin != 0) {
      const std::uint64_t end_ns = obs::NowNs();
      recorder_->Span(obs::TraceEventType::kStoreFlush, end_ns, end_ns - flush_begin,
                      obs::SaturateAux(index));
    }
    stat_appends_.fetch_add(1, std::memory_order_relaxed);
    ++appends_since_compact_;
    stat_since_compact_.store(static_cast<std::uint64_t>(appends_since_compact_),
                              std::memory_order_relaxed);
    dirty_ = true;
  } else {
    stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool HistoryStore::Compact(MergePolicy policy, bool sync_only) {
  std::lock_guard<std::mutex> io(io_m_);
  const std::uint64_t compact_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  FileLock lock(LockPathFor(options_.path));
  lock.Acquire();

  HistoryImage on_disk;
  const LoadResult load = LoadHistoryFile(
      options_.path, &on_disk, LoadOptions{/*with_journal=*/true, /*take_lock=*/false});
  if (load.status == LoadStatus::kIoError) {
    // Never blind-overwrite a file we could not read: it may hold other
    // processes' signatures. Keep journaling; retry at the next compaction.
    DIMMUNIX_LOG(kError) << "persist: compaction cannot read " << options_.path << ": "
                         << load.message;
    stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const int added = history_->MergeImage(on_disk, policy);
  if (added > 0) {
    stat_foreign_.fetch_add(static_cast<std::uint64_t>(added), std::memory_order_relaxed);
    DIMMUNIX_LOG(kInfo) << "persist: merged " << added << " signature(s) from "
                        << options_.path;
  }

  const HistoryImage image = history_->ExportImage();
  // Rewrite only when the durable state would actually change: a startup or
  // resync compaction over an already-current snapshot (and no journal to
  // fold) stays a pure read — no churn on shared or vendor-managed files.
  const bool journal_pending =
      ::access(JournalPathFor(options_.path).c_str(), F_OK) == 0;
  bool unchanged = false;
  if (!journal_pending) {
    std::ifstream current(options_.path, std::ios::binary);
    if (current) {
      std::ostringstream buf;
      buf << current.rdbuf();
      unchanged = !current.bad() && buf.str() == EncodeSnapshotV2(image);
    }
  }
  if (!unchanged) {
    std::string error;
    if (!SaveHistoryFile(options_.path, image, &error, SaveOptions{/*take_lock=*/false})) {
      DIMMUNIX_LOG(kError) << "persist: compaction of " << options_.path << " failed: "
                           << error;
      stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    stat_compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  appends_since_compact_ = 0;
  stat_since_compact_.store(0, std::memory_order_relaxed);
  dirty_ = false;
  if (sync_only) {
    // A synchronizing pass consumed the shared file's current state: that
    // is the "resync" operators watch for in `dimctl status`.
    stat_resyncs_.fetch_add(1, std::memory_order_relaxed);
    stat_last_resync_ms_.store(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
  if (added > 0 && on_merged_) {
    on_merged_();
  }
  if (compact_begin != 0) {
    const std::uint64_t end_ns = obs::NowNs();
    recorder_->Span(obs::TraceEventType::kStoreCompact, end_ns, end_ns - compact_begin,
                    /*aux=*/0, /*mode=*/0,
                    added > 0 ? static_cast<std::uint64_t>(added) : 0);
  }
  return true;
}

SignatureRecord HistoryStore::RecordFor(const Signature& sig) const {
  SignatureRecord rec;
  rec.kind = sig.kind == SignatureKind::kStarvation ? 1 : 0;
  rec.disabled = sig.disabled;
  rec.knob_epoch = sig.knob_epoch;
  rec.match_depth = sig.match_depth;
  rec.avoidance_count = sig.avoidance_count;
  rec.abort_count = sig.abort_count;
  rec.fp_count = sig.fp_count;
  rec.stacks.reserve(sig.stacks.size());
  for (StackId id : sig.stacks) {
    rec.stacks.push_back(stacks_->Get(id).frames);
  }
  rec.Canonicalize();
  return rec;
}

}  // namespace persist
}  // namespace dimmunix
