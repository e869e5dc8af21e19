// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/persist/store.h"

#include "src/common/logging.h"
#include "src/signature/history.h"

namespace dimmunix {
namespace persist {

HistoryStore::HistoryStore(StoreOptions options, History* history, obs::Recorder* recorder)
    : options_(std::move(options)), history_(history), recorder_(recorder) {}

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
  // Bring disk and memory in sync at startup: pulls in signatures other
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
  // Changes notified while the thread was shutting down get a final
  // durable snapshot.
  if (pending_.exchange(0, std::memory_order_acq_rel) != 0) {
    Compact(MergePolicy::kPreferExisting);
  }
}

void HistoryStore::NotifySignatureChanged() {
  pending_.fetch_add(1, std::memory_order_release);
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
  snap.compactions = stat_compactions_.load(std::memory_order_relaxed);
  snap.foreign_merged = stat_foreign_.load(std::memory_order_relaxed);
  snap.io_errors = stat_io_errors_.load(std::memory_order_relaxed);
  snap.queued = pending_.load(std::memory_order_relaxed);
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
    if (stopping) {
      return;  // Stop() runs the final compaction after the join
    }
    // One compaction however many changes arrived since the last wake.
    if (pending_.exchange(0, std::memory_order_acq_rel) != 0) {
      Compact(MergePolicy::kPreferExisting);
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

bool HistoryStore::Compact(MergePolicy policy, bool sync_only) {
  std::lock_guard<std::mutex> io(io_m_);
  const std::uint64_t compact_begin =
      recorder_ != nullptr && recorder_->tracing() ? obs::NowNs() : 0;
  int added = 0;
  bool wrote = false;
  std::string error;
  const bool ok = UpdateHistoryFile(
      options_.path,
      [&](HistoryImage* on_disk) {
        added = history_->MergeImage(*on_disk, policy);
        *on_disk = history_->ExportImage();
      },
      &wrote, &error);
  if (!ok) {
    // The file stays as it is; the next write retries.
    DIMMUNIX_LOG(kError) << "persist: compaction of " << options_.path << " failed: " << error;
    stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (wrote) {
    stat_compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (added > 0) {
    stat_foreign_.fetch_add(static_cast<std::uint64_t>(added), std::memory_order_relaxed);
    DIMMUNIX_LOG(kInfo) << "persist: merged " << added << " signature(s) from "
                        << options_.path;
  }
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

}  // namespace persist
}  // namespace dimmunix
