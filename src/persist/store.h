// Copyright (c) dimmunix-cpp authors. MIT license.
//
// HistoryStore — the asynchronous, crash-safe, multi-process-aware writer
// behind History persistence.
//
// The paper's promise is that immunity *persists* (§5.4, §8), but writing
// the whole history synchronously from the monitor kept file I/O inside the
// detection loop, and concurrent processes sharing one DIMMUNIX_HISTORY
// simply overwrote each other. The store fixes both:
//
//  * Async: producers (monitor thread, control plane) bump a pending count
//    and return immediately; a background thread writes the history. History
//    I/O is off every other thread entirely.
//
//  * One write path: every write is a compaction (UpdateHistoryFile) —
//    under the fcntl FileLock it loads the file (picking up other processes'
//    signatures), merges them into the live History (whose version counter
//    makes the avoidance engine refresh its caches), and atomically writes
//    the union (tmp, fsync, rename). Each wake of the writer thread runs one
//    compaction however many signatures changed, so a burst costs one write.
//    A SIGKILL at any instruction leaves the old snapshot or the new one.
//
//  * Shared: with `resync_period` set, the same load-merge runs
//    periodically even without local changes, so a `dimctl disable` or a
//    vendor-shipped signature in one process propagates to every process
//    sharing the file — no restart (§8).

#ifndef DIMMUNIX_PERSIST_STORE_H_
#define DIMMUNIX_PERSIST_STORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/recorder.h"
#include "src/persist/file.h"
#include "src/persist/image.h"

namespace dimmunix {

class History;

namespace persist {

struct StoreOptions {
  std::string path;  // the history file; never empty
  // Start() runs a synchronizing compaction (pull in other processes'
  // signatures, guarantee the file exists). False when the runtime was told
  // not to load history at init (Config::load_history_on_init) — the file is
  // then left untouched until an explicit reload/save.
  bool merge_on_start = true;
  // > 0: periodically load-merge the shared file even without local writes,
  // consuming signatures and operator actions from other processes live.
  std::chrono::milliseconds resync_period{0};
};

struct StoreStatsSnapshot {
  std::uint64_t compactions = 0;     // snapshot rewrites
  std::uint64_t foreign_merged = 0;  // signatures learned from the shared file
  std::uint64_t io_errors = 0;       // failed writes, and files refused as unreadable
  // Operator-facing health (dimctl status):
  std::uint64_t queued = 0;              // changes notified, not yet written
  std::uint64_t resyncs = 0;             // load-merge passes over the shared file
  std::int64_t last_resync_age_ms = -1;  // ms since the last resync; -1 = never
};

class HistoryStore {
 public:
  // `history` must outlive the store. `recorder` (optional) is the src/obs
  // flight recorder: compactions emit kStoreCompact spans when tracing is
  // live.
  HistoryStore(StoreOptions options, History* history, obs::Recorder* recorder = nullptr);
  ~HistoryStore();  // Stop()

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  // Starts the writer thread and makes sure the history file exists on disk
  // (an empty v2 snapshot if this is the first run), so operators and tests
  // can watch for the file as soon as the runtime is up.
  void Start();

  // Joins the thread, then runs a final compaction if a change is still
  // pending. Idempotent.
  void Stop();

  // Producer side, any thread, O(1), no I/O: records that a signature was
  // added or changed. The writer thread persists the history asynchronously.
  void NotifySignatureChanged();

  // Synchronous lock-merge-save compaction (control plane, operator ops):
  // on return the file durably contains the live history merged with every
  // other process's signatures. Safe from any thread.
  bool SaveNow();

  // Writes the current in-memory history to `path` (v2), without touching
  // the store's own file. For `dimctl history export` / vendor patches.
  bool ExportTo(const std::string& path);

  // Loads `path` and merges its signatures into the live History (file wins
  // operator knobs, §8 semantics), then persists. Returns the number of new
  // signatures, or -1 on a load failure.
  int MergeFrom(const std::string& path);

  // Invoked (from the calling/writer thread) whenever the store changed the
  // live History — the runtime wires this to the engine's cache refresh.
  void SetOnHistoryMerged(std::function<void()> fn);

  StoreStatsSnapshot stats() const;
  const std::string& path() const { return options_.path; }

 private:
  void Loop();
  // `sync_only` marks startup/resync compactions, which count as resyncs;
  // writes of local changes and explicit saves do not.
  bool Compact(MergePolicy policy, bool sync_only = false);

  const StoreOptions options_;
  History* history_;
  obs::Recorder* recorder_;
  std::function<void()> on_merged_;

  std::atomic<std::uint64_t> pending_{0};  // changes notified since the last write
  std::mutex cv_m_;
  std::condition_variable cv_;
  bool wake_ = false;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;

  std::mutex io_m_;  // serializes this process's compactions

  std::atomic<std::uint64_t> stat_compactions_{0};
  std::atomic<std::uint64_t> stat_foreign_{0};
  std::atomic<std::uint64_t> stat_io_errors_{0};
  std::atomic<std::uint64_t> stat_resyncs_{0};
  std::atomic<std::int64_t> stat_last_resync_ms_{-1};  // steady-clock ms, -1 = never
};

}  // namespace persist
}  // namespace dimmunix

#endif  // DIMMUNIX_PERSIST_STORE_H_
