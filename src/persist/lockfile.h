// Copyright (c) dimmunix-cpp authors. MIT license.
//
// FileLock — a blocking, exclusive fcntl(2) advisory lock on a sidecar file
// (<history>.lock). This is the cross-process half of the persistence
// protocol: every writer (store compaction, history_tool) takes it around
// load-merge-save, so N instrumented processes sharing one DIMMUNIX_HISTORY
// never lose each other's signatures. The lock dies with
// the process, so a SIGKILLed holder can never wedge the fleet.
//
// Classic POSIX fcntl record locks do not conflict within one process, and
// closing *any* descriptor of a locked file drops all of the process's
// locks on it — both would break two Runtimes sharing one history path in
// one process. FileLock therefore uses open-file-description locks
// (F_OFD_SETLKW) where available: the lock is scoped to this object's fd,
// so FileLocks exclude each other even in-process and a Release() only ever
// releases its own lock. On platforms without OFD locks it degrades to
// F_SETLKW (cross-process exclusion only; HistoryStore's own threads are
// serialized by its mutex regardless).

#ifndef DIMMUNIX_PERSIST_LOCKFILE_H_
#define DIMMUNIX_PERSIST_LOCKFILE_H_

#include <string>

namespace dimmunix {
namespace persist {

class FileLock {
 public:
  explicit FileLock(std::string path);
  ~FileLock();  // releases if held

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  // Opens (creating if needed) and takes the exclusive lock, blocking until
  // granted. Returns false if the lock file cannot be opened — callers
  // degrade to lockless operation rather than losing the save.
  bool Acquire();

  void Release();

  bool held() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  int fd_ = -1;
};

}  // namespace persist
}  // namespace dimmunix

#endif  // DIMMUNIX_PERSIST_LOCKFILE_H_
