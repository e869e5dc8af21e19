// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/persist/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>


namespace dimmunix {
namespace persist {
namespace {

// Distinguishes concurrent savers within one process (two Runtimes sharing a
// history path in tests); the pid distinguishes processes.
std::atomic<std::uint64_t> g_tmp_seq{0};

bool ReadWholeFile(const std::string& path, std::string* out, bool* missing) {
  *missing = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *missing = (errno == ENOENT);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return false;
  }
  *out = buf.str();
  return true;
}

bool WriteAllFd(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// Reads and decodes <path>; `bytes` receives the file as read. The caller
// holds the FileLock.
LoadResult ReadSnapshot(const std::string& path, std::string* bytes, HistoryImage* image) {
  LoadResult result;
  bool missing = false;
  if (!ReadWholeFile(path, bytes, &missing)) {
    result.status = missing ? LoadStatus::kNotFound : LoadStatus::kIoError;
    if (!missing) {
      result.message = "cannot read " + path;
    }
    return result;
  }
  if (bytes->empty()) {
    // A 0-byte file (touched by an operator or a provisioning script) is an
    // empty history; the next write gives it a header.
    result.format_version = static_cast<int>(kFormatVersion);
    return result;
  }
  DecodeSnapshotV2(*bytes, image, &result);
  return result;
}

// Unlinks the <path>.tmp.<pid>.<seq> files of writers that died before
// their rename. Only a pid that kill(2) reports as gone (ESRCH) counts as
// dead: our own tmp files and those of a live pid may still be renamed.
// The caller holds the FileLock, so no dead writer's file can be in use.
void RemoveDeadWritersTmpFiles(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return;
  }
  const pid_t self = ::getpid();
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    char* end = nullptr;
    const long pid = std::strtol(name.c_str() + prefix.size(), &end, 10);
    if (end == name.c_str() + prefix.size() || *end != '.' || pid <= 0 || pid == self) {
      continue;
    }
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      ::unlink((dir + name).c_str());
    }
  }
  ::closedir(d);
}

// Writes `encoded` to a unique tmp file, fsyncs it and renames it over
// <path>. The caller holds the FileLock.
bool WriteSnapshot(const std::string& path, const std::string& encoded, std::string* error) {
  RemoveDeadWritersTmpFiles(path);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(g_tmp_seq.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return SetError(error, "cannot create " + tmp + ": " + std::strerror(errno));
  }
  const bool wrote = WriteAllFd(fd, encoded);
  // fsync before rename: the rename must never land pointing at data the
  // kernel has not flushed, or a power cut yields a torn "atomic" snapshot.
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote || !synced) {
    ::unlink(tmp.c_str());
    return SetError(error, "cannot write " + tmp + ": " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp.c_str());
    return SetError(error, "rename to " + path + " failed: " + reason);
  }
  return true;
}

}  // namespace

std::string LockPathFor(const std::string& history_path) { return history_path + ".lock"; }

LoadResult LoadHistoryFile(const std::string& path, HistoryImage* image) {
  FileLock lock(LockPathFor(path));
  lock.Acquire();  // degraded (lockless) on failure; load still proceeds
  std::string bytes;
  return ReadSnapshot(path, &bytes, image);
}

bool SaveHistoryFile(const std::string& path, const HistoryImage& image, std::string* error) {
  FileLock lock(LockPathFor(path));
  lock.Acquire();
  return WriteSnapshot(path, EncodeSnapshotV2(image), error);
}

bool UpdateHistoryFile(const std::string& path,
                       const std::function<void(HistoryImage* on_disk)>& update, bool* wrote,
                       std::string* error) {
  if (wrote != nullptr) {
    *wrote = false;
  }
  FileLock lock(LockPathFor(path));
  lock.Acquire();
  std::string bytes;
  HistoryImage image;
  const LoadResult load = ReadSnapshot(path, &bytes, &image);
  if (!load.ok()) {
    // It may hold another process's signatures, or not be a history at
    // all: replacing it would destroy what we cannot read.
    return SetError(error, "not replacing " + path + ": " +
                               (load.message.empty() ? "unreadable" : load.message));
  }
  update(&image);
  const std::string encoded = EncodeSnapshotV2(image);
  // A pass that changes nothing (a startup or resync over a current file)
  // stays a pure read: no churn on shared or vendor-managed files.
  if (encoded == bytes) {
    return true;
  }
  if (!WriteSnapshot(path, encoded, error)) {
    return false;
  }
  if (wrote != nullptr) {
    *wrote = true;
  }
  return true;
}

bool MergeIntoFile(const std::string& path, const HistoryImage& image, MergeStats* stats,
                   std::string* error) {
  return UpdateHistoryFile(
      path,
      [&](HistoryImage* on_disk) {
        const MergeStats merged = MergeInto(on_disk, image, MergePolicy::kPreferIncoming);
        if (stats != nullptr) {
          *stats = merged;
        }
      },
      nullptr, error);
}

void RemoveHistoryFiles(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink(LockPathFor(path).c_str());
}

LoadResult ValidateHistoryFile(const std::string& path) {
  HistoryImage image;
  LoadResult result = LoadHistoryFile(path, &image);
  if (result.ok() && result.records_dropped > 0) {
    result.status = LoadStatus::kCorrupt;
    if (result.message.empty()) {
      result.message = "records dropped";
    }
  }
  return result;
}

}  // namespace persist
}  // namespace dimmunix
