// Copyright (c) dimmunix-cpp authors. MIT license.
//
// History file I/O: the snapshot <history>, its lock file <history>.lock,
// and the operations over them. Every write follows one protocol:
//
//   acquire <history>.lock (fcntl, exclusive, blocking)
//   load <history>; refuse to go on if it is unreadable or corrupt
//   merge; write <history>.tmp.<pid>.<seq>, fsync, rename(2) over <history>
//   release the lock
//
// Readers need no lock (rename is atomic — they see the old file or the new
// one, never a mix) but take it anyway, so a load waits out a writer.
//
// Every function here is crash-safe against SIGKILL at any instruction: the
// worst outcomes are the previous snapshot or a leftover .tmp file (ignored
// by loads, and unlinked by the next write once its writer's pid is gone).

#ifndef DIMMUNIX_PERSIST_FILE_H_
#define DIMMUNIX_PERSIST_FILE_H_

#include <functional>
#include <string>

#include "src/persist/format.h"
#include "src/persist/image.h"
#include "src/persist/lockfile.h"

namespace dimmunix {
namespace persist {

std::string LockPathFor(const std::string& history_path);

// Loads the v2 snapshot at <path>, appending to `image`. A missing file is
// kNotFound and a 0-byte file kOk, both with an untouched image — an empty
// immune system, not an error.
LoadResult LoadHistoryFile(const std::string& path, HistoryImage* image);

// Atomically replaces <path> with the v2 encoding of `image`, whatever the
// file held. False on I/O failure with `error` (if non-null) set.
bool SaveHistoryFile(const std::string& path, const HistoryImage& image,
                     std::string* error = nullptr);

// The one write path over a shared file: under the file lock, load <path>,
// let `update` turn the on-disk image into the one to keep, and atomically
// write it — unless the bytes would not change (`wrote` false). A file
// whose load is not ok() (unreadable, or corrupt: another writer's format,
// a file that is not a history) is never replaced; that returns false with
// `error` set, as does a failed write.
bool UpdateHistoryFile(const std::string& path,
                       const std::function<void(HistoryImage* on_disk)>& update,
                       bool* wrote = nullptr, std::string* error = nullptr);

// The multi-process merge primitive: UpdateHistoryFile merging `image` in
// (kPreferIncoming). Concurrent callers across processes serialize on the
// lock, so nobody's signatures are lost. Returns the merge stats via `stats`
// (if non-null).
bool MergeIntoFile(const std::string& path, const HistoryImage& image,
                   MergeStats* stats = nullptr, std::string* error = nullptr);

// Strict integrity check for history_tool validate: any dropped record,
// torn tail, or unusable section makes the result kCorrupt.
LoadResult ValidateHistoryFile(const std::string& path);

// Removes <path> and <path>.lock.
void RemoveHistoryFiles(const std::string& path);

}  // namespace persist
}  // namespace dimmunix

#endif  // DIMMUNIX_PERSIST_FILE_H_
