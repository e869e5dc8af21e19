// Copyright (c) dimmunix-cpp authors. MIT license.
//
// history_tool — inspect, validate, and edit Dimmunix history files (§8:
// vendors can ship signatures as "patches"; users can disable signatures
// that cause functionality loss).
//
//   $ ./history_tool show app.dimmunix
//   $ ./history_tool validate app.dimmunix       # strict integrity check
//   $ ./history_tool disable app.dimmunix 2
//   $ ./history_tool enable app.dimmunix 2
//   $ ./history_tool merge dst.dimmunix src.dimmunix   # vendor-shipped sigs
//   $ ./history_tool diff a.dimmunix b.dimmunix        # fleet convergence check
//
// Exit codes (distinct on purpose, so scripts can react):
//   0  success (warnings about salvaged records go to stderr)
//   1  file missing or unreadable / write failure
//   2  usage error
//   3  corrupt or truncated file (validate refuses it)
//   4  signature index out of range
//
// `diff` follows the diff(1) convention instead: 0 = identical signature
// sets (same hashes, same knob epochs/flags/depths), 1 = the files differ,
// 2 = usage, 3 = either input missing/unreadable/corrupt. CI's fleet-smoke
// lane polls it to decide when two daemons have converged.

#include <cstdio>
#include <cstring>

#include "src/persist/file.h"
#include "src/signature/history.h"
#include "src/stack/stack_table.h"

namespace {

enum ExitCode {
  kOk = 0,
  kIoError = 1,
  kUsage = 2,
  kCorrupt = 3,
  kBadIndex = 4,
};

int Usage() {
  std::fprintf(stderr,
               "usage: history_tool show <file>\n"
               "       history_tool validate <file>\n"
               "       history_tool disable <file> <index>\n"
               "       history_tool enable <file> <index>\n"
               "       history_tool merge <dst> <src>\n"
               "       history_tool diff <a> <b>\n");
  return kUsage;
}

// diff: loads strictly (any damage is exit 3 — comparing a salvaged view
// against a healthy file would report phantom differences).
int LoadImageStrict(const char* path, dimmunix::persist::HistoryImage* image) {
  const dimmunix::persist::LoadResult result = dimmunix::persist::LoadHistoryFile(path, image);
  if (result.status != dimmunix::persist::LoadStatus::kOk || result.records_dropped > 0) {
    std::fprintf(stderr, "%s: %s\n", path,
                 result.message.empty() ? "missing or damaged" : result.message.c_str());
    return kCorrupt;
  }
  return kOk;
}

// Loads `path` into `history`, distinguishing missing/unreadable/salvaged.
// Returns kOk on success (warnings printed), an ExitCode otherwise.
int LoadInto(const char* path, dimmunix::History* history,
             dimmunix::persist::LoadResult* out_result) {
  dimmunix::persist::HistoryImage image;
  const dimmunix::persist::LoadResult result = dimmunix::persist::LoadHistoryFile(path, &image);
  if (out_result != nullptr) {
    *out_result = result;
  }
  if (result.status == dimmunix::persist::LoadStatus::kNotFound) {
    std::fprintf(stderr, "%s: no such history file\n", path);
    return kIoError;
  }
  if (result.status == dimmunix::persist::LoadStatus::kIoError) {
    std::fprintf(stderr, "%s: cannot read: %s\n", path, result.message.c_str());
    return kIoError;
  }
  if (result.status == dimmunix::persist::LoadStatus::kCorrupt) {
    std::fprintf(stderr, "%s: corrupt: %s\n", path, result.message.c_str());
    return kCorrupt;
  }
  if (result.records_dropped > 0) {
    std::fprintf(stderr, "warning: %s: %zu record(s) dropped (%s)\n", path,
                 result.records_dropped, result.message.c_str());
  }
  history->MergeImage(image, dimmunix::persist::MergePolicy::kPreferIncoming);
  return kOk;
}

int SaveFrom(const dimmunix::History& history, const char* path) {
  if (!history.Save(path)) {
    std::fprintf(stderr, "%s: cannot write\n", path);
    return kIoError;
  }
  return kOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const char* command = argv[1];
  const char* path = argv[2];
  dimmunix::StackTable stacks(16);
  dimmunix::History history(&stacks);

  if (std::strcmp(command, "validate") == 0) {
    const dimmunix::persist::LoadResult result = dimmunix::persist::ValidateHistoryFile(path);
    switch (result.status) {
      case dimmunix::persist::LoadStatus::kNotFound:
        std::fprintf(stderr, "%s: no such history file\n", path);
        return kIoError;
      case dimmunix::persist::LoadStatus::kIoError:
        std::fprintf(stderr, "%s: cannot read: %s\n", path, result.message.c_str());
        return kIoError;
      case dimmunix::persist::LoadStatus::kCorrupt:
        std::fprintf(stderr, "%s: INVALID: %s (%zu record(s) lost)\n", path,
                     result.message.c_str(), result.records_dropped);
        return kCorrupt;
      case dimmunix::persist::LoadStatus::kOk:
        break;
    }
    std::printf("%s: valid (format v%d, %zu signature(s))\n", path, result.format_version,
                result.records_loaded);
    return kOk;
  }

  if (std::strcmp(command, "show") == 0) {
    dimmunix::persist::LoadResult result;
    const int rc = LoadInto(path, &history, &result);
    if (rc == kCorrupt) {
      return rc;  // nothing salvageable to show
    }
    if (rc != kOk) {
      return rc;
    }
    std::printf("%zu signature(s) in %s (format v%d)\n", history.size(), path,
                result.format_version);
    history.ForEach([&](int index, const dimmunix::Signature& sig) {
      std::printf("[%d] %s depth=%d avoided=%llu aborts=%llu fp=%llu%s\n", index,
                  sig.kind == dimmunix::SignatureKind::kStarvation ? "starvation" : "deadlock",
                  sig.match_depth, static_cast<unsigned long long>(sig.avoidance_count),
                  static_cast<unsigned long long>(sig.abort_count),
                  static_cast<unsigned long long>(sig.fp_count),
                  sig.disabled ? " DISABLED" : "");
      for (dimmunix::StackId id : sig.stacks) {
        std::printf("      %s\n", stacks.Describe(id).c_str());
      }
    });
    return kOk;
  }

  if (std::strcmp(command, "disable") == 0 || std::strcmp(command, "enable") == 0) {
    if (argc < 4) {
      return Usage();
    }
    dimmunix::persist::LoadResult result;
    const int rc = LoadInto(path, &history, &result);
    if (rc != kOk) {
      return rc;
    }
    if (result.records_dropped > 0) {
      // Same rule as merge: rewriting a damaged file would make the
      // salvage loss permanent.
      std::fprintf(stderr, "%s: refusing to rewrite a damaged file (run validate)\n", path);
      return kCorrupt;
    }
    const int index = std::atoi(argv[3]);
    if (index < 0 || static_cast<std::size_t>(index) >= history.size()) {
      std::fprintf(stderr, "no signature %d\n", index);
      return kBadIndex;
    }
    history.SetDisabled(index, std::strcmp(command, "disable") == 0);
    return SaveFrom(history, path);
  }

  if (std::strcmp(command, "diff") == 0) {
    if (argc < 4) {
      return Usage();
    }
    dimmunix::persist::HistoryImage a;
    dimmunix::persist::HistoryImage b;
    if (LoadImageStrict(path, &a) != kOk || LoadImageStrict(argv[3], &b) != kOk) {
      return kCorrupt;
    }
    const dimmunix::persist::ImageDiff diff = dimmunix::persist::DiffImages(a, b);
    for (const std::uint64_t hash : diff.only_in_a) {
      std::printf("only-in-a %016llx\n", static_cast<unsigned long long>(hash));
    }
    for (const std::uint64_t hash : diff.only_in_b) {
      std::printf("only-in-b %016llx\n", static_cast<unsigned long long>(hash));
    }
    for (const dimmunix::persist::ImageDiff::KnobDiff& knob : diff.knob_differs) {
      std::printf("knobs-differ %016llx epoch_a=%u epoch_b=%u\n",
                  static_cast<unsigned long long>(knob.hash), knob.epoch_a, knob.epoch_b);
    }
    if (diff.identical()) {
      std::printf("identical (%zu signature(s))\n", a.records.size());
      return kOk;
    }
    return 1;  // "files differ", diff(1) convention
  }

  if (std::strcmp(command, "merge") == 0) {
    if (argc < 4) {
      return Usage();
    }
    // The destination may not exist yet (merging a vendor patch into a fresh
    // deployment); the source must. A *damaged* destination is refused: the
    // merge rewrites it, which would make whatever was lost permanent.
    dimmunix::persist::HistoryImage dst_image;
    const dimmunix::persist::LoadResult dst_result =
        dimmunix::persist::LoadHistoryFile(path, &dst_image);
    if (dst_result.status == dimmunix::persist::LoadStatus::kIoError) {
      std::fprintf(stderr, "%s: cannot read: %s\n", path, dst_result.message.c_str());
      return kIoError;
    }
    if (dst_result.status == dimmunix::persist::LoadStatus::kCorrupt ||
        dst_result.records_dropped > 0) {
      std::fprintf(stderr, "%s: refusing to merge into a damaged file (run validate)\n",
                   path);
      return kCorrupt;
    }
    history.MergeImage(dst_image, dimmunix::persist::MergePolicy::kPreferIncoming);
    const std::size_t before = history.size();
    const int src_rc = LoadInto(argv[3], &history, nullptr);
    if (src_rc != kOk) {
      return src_rc;
    }
    std::printf("merged %zu new signature(s)\n", history.size() - before);
    return SaveFrom(history, path);
  }

  return Usage();
}
