// Copyright (c) dimmunix-cpp authors. MIT license.
//
// On-disk encoding of a HistoryImage: snapshot v2 (magic "DIMX"), the one
// history format. Pure — bytes in, bytes out, no file descriptors; see
// src/persist/file.h for the I/O and locking around it.
//
// A versioned header with its own CRC, an interned-stack section (each
// distinct call stack stored once), then one CRC-protected record per
// signature referencing stacks by index. Full layout:
// docs/history-format.md.
//
// The decoder is tolerant by default: a record whose CRC fails or that runs
// past the end of the buffer is dropped and counted in
// LoadResult::records_dropped; everything salvageable loads. Strict
// consumers (history_tool validate) reject any drop.

#ifndef DIMMUNIX_PERSIST_FORMAT_H_
#define DIMMUNIX_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/persist/image.h"

namespace dimmunix {
namespace persist {

inline constexpr std::string_view kSnapshotMagic = "DIMX";
inline constexpr std::uint32_t kFormatVersion = 2;

// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum behind every
// header and record. Crc32("123456789") == 0xCBF43926.
std::uint32_t Crc32(const void* data, std::size_t len);

enum class LoadStatus {
  kOk,        // loaded (possibly with dropped records — see records_dropped)
  kNotFound,  // no file: an empty immune system, not an error
  kIoError,   // the file exists but could not be read
  kCorrupt,   // unrecognizable header / unusable stack section: never rewritten
};

struct LoadResult {
  LoadStatus status = LoadStatus::kOk;
  int format_version = 0;           // 2 once a header was recognized
  std::size_t records_loaded = 0;   // records decoded successfully
  std::size_t records_dropped = 0;  // CRC-failed / torn / malformed records
  std::string message;              // human-readable detail for warnings

  // The caller got a usable (possibly empty) image.
  bool ok() const { return status == LoadStatus::kOk || status == LoadStatus::kNotFound; }
  // Nothing was lost: what validate requires.
  bool clean() const { return ok() && records_dropped == 0; }
};

std::string EncodeSnapshotV2(const HistoryImage& image);

// Appends decoded records to `image`. Returns false (status kCorrupt) when
// the header or the stack section is unusable; individual bad records are
// dropped and counted, not fatal.
bool DecodeSnapshotV2(std::string_view bytes, HistoryImage* image, LoadResult* result);

}  // namespace persist
}  // namespace dimmunix

#endif  // DIMMUNIX_PERSIST_FORMAT_H_
