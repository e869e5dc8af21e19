// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/persist/format.h"

#include <algorithm>
#include <map>

namespace dimmunix {
namespace persist {
namespace {

// Sanity bound: no single record is ever remotely this large; a length
// beyond it means we are reading garbage, not a record.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

// --- little-endian primitives ----------------------------------------------

void PutU16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

  bool Skip(std::size_t n) {
    if (remaining() < n) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool GetU16(std::uint16_t* v) {
    if (remaining() < 2) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v |= static_cast<std::uint16_t>(static_cast<unsigned char>(bytes_[pos_ + i]) << (8 * i));
    }
    pos_ += 2;
    return true;
  }

  bool GetU8(std::uint8_t* v) {
    if (remaining() < 1) {
      return false;
    }
    *v = static_cast<unsigned char>(bytes_[pos_++]);
    return true;
  }

  bool GetU32(std::uint32_t* v) {
    if (remaining() < 4) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(std::uint64_t* v) {
    if (remaining() < 8) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  std::string_view Slice(std::size_t offset, std::size_t len) const {
    return bytes_.substr(offset, len);
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Record payload field block: everything except the stack references.
void PutRecordFields(std::string* out, const SignatureRecord& rec) {
  out->push_back(static_cast<char>(rec.kind));
  out->push_back(static_cast<char>(rec.disabled ? 1 : 0));
  PutU16(out, rec.knob_epoch);
  PutU32(out, static_cast<std::uint32_t>(rec.match_depth));
  PutU64(out, rec.avoidance_count);
  PutU64(out, rec.abort_count);
  PutU64(out, rec.fp_count);
}

bool GetRecordFields(Reader* in, SignatureRecord* rec) {
  std::uint8_t kind = 0;
  std::uint8_t disabled = 0;
  std::uint32_t depth = 0;
  if (!in->GetU8(&kind) || !in->GetU8(&disabled) || !in->GetU16(&rec->knob_epoch) ||
      !in->GetU32(&depth) || !in->GetU64(&rec->avoidance_count) ||
      !in->GetU64(&rec->abort_count) || !in->GetU64(&rec->fp_count)) {
    return false;
  }
  rec->kind = kind;
  rec->disabled = disabled != 0;
  rec->match_depth = static_cast<std::int32_t>(depth);
  if (rec->match_depth < 1) {
    rec->match_depth = 1;
  }
  return true;
}

void NoteDropped(LoadResult* result, std::size_t count, const char* why) {
  result->records_dropped += count;
  if (!result->message.empty()) {
    result->message += "; ";
  }
  result->message += why;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len) {
  // Table-free bitwise CRC-32 (reflected 0xEDB88320). Records are small and
  // persistence is off the hot path; simplicity beats a 1 KiB table.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

// --- Snapshot v2 -----------------------------------------------------------
//
//   [0,4)   magic "DIMX"
//   [4,8)   u32 version (2)
//   [8,12)  u32 stack_count
//   [12,16) u32 signature_count
//   [16,20) u32 crc of bytes [0,16)
//   stack section, stack_count times:
//     u32 frame_count, frame_count * u64 frames, u32 crc of the preceding
//     payload (frame_count + frames)
//   record section, signature_count times:
//     u32 payload_len, u32 payload_crc, payload:
//       fields (see PutRecordFields), u32 stack_ref_count,
//       stack_ref_count * u32 indices into the stack section

std::string EncodeSnapshotV2(const HistoryImage& image) {
  // Intern stacks in first-use order over the (canonicalized) records so the
  // encoding is a pure function of the image.
  std::map<std::vector<Frame>, std::uint32_t> stack_index;
  std::vector<const std::vector<Frame>*> stack_order;
  std::vector<SignatureRecord> records = image.records;
  for (SignatureRecord& rec : records) {
    rec.Canonicalize();
  }
  for (const SignatureRecord& rec : records) {
    for (const std::vector<Frame>& stack : rec.stacks) {
      if (stack_index.emplace(stack, static_cast<std::uint32_t>(stack_index.size())).second) {
        stack_order.push_back(&stack_index.find(stack)->first);
      }
    }
  }

  std::string out;
  out.append(kSnapshotMagic);
  PutU32(&out, kFormatVersion);
  PutU32(&out, static_cast<std::uint32_t>(stack_order.size()));
  PutU32(&out, static_cast<std::uint32_t>(records.size()));
  PutU32(&out, Crc32(out.data(), out.size()));

  for (const std::vector<Frame>* stack : stack_order) {
    std::string payload;
    PutU32(&payload, static_cast<std::uint32_t>(stack->size()));
    for (Frame frame : *stack) {
      PutU64(&payload, frame);
    }
    out += payload;
    PutU32(&out, Crc32(payload.data(), payload.size()));
  }

  for (const SignatureRecord& rec : records) {
    std::string payload;
    PutRecordFields(&payload, rec);
    PutU32(&payload, static_cast<std::uint32_t>(rec.stacks.size()));
    for (const std::vector<Frame>& stack : rec.stacks) {
      PutU32(&payload, stack_index.at(stack));
    }
    PutU32(&out, static_cast<std::uint32_t>(payload.size()));
    PutU32(&out, Crc32(payload.data(), payload.size()));
    out += payload;
  }
  return out;
}

bool DecodeSnapshotV2(std::string_view bytes, HistoryImage* image, LoadResult* result) {
  Reader in(bytes);
  result->format_version = 2;
  if (bytes.size() < 20 || bytes.substr(0, 4) != kSnapshotMagic) {
    result->status = LoadStatus::kCorrupt;
    result->message = "bad magic";
    return false;
  }
  in.Skip(4);
  std::uint32_t version = 0;
  std::uint32_t stack_count = 0;
  std::uint32_t sig_count = 0;
  std::uint32_t header_crc = 0;
  in.GetU32(&version);
  in.GetU32(&stack_count);
  in.GetU32(&sig_count);
  in.GetU32(&header_crc);
  if (Crc32(bytes.data(), 16) != header_crc) {
    result->status = LoadStatus::kCorrupt;
    result->message = "header CRC mismatch";
    return false;
  }
  if (version != kFormatVersion) {
    result->status = LoadStatus::kCorrupt;
    result->message = "unsupported version " + std::to_string(version);
    return false;
  }

  // Stack section: any damage here poisons every record that references it,
  // so it is all-or-nothing. Counts come from the (CRC-consistent but
  // possibly crafted) file: never reserve more than the remaining bytes
  // could possibly encode, or a hostile count turns into a bad_alloc that
  // terminates the host process.
  std::vector<std::vector<Frame>> stacks;
  stacks.reserve(std::min<std::size_t>(stack_count, in.remaining() / 8));
  for (std::uint32_t s = 0; s < stack_count; ++s) {
    const std::size_t payload_start = in.pos();
    std::uint32_t frame_count = 0;
    if (!in.GetU32(&frame_count) || frame_count > kMaxRecordBytes / 8 ||
        in.remaining() < frame_count * 8ull + 4) {
      result->status = LoadStatus::kCorrupt;
      result->message = "truncated stack section";
      return false;
    }
    std::vector<Frame> frames(frame_count);
    for (std::uint32_t f = 0; f < frame_count; ++f) {
      in.GetU64(&frames[f]);
    }
    const std::string_view payload = in.Slice(payload_start, in.pos() - payload_start);
    std::uint32_t crc = 0;
    in.GetU32(&crc);
    if (Crc32(payload.data(), payload.size()) != crc) {
      result->status = LoadStatus::kCorrupt;
      result->message = "stack section CRC mismatch";
      return false;
    }
    stacks.push_back(std::move(frames));
  }

  // Record section: per-record CRC means damage is local — drop the bad
  // record, keep the rest.
  for (std::uint32_t r = 0; r < sig_count; ++r) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!in.GetU32(&len) || !in.GetU32(&crc) || len > kMaxRecordBytes ||
        in.remaining() < len) {
      NoteDropped(result, sig_count - r, "truncated record section");
      return true;
    }
    const std::string_view payload = in.Slice(in.pos(), len);
    in.Skip(len);
    if (Crc32(payload.data(), payload.size()) != crc) {
      NoteDropped(result, 1, "record CRC mismatch");
      continue;
    }
    Reader rp(payload);
    SignatureRecord rec;
    std::uint32_t ref_count = 0;
    if (!GetRecordFields(&rp, &rec) || !rp.GetU32(&ref_count)) {
      NoteDropped(result, 1, "malformed record");
      continue;
    }
    bool refs_ok = true;
    rec.stacks.reserve(std::min<std::size_t>(ref_count, rp.remaining() / 4));
    for (std::uint32_t i = 0; i < ref_count; ++i) {
      std::uint32_t ref = 0;
      if (!rp.GetU32(&ref) || ref >= stacks.size()) {
        refs_ok = false;
        break;
      }
      rec.stacks.push_back(stacks[ref]);
    }
    if (!refs_ok || rec.stacks.empty()) {
      NoteDropped(result, 1, "record references missing stack");
      continue;
    }
    // The encoder never pads a payload: trailing bytes mean a forged ref
    // count under a matching CRC, and the record is not one it wrote.
    if (rp.remaining() != 0) {
      NoteDropped(result, 1, "trailing bytes in record");
      continue;
    }
    rec.Canonicalize();
    image->records.push_back(std::move(rec));
    ++result->records_loaded;
  }
  // Bytes past the last record: the header under-counts its records (a
  // forged count with a recomputed header CRC). What they held is lost.
  if (in.remaining() != 0) {
    NoteDropped(result, 1, "bytes after the record section");
  }
  return true;
}

}  // namespace persist
}  // namespace dimmunix
