// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Unit tests for the pure encoding layer: CRC-32, snapshot v2
// encode/decode, the corruption taxonomy (bit flips are dropped per record,
// truncation drops the tail, header damage is fatal), and a seeded mutation
// sweep over the decoder.

#include "src/persist/format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>

namespace dimmunix {
namespace persist {
namespace {

SignatureRecord MakeRecord(std::uint64_t seed, std::size_t stacks = 2,
                           std::size_t frames = 3) {
  SignatureRecord rec;
  rec.kind = seed % 2 == 0 ? 0 : 1;
  rec.disabled = (seed % 3) == 0;
  rec.match_depth = 1 + static_cast<std::int32_t>(seed % 8);
  rec.avoidance_count = seed * 17;
  rec.abort_count = seed % 5;
  rec.fp_count = seed % 7;
  for (std::size_t s = 0; s < stacks; ++s) {
    std::vector<Frame> frame_vec;
    for (std::size_t f = 0; f < frames; ++f) {
      frame_vec.push_back(seed * 1000 + s * 100 + f + 1);
    }
    rec.stacks.push_back(std::move(frame_vec));
  }
  rec.Canonicalize();
  return rec;
}

bool SameRecord(const SignatureRecord& a, const SignatureRecord& b) {
  return a.kind == b.kind && a.disabled == b.disabled && a.match_depth == b.match_depth &&
         a.avoidance_count == b.avoidance_count && a.abort_count == b.abort_count &&
         a.fp_count == b.fp_count && a.stacks == b.stacks;
}

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SnapshotV2Test, EncodeDecodeRoundTrip) {
  HistoryImage image;
  for (std::uint64_t i = 0; i < 5; ++i) {
    image.records.push_back(MakeRecord(i));
  }
  const std::string bytes = EncodeSnapshotV2(image);
  ASSERT_EQ(bytes.substr(0, 4), kSnapshotMagic);

  HistoryImage decoded;
  LoadResult result;
  ASSERT_TRUE(DecodeSnapshotV2(bytes, &decoded, &result));
  EXPECT_EQ(result.records_loaded, 5u);
  EXPECT_EQ(result.records_dropped, 0u);
  ASSERT_EQ(decoded.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(SameRecord(decoded.records[i], image.records[i])) << "record " << i;
  }
}

TEST(SnapshotV2Test, EncodingIsDeterministic) {
  HistoryImage image;
  for (std::uint64_t i = 0; i < 4; ++i) {
    image.records.push_back(MakeRecord(i, /*stacks=*/3));
  }
  // Shared stacks across records must intern to one copy.
  image.records[3].stacks = image.records[0].stacks;
  const std::string a = EncodeSnapshotV2(image);
  const std::string b = EncodeSnapshotV2(image);
  EXPECT_EQ(a, b);

  // decode -> re-encode is byte-identical (the save->load->save property).
  HistoryImage decoded;
  LoadResult result;
  ASSERT_TRUE(DecodeSnapshotV2(a, &decoded, &result));
  EXPECT_EQ(EncodeSnapshotV2(decoded), a);
}

TEST(SnapshotV2Test, BitFlipInRecordDropsOnlyThatRecord) {
  HistoryImage image;
  for (std::uint64_t i = 0; i < 4; ++i) {
    image.records.push_back(MakeRecord(i));
  }
  std::string bytes = EncodeSnapshotV2(image);
  // Flip a bit in the *last* record's payload (well past header + stacks).
  bytes[bytes.size() - 3] ^= 0x40;
  HistoryImage decoded;
  LoadResult result;
  ASSERT_TRUE(DecodeSnapshotV2(bytes, &decoded, &result));
  EXPECT_EQ(result.records_dropped, 1u);
  EXPECT_EQ(result.records_loaded, 3u);
}

TEST(SnapshotV2Test, HeaderDamageIsFatal) {
  HistoryImage image;
  image.records.push_back(MakeRecord(1));
  std::string bytes = EncodeSnapshotV2(image);
  bytes[9] ^= 0x01;  // inside the counts, protected by the header CRC
  HistoryImage decoded;
  LoadResult result;
  EXPECT_FALSE(DecodeSnapshotV2(bytes, &decoded, &result));
  EXPECT_EQ(result.status, LoadStatus::kCorrupt);
  EXPECT_TRUE(decoded.records.empty());
}

TEST(SnapshotV2Test, TruncationDropsTailRecords) {
  HistoryImage image;
  for (std::uint64_t i = 0; i < 6; ++i) {
    image.records.push_back(MakeRecord(i));
  }
  const std::string bytes = EncodeSnapshotV2(image);
  const std::string cut = bytes.substr(0, bytes.size() - 10);
  HistoryImage decoded;
  LoadResult result;
  ASSERT_TRUE(DecodeSnapshotV2(cut, &decoded, &result));
  EXPECT_GT(result.records_dropped, 0u);
  EXPECT_EQ(result.records_loaded + result.records_dropped, 6u);
  EXPECT_EQ(decoded.records.size(), result.records_loaded);
}

// --- Seeded mutation sweep over DecodeSnapshotV2 ----------------------------
//
// The snapshot is the one history decoder, and it reads files other
// processes (or other people) wrote. Every mutant below is decoded from an
// exactly-sized heap block, so the ASan/UBSan lane flags any read past the
// buffer. Each decode must return only records of the original image, and a
// decode that returns fewer of them must report the loss (kCorrupt, or
// records_dropped > 0).

constexpr std::uint32_t kSweepSeeds[] = {1, 7, 42, 1009};
constexpr int kRecordSectionFlips = 256;  // seeded flips past the stack section
constexpr std::size_t kRecordFixedBytes = 36;  // payload fields + ref count

HistoryImage SeededImage(std::uint32_t seed) {
  std::mt19937 rng(seed);
  HistoryImage image;
  const std::uint64_t count = 3 + rng() % 4;
  for (std::uint64_t r = 0; r < count; ++r) {
    SignatureRecord rec = MakeRecord(seed * 100 + r, 1 + rng() % 3, 1 + rng() % 4);
    rec.knob_epoch = static_cast<std::uint16_t>(rng() % 5);
    image.records.push_back(std::move(rec));
  }
  // One stack shared by two records, so the stack section interns.
  image.records[1].stacks.push_back(image.records[0].stacks[0]);
  image.records[1].Canonicalize();
  return image;
}

bool IsOriginal(const SignatureRecord& rec, const HistoryImage& original) {
  for (const SignatureRecord& o : original.records) {
    if (SameRecord(rec, o) && rec.knob_epoch == o.knob_epoch) {
      return true;
    }
  }
  return false;
}

// Offset of the record section: everything after it is records, each
// 8 bytes of length + CRC and a payload of fixed fields plus 4 per ref.
std::size_t RecordSectionOffset(const HistoryImage& image, std::size_t encoded_size) {
  std::size_t records = 0;
  for (const SignatureRecord& rec : image.records) {
    records += 8 + kRecordFixedBytes + 4 * rec.stacks.size();
  }
  return encoded_size - records;
}

void PutU32At(std::string* bytes, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void ExpectOnlyOriginalRecords(const HistoryImage& original, const std::string& mutant,
                               const std::string& what) {
  std::unique_ptr<char[]> exact(new char[mutant.size()]);
  std::memcpy(exact.get(), mutant.data(), mutant.size());
  HistoryImage decoded;
  LoadResult result;
  const bool ok = DecodeSnapshotV2(std::string_view(exact.get(), mutant.size()), &decoded, &result);
  EXPECT_EQ(decoded.records.size(), result.records_loaded) << what;
  for (const SignatureRecord& rec : decoded.records) {
    EXPECT_TRUE(IsOriginal(rec, original)) << what << ": returned a record it was never given";
  }
  const bool loss_reported =
      !ok || result.status == LoadStatus::kCorrupt || result.records_dropped > 0;
  if (decoded.records.size() < original.records.size()) {
    EXPECT_TRUE(loss_reported) << what << ": " << decoded.records.size() << " of "
                               << original.records.size() << " records, no loss reported";
  }
}

TEST(SnapshotV2MutationTest, EveryHeaderAndStackBitFlipPlusSeededRecordFlips) {
  for (const std::uint32_t seed : kSweepSeeds) {
    const HistoryImage image = SeededImage(seed);
    const std::string bytes = EncodeSnapshotV2(image);
    const std::size_t records_at = RecordSectionOffset(image, bytes.size());
    ASSERT_GT(records_at, 20u);
    ASSERT_LT(records_at, bytes.size());
    for (std::size_t bit = 0; bit < records_at * 8; ++bit) {
      std::string mutant = bytes;
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      ExpectOnlyOriginalRecords(image, mutant,
                                "seed " + std::to_string(seed) + " bit " + std::to_string(bit));
    }
    std::mt19937 rng(seed);
    const std::size_t record_bits = (bytes.size() - records_at) * 8;
    for (int i = 0; i < kRecordSectionFlips; ++i) {
      const std::size_t bit = records_at * 8 + rng() % record_bits;
      std::string mutant = bytes;
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      ExpectOnlyOriginalRecords(image, mutant,
                                "seed " + std::to_string(seed) + " bit " + std::to_string(bit));
    }
  }
}

TEST(SnapshotV2MutationTest, EveryTruncationLength) {
  for (const std::uint32_t seed : kSweepSeeds) {
    const HistoryImage image = SeededImage(seed);
    const std::string bytes = EncodeSnapshotV2(image);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      ExpectOnlyOriginalRecords(image, bytes.substr(0, len),
                                "seed " + std::to_string(seed) + " len " + std::to_string(len));
    }
  }
}

TEST(SnapshotV2MutationTest, ForgedCountsAndLengths) {
  const std::uint32_t kForged[] = {0, 1, 2, 0x7fffffffu, 0xffffffffu};
  for (const std::uint32_t seed : kSweepSeeds) {
    const HistoryImage image = SeededImage(seed);
    const std::string bytes = EncodeSnapshotV2(image);
    const std::string tag = "seed " + std::to_string(seed);

    // Header counts, with the header CRC recomputed: a CRC-consistent lie.
    for (const std::size_t field : {std::size_t{8}, std::size_t{12}}) {
      for (const std::uint32_t value : kForged) {
        std::string mutant = bytes;
        PutU32At(&mutant, field, value);
        PutU32At(&mutant, 16, Crc32(mutant.data(), 16));
        ExpectOnlyOriginalRecords(image, mutant,
                                  tag + " header@" + std::to_string(field) + "=" +
                                      std::to_string(value));
      }
    }

    // The first stack's frame count (its CRC no longer matches).
    for (const std::uint32_t value : kForged) {
      std::string mutant = bytes;
      PutU32At(&mutant, 20, value);
      ExpectOnlyOriginalRecords(image, mutant, tag + " frame_count=" + std::to_string(value));
    }

    // Each record's payload length (not CRC-covered), and its ref count with
    // the payload CRC recomputed.
    std::size_t at = RecordSectionOffset(image, bytes.size());
    for (const SignatureRecord& rec : image.records) {
      const std::size_t payload_len = kRecordFixedBytes + 4 * rec.stacks.size();
      const std::uint32_t len = static_cast<std::uint32_t>(payload_len);
      for (const std::uint32_t value : {0u, len - 1, len + 1, 0xffffffffu}) {
        std::string mutant = bytes;
        PutU32At(&mutant, at, value);
        ExpectOnlyOriginalRecords(image, mutant,
                                  tag + " payload_len@" + std::to_string(at) + "=" +
                                      std::to_string(value));
      }
      const std::uint32_t refs = static_cast<std::uint32_t>(rec.stacks.size());
      for (const std::uint32_t value : {0u, refs - 1, refs + 1, 0xffffffffu}) {
        std::string mutant = bytes;
        PutU32At(&mutant, at + 8 + kRecordFixedBytes - 4, value);
        PutU32At(&mutant, at + 4, Crc32(mutant.data() + at + 8, payload_len));
        ExpectOnlyOriginalRecords(image, mutant,
                                  tag + " ref_count@" + std::to_string(at) + "=" +
                                      std::to_string(value));
      }
      at += 8 + payload_len;
    }
    ASSERT_EQ(at, bytes.size());
  }
}

TEST(MergeTest, PolicyControlsOperatorKnobs) {
  HistoryImage mine;
  mine.records.push_back(MakeRecord(4));
  mine.records[0].disabled = false;
  mine.records[0].avoidance_count = 10;

  HistoryImage theirs;
  theirs.records.push_back(mine.records[0]);
  theirs.records[0].disabled = true;
  theirs.records[0].avoidance_count = 3;

  HistoryImage a = mine;
  MergeInto(&a, theirs, MergePolicy::kPreferExisting);
  EXPECT_FALSE(a.records[0].disabled);           // my knob survives
  EXPECT_EQ(a.records[0].avoidance_count, 10u);  // max()

  HistoryImage b = mine;
  MergeInto(&b, theirs, MergePolicy::kPreferIncoming);
  EXPECT_TRUE(b.records[0].disabled);            // file wins (§8 reload)
  EXPECT_EQ(b.records[0].avoidance_count, 10u);  // counters still never shrink
}

}  // namespace
}  // namespace persist
}  // namespace dimmunix
