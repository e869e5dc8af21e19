// Copyright (c) dimmunix-cpp authors. MIT license.
//
// AtomicSlab keeps its elements inline in 512-element blocks: addresses must
// survive block allocation, every constructed element must be destroyed
// exactly once, and lock-free readers must see fully constructed elements
// while a writer appends.

#include "src/common/atomic_slab.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace dimmunix {
namespace {

using Slab = AtomicSlab<std::uint64_t>;

TEST(AtomicSlabTest, AddressesStayStableAcrossBlockBoundaries) {
  Slab slab;
  constexpr std::size_t kCount = 2 * Slab::kBlockSize + 3;
  std::vector<std::uint64_t*> seen;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto [value, index] = slab.Append(i * 7);
    EXPECT_EQ(index, i);
    EXPECT_EQ(value, slab.Get(i));
    seen.push_back(value);
  }
  ASSERT_EQ(slab.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(slab.Get(i), seen[i]) << "element " << i << " moved";
    EXPECT_EQ(*slab.Get(i), i * 7);
  }
  // Elements are stored inline: neighbours within a block are contiguous.
  EXPECT_EQ(seen[1], seen[0] + 1);
  EXPECT_EQ(seen[Slab::kBlockSize - 1], seen[0] + (Slab::kBlockSize - 1));
}

struct alignas(64) Counted {
  explicit Counted(int v) : value(v) { constructed.fetch_add(1); }
  ~Counted() { destroyed.fetch_add(1); }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;

  int value;
  static std::atomic<int> constructed;
  static std::atomic<int> destroyed;
};
std::atomic<int> Counted::constructed{0};
std::atomic<int> Counted::destroyed{0};

TEST(AtomicSlabTest, EachElementIsDestroyedExactlyOnce) {
  Counted::constructed = 0;
  Counted::destroyed = 0;
  constexpr int kCount = static_cast<int>(AtomicSlab<Counted>::kBlockSize) + 17;
  {
    AtomicSlab<Counted> slab;
    for (int i = 0; i < kCount; ++i) {
      Counted* c = slab.Append(i).first;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % alignof(Counted), 0u)
          << "over-aligned element " << i << " is misaligned";
    }
    EXPECT_EQ(Counted::constructed.load(), kCount);
    EXPECT_EQ(Counted::destroyed.load(), 0) << "appending must not destroy anything";
    EXPECT_EQ(slab.Get(kCount - 1)->value, kCount - 1);
  }
  EXPECT_EQ(Counted::destroyed.load(), kCount);
}

TEST(AtomicSlabTest, ReadersSeeConstructedElementsWhileAWriterAppends) {
  struct Pair {
    std::uint64_t index;
    std::uint64_t check;  // ~index: a torn or unconstructed read mismatches
  };
  AtomicSlab<Pair> slab;
  constexpr std::uint64_t kCount = 3 * AtomicSlab<Pair>::kBlockSize;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t n = slab.size();
        if (n == 0) {
          continue;
        }
        // The newest element and an older one.
        for (const std::size_t i : {n - 1, (n - 1) / 2}) {
          const Pair* p = slab.Get(i);
          if (p->index != i || p->check != ~static_cast<std::uint64_t>(i)) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    slab.Append(Pair{i, ~i});
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(slab.size(), kCount);
}

}  // namespace
}  // namespace dimmunix
