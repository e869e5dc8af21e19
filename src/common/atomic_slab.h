// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Append-only slab with lock-free reads.
//
// The stack table and the thread registry are dense-id directories that grow
// forever and are read on every instrumented lock operation. Guarding the
// read side with the structure's write lock made those reads a global
// serialization point. AtomicSlab stores elements inline in fixed-size
// blocks addressed through a directory of atomic block pointers: Get(i) is
// one acquire load plus an index and never blocks. Append constructs the
// element in place, then publishes it with a release store of size_, so a
// reader that learned i from size() — or from an index the writer published
// after the append — observes the fully constructed element.
//
// Writers must be externally serialized (callers hold their structure's
// write lock while appending); readers need no lock at any time. Elements
// have stable addresses for the slab's lifetime and are destroyed with it.

#ifndef DIMMUNIX_COMMON_ATOMIC_SLAB_H_
#define DIMMUNIX_COMMON_ATOMIC_SLAB_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace dimmunix {

template <typename T>
class AtomicSlab {
 public:
  static constexpr std::size_t kBlockBits = 9;  // 512 elements per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 1 << 12;  // 2M elements

  AtomicSlab() = default;
  AtomicSlab(const AtomicSlab&) = delete;
  AtomicSlab& operator=(const AtomicSlab&) = delete;

  ~AtomicSlab() {
    const std::size_t n = size_.load(std::memory_order_acquire);
    for (std::size_t b = 0; b * kBlockSize < n; ++b) {
      T* block = blocks_[b].load(std::memory_order_acquire);
      const std::size_t in_block =
          n - b * kBlockSize < kBlockSize ? n - b * kBlockSize : kBlockSize;
      for (std::size_t i = 0; i < in_block; ++i) {
        block[i].~T();
      }
      ::operator delete(block, std::align_val_t{alignof(T)});
    }
  }

  // Lock-free. Valid for i < size() as observed by this thread.
  T* Get(std::size_t i) const {
    return blocks_[i >> kBlockBits].load(std::memory_order_acquire) + (i & (kBlockSize - 1));
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  // Writer-side only (external serialization required). Constructs T from
  // `args` at index size(), publishes it, and returns {pointer, index}.
  // Aborts when the directory is exhausted — silent out-of-bounds writes
  // are not an option for a structure whose readers take no locks.
  template <typename... Args>
  std::pair<T*, std::size_t> Append(Args&&... args) {
    const std::size_t i = size_.load(std::memory_order_relaxed);
    if (i >= kMaxBlocks * kBlockSize) {
      std::abort();
    }
    T* block = blocks_[i >> kBlockBits].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = static_cast<T*>(::operator new(sizeof(T) * kBlockSize, std::align_val_t{alignof(T)}));
      blocks_[i >> kBlockBits].store(block, std::memory_order_release);
    }
    void* at = block + (i & (kBlockSize - 1));
    T* value = ::new (at) T(std::forward<Args>(args)...);
    size_.store(i + 1, std::memory_order_release);
    return {value, i};
  }

 private:
  std::atomic<std::size_t> size_{0};
  std::atomic<T*> blocks_[kMaxBlocks] = {};
};

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_ATOMIC_SLAB_H_
