// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Small hashing helpers shared by stack interning, signature matching and
// the engine's stripe selection.

#ifndef DIMMUNIX_COMMON_HASH_H_
#define DIMMUNIX_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace dimmunix {

// 64-bit FNV-1a over an arbitrary byte range.
inline std::uint64_t Fnv1a64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

// boost::hash_combine-style mixing, 64-bit variant.
inline std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

// Cheap 64-bit mixer (splitmix64 finalizer) — stripe selection must not
// depend on low-bit patterns of the ids it hashes.
inline std::uint64_t MixHash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_HASH_H_
