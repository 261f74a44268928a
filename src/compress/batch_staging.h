// Internal helpers for the schemes' batch kernels: little-endian word loads,
// per-block word staging, a bit-counting sink for the encoding walks, and
// the prefix-sum offsets of the payload scatter.
// Not part of the public codec API.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace slc::detail {

inline uint16_t load_le16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  if constexpr (std::endian::native == std::endian::big)
    v = static_cast<uint16_t>((v >> 8) | (v << 8));
  return v;
}

inline uint32_t load_le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big)
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  return v;
}

/// Word staging shared by the kernels that walk a block 32-bit-word-wise
/// (FPC, C-PACK): one bulk little-endian load per block into a stack array.
inline constexpr size_t kMaxStagedWords = 128;  // covers blocks up to 512 B

/// Rejects a block the word-staging kernels cannot hold. Block sizes come
/// from outside the program, so this throws instead of asserting.
inline void require_word_staging(size_t block_bytes, const char* scheme) {
  if (block_bytes % 4 != 0 || block_bytes > kMaxStagedWords * 4)
    throw std::invalid_argument(std::string(scheme) +
                                ": block size must be a multiple of 4 and at most 512 bytes");
}

inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    uint64_t s = 0;
    for (int i = 0; i < 8; ++i) s |= ((v >> (8 * (7 - i))) & 0xFFull) << (8 * i);
    v = s;
  }
  return v;
}

/// Stages every 32-bit word of the block into `words` (little-endian);
/// returns the word count. `words` must hold block_bytes / 4 entries.
inline size_t load_words_le32(const uint8_t* p, size_t block_bytes, uint32_t* words) {
  const size_t n = block_bytes / 4;
  for (size_t i = 0; i < n; ++i) words[i] = load_le32(p + i * 4);
  return n;
}

/// Counts the bits an encoding walk would write: the sizing sink of the
/// walks templated on BitWriter.
struct BitCounter {
  size_t bits = 0;
  void put(uint64_t, unsigned nbits) { bits += nbits; }
};

/// offsets[i] = sizes[0] + ... + sizes[i-1]; returns the total. Block i's
/// payload then lands at arena + offsets[i], written by a BitWriter.
inline size_t exclusive_prefix_sum(const size_t* sizes, size_t n, size_t* offsets) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = total;
    total += sizes[i];
  }
  return total;
}

}  // namespace slc::detail
