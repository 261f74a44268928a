#include "compress/cpack.h"

#include <array>
#include <stdexcept>

#include "common/bitstream.h"
#include "compress/batch_staging.h"
#include "compress/codec_registry.h"

namespace slc {

namespace {

// FIFO dictionary in a fixed power-of-two ring buffer on the stack; logical
// index 0 is the oldest entry, matching the hardware's shift-register
// organisation. The encoder and the decoder rebuild it identically.
class RingDict {
 public:
  static constexpr size_t kMaxEntries = 64;

  explicit RingDict(size_t cap) : mask_(cap - 1), cap_(cap) {}

  int find_full(uint32_t w) const {
    for (size_t i = 0; i < size_; ++i)
      if (buf_[(start_ + i) & mask_] == w) return static_cast<int>(i);
    return -1;
  }
  int find_partial(uint32_t w, unsigned bytes) const {
    const uint32_t mask = bytes == 3 ? 0xFFFFFF00u : 0xFFFF0000u;
    const uint32_t key = w & mask;
    for (size_t i = 0; i < size_; ++i)
      if ((buf_[(start_ + i) & mask_] & mask) == key) return static_cast<int>(i);
    return -1;
  }
  uint32_t at(size_t i) const { return buf_[(start_ + i) & mask_]; }
  void push(uint32_t w) {
    if (size_ == cap_) {
      buf_[start_] = w;  // overwrite the oldest slot; it becomes the newest
      start_ = (start_ + 1) & mask_;
    } else {
      buf_[(start_ + size_) & mask_] = w;
      ++size_;
    }
  }

 private:
  std::array<uint32_t, kMaxEntries> buf_{};
  size_t mask_;
  size_t cap_;
  size_t start_ = 0;
  size_t size_ = 0;
};

constexpr unsigned prefix_bits(CpackCode c) {
  switch (c) {
    case CpackCode::kZZZZ:
    case CpackCode::kXXXX:
    case CpackCode::kMMMM: return 2;
    default: return 4;
  }
}

constexpr uint64_t prefix_value(CpackCode c) {
  switch (c) {
    case CpackCode::kZZZZ: return 0b00;
    case CpackCode::kXXXX: return 0b01;
    case CpackCode::kMMMM: return 0b10;
    case CpackCode::kMMXX: return 0b1100;
    case CpackCode::kZZZX: return 0b1101;
    case CpackCode::kMMMX: return 0b1110;
  }
  return 0;
}

// The one C-PACK encoding walk. `Sink` is detail::BitCounter (analyze) or
// BitWriter (compress); the dictionary sees the same push sequence either
// way.
template <class Sink>
void encode_words(const uint32_t* words, size_t n_words, size_t dict_entries,
                  unsigned index_bits, Sink& w) {
  RingDict dict(dict_entries);
  const auto code = [&w](CpackCode c) { w.put(prefix_value(c), prefix_bits(c)); };
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = words[i];
    if (word == 0) {
      code(CpackCode::kZZZZ);
      continue;
    }
    if ((word & 0xFFFFFF00u) == 0) {
      code(CpackCode::kZZZX);
      w.put(word & 0xFF, 8);
      continue;
    }
    int idx = dict.find_full(word);
    if (idx >= 0) {
      code(CpackCode::kMMMM);
      w.put(static_cast<uint64_t>(idx), index_bits);
      continue;
    }
    idx = dict.find_partial(word, 3);
    if (idx >= 0) {
      code(CpackCode::kMMMX);
      w.put(static_cast<uint64_t>(idx), index_bits);
      w.put(word & 0xFF, 8);
      dict.push(word);
      continue;
    }
    idx = dict.find_partial(word, 2);
    if (idx >= 0) {
      code(CpackCode::kMMXX);
      w.put(static_cast<uint64_t>(idx), index_bits);
      w.put(word & 0xFFFF, 16);
      dict.push(word);
      continue;
    }
    code(CpackCode::kXXXX);
    w.put(word, 32);
    dict.push(word);
  }
}

// Worst case of one staged block: every word a 34-bit kXXXX code.
constexpr size_t kMaxPayloadBytes = (detail::kMaxStagedWords * 34 + 7) / 8;

}  // namespace

CpackCompressor::CpackCompressor(size_t dict_entries) : dict_entries_(dict_entries) {
  if (dict_entries < 2 || dict_entries > RingDict::kMaxEntries ||
      (dict_entries & (dict_entries - 1)) != 0)
    throw std::invalid_argument("C-PACK: dictionary size must be a power of two in [2, 64]");
  index_bits_ = 0;
  for (size_t v = dict_entries; v > 1; v >>= 1) ++index_bits_;
}

unsigned CpackCompressor::code_bits(CpackCode c) const {
  switch (c) {
    case CpackCode::kZZZZ: return 2;
    case CpackCode::kXXXX: return 2 + 32;
    case CpackCode::kMMMM: return 2 + index_bits_;
    case CpackCode::kMMXX: return 4 + index_bits_ + 16;
    case CpackCode::kZZZX: return 4 + 8;
    case CpackCode::kMMMX: return 4 + index_bits_ + 8;
  }
  return 34;
}

Block CpackCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  if (!cb.is_compressed) return raw_block(cb.payload, block_bytes);
  Block out(block_bytes);
  BitReader r(cb.payload);
  RingDict dict(dict_entries_);
  const size_t n_words = block_bytes / 4;
  for (size_t i = 0; i < n_words; ++i) {
    uint32_t word = 0;
    if (r.get_bit() == 0) {
      if (r.get_bit() == 0) {
        word = 0;  // zzzz
      } else {
        word = static_cast<uint32_t>(r.get(32));  // xxxx
        dict.push(word);
      }
    } else {
      if (r.get_bit() == 0) {
        const auto idx = static_cast<size_t>(r.get(index_bits_));  // mmmm
        word = dict.at(idx);
      } else {
        // 4-bit prefixes: 1100 mmxx, 1101 zzzx, 1110 mmmx
        const bool b3 = r.get_bit();
        if (!b3) {
          // 110x
          if (!r.get_bit()) {
            const auto idx = static_cast<size_t>(r.get(index_bits_));  // mmxx
            const auto lo = static_cast<uint32_t>(r.get(16));
            word = (dict.at(idx) & 0xFFFF0000u) | lo;
            dict.push(word);
          } else {
            word = static_cast<uint32_t>(r.get(8));  // zzzx
          }
        } else {
          if (r.get_bit()) throw std::invalid_argument("C-PACK: unused 1111 prefix");
          const auto idx = static_cast<size_t>(r.get(index_bits_));  // mmmx
          const auto lo = static_cast<uint32_t>(r.get(8));
          word = (dict.at(idx) & 0xFFFFFF00u) | lo;
          dict.push(word);
        }
      }
    }
    out.set_word32(i, word);
  }
  if (r.overrun()) throw std::invalid_argument("C-PACK: payload ends inside the block");
  return out;
}

void CpackCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  uint32_t words[detail::kMaxStagedWords];
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    detail::require_word_staging(blk.size(), "C-PACK");
    const size_t n_words = detail::load_words_le32(blk.bytes().data(), blk.size(), words);
    detail::BitCounter counter;
    encode_words(words, n_words, dict_entries_, index_bits_, counter);
    BlockAnalysis a;
    const size_t raw_bits = blk.size() * 8;
    a.is_compressed = counter.bits < raw_bits;
    a.bit_size = a.is_compressed ? counter.bits : raw_bits;
    a.lossless_bits = a.bit_size;
    out[b] = a;
  }
}

void CpackCompressor::compress_batch(std::span<const BlockView> blocks,
                                     CompressedBlock* out) const {
  // The size is known only once the dictionary walk ran, so each block is
  // emitted into a worst-case scratch buffer and copied out.
  uint32_t words[detail::kMaxStagedWords];
  uint8_t scratch[kMaxPayloadBytes];
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    detail::require_word_staging(blk.size(), "C-PACK");
    const size_t n_words = detail::load_words_le32(blk.bytes().data(), blk.size(), words);
    BitWriter w(scratch);
    encode_words(words, n_words, dict_entries_, index_bits_, w);

    CompressedBlock cb;
    if (w.bit_size() >= blk.size() * 8) {
      cb.is_compressed = false;
      cb.bit_size = blk.size() * 8;
      cb.payload.assign(blk.bytes().begin(), blk.bytes().end());
    } else {
      cb.is_compressed = true;
      cb.bit_size = w.bit_size();
      cb.payload.assign(scratch, scratch + w.finish());
    }
    out[b] = std::move(cb);
  }
}

namespace {
const CodecRegistrar cpack_registrar({
    .name = "C-PACK",
    .scheme = "dictionary + zero patterns",
    .paper = "Chen et al., IEEE TVLSI 2010 (paper Fig. 1 baseline)",
    .order = 2,
    .lossy = false,
    .needs_training = false,
    .compress_latency = 8,
    .decompress_latency = 8,
    .make = [](const CodecOptions&) -> std::shared_ptr<const Compressor> {
      return std::make_shared<CpackCompressor>();
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
