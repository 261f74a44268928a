#include "reference_codecs.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>

#include "compress/cpack.h"
#include "compress/e2mc.h"
#include "compress/fpc.h"
#include "compress/huffman.h"
#include "core/slc_block_codec.h"
#include "core/slc_header.h"
#include "core/tree_selector.h"

namespace slc::ref {

void BitWriter::put(uint64_t value, unsigned nbits) {
  assert(nbits <= 64);
  if (nbits == 0) return;
  if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
  // Grow buffer to hold the new bits.
  const size_t need_bytes = (bit_size_ + nbits + 7) / 8;
  if (buf_.size() < need_bytes) buf_.resize(need_bytes, 0);
  // Write bit-by-bit groups: place up to 8 bits per byte.
  size_t pos = bit_size_;
  unsigned left = nbits;
  while (left > 0) {
    const size_t byte = pos / 8;
    const unsigned bit_in_byte = static_cast<unsigned>(pos % 8);
    const unsigned room = 8 - bit_in_byte;
    const unsigned take = left < room ? left : room;
    // Extract the top `take` bits of the remaining value.
    const uint64_t chunk = (value >> (left - take)) & ((uint64_t{1} << take) - 1);
    buf_[byte] |= static_cast<uint8_t>(chunk << (room - take));
    pos += take;
    left -= take;
  }
  bit_size_ += nbits;
}

std::vector<uint8_t> BitWriter::bytes() const {
  return std::vector<uint8_t>(buf_.begin(), buf_.begin() + static_cast<long>(byte_size()));
}

namespace {

// Lossless schemes store a block raw when the code cannot beat its size.
CompressedBlock stored_raw(BlockView block) {
  CompressedBlock out;
  out.is_compressed = false;
  out.bit_size = block.size() * 8;
  out.payload.assign(block.bytes().begin(), block.bytes().end());
  return out;
}

CompressedBlock from_writer(BlockView block, const BitWriter& w) {
  if (w.bit_size() >= block.size() * 8) return stored_raw(block);
  CompressedBlock out;
  out.is_compressed = true;
  out.bit_size = w.bit_size();
  out.payload = w.bytes();
  return out;
}

BlockAnalysis lossless_analysis(BlockView block, size_t bits) {
  BlockAnalysis a;
  const size_t raw_bits = block.size() * 8;
  a.is_compressed = bits < raw_bits;
  a.bit_size = a.is_compressed ? bits : raw_bits;
  a.lossless_bits = a.bit_size;
  return a;
}

// --- BDI --------------------------------------------------------------------

constexpr unsigned kBdiTagBits = 4;

// Sign-extends the low `bytes*8` bits of v.
int64_t sext(uint64_t v, size_t bytes) {
  const unsigned bits = static_cast<unsigned>(bytes * 8);
  if (bits >= 64) return static_cast<int64_t>(v);
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t x = v & mask;
  const uint64_t sign = uint64_t{1} << (bits - 1);
  if (x & sign) x |= ~mask;
  return static_cast<int64_t>(x);
}

bool fits_signed(int64_t v, size_t bytes) {
  if (bytes >= 8) return true;
  const int64_t lim = int64_t{1} << (bytes * 8 - 1);
  return v >= -lim && v < lim;
}

uint64_t load_word(BlockView b, size_t i, size_t base_bytes) {
  switch (base_bytes) {
    case 2: return b.symbol(i);
    case 4: return b.word32(i);
    case 8: return b.word64(i);
    default: assert(false); return 0;
  }
}

// Checks whether `block` is encodable with `enc`; fills base if so.
bool encodable(BlockView block, BdiEncoding enc, uint64_t* base_out) {
  const BdiCompressor::Geometry g = BdiCompressor::geometry(enc);
  const size_t n = block.size() / g.base_bytes;
  // Base = first word that does not fit as a zero-based delta (original BDI
  // uses the first non-immediate-representable value as the explicit base).
  bool have_base = false;
  uint64_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = load_word(block, i, g.base_bytes);
    const int64_t as_imm = sext(w, g.base_bytes);
    if (fits_signed(as_imm, g.delta_bytes)) continue;  // zero-base delta ok
    if (!have_base) {
      have_base = true;
      base = w;
      continue;
    }
    const int64_t delta = sext(w - base, g.base_bytes);
    if (!fits_signed(delta, g.delta_bytes)) return false;
  }
  if (base_out) *base_out = have_base ? base : 0;
  return true;
}

}  // namespace

CompressedBlock bdi_compress(BlockView block) {
  const BdiEncoding enc = bdi_best_encoding(block);
  BitWriter w;
  w.put(static_cast<uint64_t>(enc), kBdiTagBits);

  switch (enc) {
    case BdiEncoding::kUncompressed:
      return stored_raw(block);
    case BdiEncoding::kZeros:
      break;  // tag only
    case BdiEncoding::kRepeat64:
      w.put(block.word64(0), 64);
      break;
    default: {
      const BdiCompressor::Geometry g = BdiCompressor::geometry(enc);
      uint64_t base = 0;
      const bool ok = encodable(block, enc, &base);
      assert(ok);
      (void)ok;
      const size_t n = block.size() / g.base_bytes;
      w.put(base, static_cast<unsigned>(g.base_bytes * 8));
      // Mask: bit i set => word i uses the explicit base; clear => zero base.
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = load_word(block, i, g.base_bytes);
        const bool use_zero = fits_signed(sext(v, g.base_bytes), g.delta_bytes);
        w.put_bit(!use_zero);
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = load_word(block, i, g.base_bytes);
        const bool use_zero = fits_signed(sext(v, g.base_bytes), g.delta_bytes);
        const uint64_t delta = use_zero ? v : v - base;
        w.put(delta, static_cast<unsigned>(g.delta_bytes * 8));
      }
      break;
    }
  }
  assert(w.bit_size() == BdiCompressor::encoding_bits(enc, block.size()));
  return from_writer(block, w);
}

BlockAnalysis bdi_analyze(BlockView block) {
  // kUncompressed costs exactly the raw bits; every other encoding less.
  return lossless_analysis(block,
                           BdiCompressor::encoding_bits(bdi_best_encoding(block), block.size()));
}

// --- FPC --------------------------------------------------------------------

namespace {
constexpr unsigned kFpcPrefixBits = 3;
constexpr size_t kFpcMaxZeroRun = 8;
}  // namespace

CompressedBlock fpc_compress(BlockView block) {
  const size_t n_words = block.size() / 4;
  BitWriter w;
  size_t i = 0;
  while (i < n_words) {
    const uint32_t word = block.word32(i);
    if (word == 0) {
      size_t run = 1;
      while (i + run < n_words && run < kFpcMaxZeroRun && block.word32(i + run) == 0) ++run;
      w.put(static_cast<uint64_t>(FpcPattern::kZeroRun), kFpcPrefixBits);
      w.put(run - 1, 3);
      i += run;
      continue;
    }
    const FpcPattern p = FpcCompressor::classify(word);
    w.put(static_cast<uint64_t>(p), kFpcPrefixBits);
    switch (p) {
      case FpcPattern::kSignExt4: w.put(word & 0xF, 4); break;
      case FpcPattern::kSignExt8: w.put(word & 0xFF, 8); break;
      case FpcPattern::kSignExt16: w.put(word & 0xFFFF, 16); break;
      case FpcPattern::kHalfwordPadded: w.put(word >> 16, 16); break;
      case FpcPattern::kTwoHalfwordsSE:
        w.put((word >> 16) & 0xFF, 8);
        w.put(word & 0xFF, 8);
        break;
      case FpcPattern::kRepeatedBytes: w.put(word & 0xFF, 8); break;
      case FpcPattern::kUncompressed: w.put(word, 32); break;
      case FpcPattern::kZeroRun: assert(false); break;
    }
    ++i;
  }
  return from_writer(block, w);
}

BlockAnalysis fpc_analyze(BlockView block) {
  // Mirror of fpc_compress(): the same word walk, summing sizes instead of
  // emitting bits.
  const size_t n_words = block.size() / 4;
  size_t bits = 0;
  size_t i = 0;
  while (i < n_words) {
    if (block.word32(i) == 0) {
      size_t run = 1;
      while (i + run < n_words && run < kFpcMaxZeroRun && block.word32(i + run) == 0) ++run;
      bits += kFpcPrefixBits + FpcCompressor::payload_bits(FpcPattern::kZeroRun);
      i += run;
      continue;
    }
    bits += kFpcPrefixBits +
            FpcCompressor::payload_bits(FpcCompressor::classify(block.word32(i)));
    ++i;
  }
  return lossless_analysis(block, bits);
}

// --- C-PACK -----------------------------------------------------------------

namespace {

// FIFO dictionary with fixed capacity; index 0 is the oldest entry, matching
// the hardware's shift-register organisation.
class FifoDict {
 public:
  explicit FifoDict(size_t cap) : cap_(cap) {}

  // Returns index of a full match or -1.
  int find_full(uint32_t w) const {
    for (size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i] == w) return static_cast<int>(i);
    return -1;
  }
  // Returns index whose upper `bytes` bytes match, or -1.
  int find_partial(uint32_t w, unsigned bytes) const {
    const uint32_t mask = bytes == 3 ? 0xFFFFFF00u : 0xFFFF0000u;
    for (size_t i = 0; i < entries_.size(); ++i)
      if ((entries_[i] & mask) == (w & mask)) return static_cast<int>(i);
    return -1;
  }
  void push(uint32_t w) {
    if (entries_.size() == cap_) entries_.pop_front();
    entries_.push_back(w);
  }

 private:
  size_t cap_;
  std::deque<uint32_t> entries_;
};

// (prefix value, prefix bits) per CpackCode, in enum order.
constexpr std::array<std::pair<uint64_t, unsigned>, 6> kCpackPrefix = {
    {{0b00, 2}, {0b01, 2}, {0b10, 2}, {0b1100, 4}, {0b1101, 4}, {0b1110, 4}}};

}  // namespace

CompressedBlock cpack_compress(const CpackCompressor& comp, BlockView block) {
  unsigned index_bits = 0;
  for (size_t v = comp.dict_entries(); v > 1; v >>= 1) ++index_bits;
  const size_t n_words = block.size() / 4;
  FifoDict dict(comp.dict_entries());
  BitWriter w;
  const auto code = [&w](CpackCode c) {
    const auto [value, bits] = kCpackPrefix[static_cast<size_t>(c)];
    w.put(value, bits);
  };
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = block.word32(i);
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
  return from_writer(block, w);
}

BlockAnalysis cpack_analyze(const CpackCompressor& comp, BlockView block) {
  // Mirror of cpack_compress(): same dictionary walk (the FIFO must see the
  // same push sequence), summing code sizes instead of emitting bits.
  const size_t n_words = block.size() / 4;
  FifoDict dict(comp.dict_entries());
  size_t bits = 0;
  for (size_t i = 0; i < n_words; ++i) {
    const uint32_t word = block.word32(i);
    if (word == 0) {
      bits += comp.code_bits(CpackCode::kZZZZ);
    } else if ((word & 0xFFFFFF00u) == 0) {
      bits += comp.code_bits(CpackCode::kZZZX);
    } else if (dict.find_full(word) >= 0) {
      bits += comp.code_bits(CpackCode::kMMMM);
    } else if (dict.find_partial(word, 3) >= 0) {
      bits += comp.code_bits(CpackCode::kMMMX);
      dict.push(word);
    } else if (dict.find_partial(word, 2) >= 0) {
      bits += comp.code_bits(CpackCode::kMMXX);
      dict.push(word);
    } else {
      bits += comp.code_bits(CpackCode::kXXXX);
      dict.push(word);
    }
  }
  return lossless_analysis(block, bits);
}

// --- E2MC -------------------------------------------------------------------

namespace {

// One symbol's codeword, or ESC plus the raw symbol.
void put_symbol(const HuffmanCode& code, uint16_t sym, BitWriter& w) {
  if (code.in_table(sym)) {
    w.put(code.codeword(sym), code.codeword_len(sym));
  } else {
    w.put(code.esc_code(), code.esc_len());
    w.put(sym, kSymbolBits);
  }
}

// The ways of `block` per `lo`, each byte-aligned, skipping symbols
// [skip_start, skip_start + skip_count).
void put_ways(const E2mcCompressor& e2mc, BlockView block, const WayLayout& lo,
              size_t skip_start, size_t skip_count, BitWriter& w) {
  const unsigned num_ways = e2mc.config().num_ways;
  const size_t per_way = block.num_symbols() / num_ways;
  for (unsigned way = 0; way < num_ways; ++way) {
    const size_t start_bit = w.bit_size();
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      if (s >= skip_start && s < skip_start + skip_count) continue;
      put_symbol(e2mc.code(), block.symbol(s), w);
    }
    // Byte-align the way.
    const size_t used = w.bit_size() - start_bit;
    assert(used == lo.way_bits[way]);
    const size_t aligned = lo.way_bytes[way] * 8;
    if (aligned > used) w.put(0, static_cast<unsigned>(aligned - used));
  }
}

// Pdp header fields — the byte offsets of ways 1..ways-1, counted from the
// end of a `header_bytes` header — then zero padding to `header_bytes`.
void put_pdps(const E2mcCompressor& e2mc, size_t block_bytes, const WayLayout& lo,
              size_t header_bytes, BitWriter& w) {
  size_t off = header_bytes;
  for (unsigned i = 1; i < e2mc.config().num_ways; ++i) {
    off += lo.way_bytes[i - 1];
    w.put(off, E2mcCompressor::pdp_bits(block_bytes));
  }
  w.put(0, static_cast<unsigned>(header_bytes * 8 - w.bit_size()));
}

unsigned ss_bits(size_t num_symbols) {
  unsigned n = 0;
  while ((size_t{1} << n) < num_symbols) ++n;
  return n;  // 6 for 64 symbols
}

}  // namespace

CompressedBlock e2mc_compress(const E2mcCompressor& comp, BlockView block) {
  const auto lens = comp.code_lengths(block);
  const WayLayout lo = comp.layout(lens, comp.header_bits(block.size()));
  if (lo.total_bits >= block.size() * 8) return stored_raw(block);
  BitWriter w;
  put_pdps(comp, block.size(), lo, (comp.header_bits(block.size()) + 7) / 8, w);
  put_ways(comp, block, lo, 0, 0, w);
  assert(w.bit_size() == lo.total_bits);
  return from_writer(block, w);
}

BlockAnalysis e2mc_analyze(const E2mcCompressor& comp, BlockView block) {
  const auto lens = comp.code_lengths(block);
  return lossless_analysis(block, comp.layout(lens, comp.header_bits(block.size())).total_bits);
}

// --- Huffman ----------------------------------------------------------------

CompressedBlock huffman_compress(const HuffmanCompressor& comp, BlockView block) {
  const BlockAnalysis a = huffman_analyze(comp, block);
  if (!a.is_compressed) return stored_raw(block);
  BitWriter w;
  for (size_t i = 0; i < block.num_symbols(); ++i) put_symbol(comp.code(), block.symbol(i), w);
  assert(w.bit_size() == a.bit_size);
  return from_writer(block, w);
}

BlockAnalysis huffman_analyze(const HuffmanCompressor& comp, BlockView block) {
  size_t bits = 0;
  for (size_t i = 0; i < block.num_symbols(); ++i)
    bits += comp.code().encoded_bits(block.symbol(i));
  return lossless_analysis(block, bits);
}

// --- SLC --------------------------------------------------------------------

SlcCodec::Decision slc_decide(const SlcCodec& codec, BlockView block) {
  SlcCodec::LengthScratch scratch;
  SlcCodec::Decision d;
  codec.decide_batch_cached(std::span<const BlockView>(&block, 1), scratch, &d);
  return d;
}

BlockAnalysis slc_analyze(const SlcCodec& codec, BlockView block) {
  return slc_decide(codec, block).analysis;
}

BdiEncoding bdi_best_encoding(BlockView block) {
  // All-zero?
  bool all_zero = true;
  for (uint8_t b : block.bytes())
    if (b != 0) { all_zero = false; break; }
  if (all_zero) return BdiEncoding::kZeros;

  // Repeated 64-bit value?
  bool repeated = true;
  const uint64_t first = block.word64(0);
  for (size_t i = 1; i < block.size() / 8; ++i)
    if (block.word64(i) != first) { repeated = false; break; }
  if (repeated) return BdiEncoding::kRepeat64;

  BdiEncoding best = BdiEncoding::kUncompressed;
  size_t best_bits = block.size() * 8;
  for (BdiEncoding enc : BdiCompressor::candidate_order()) {
    const size_t bits = BdiCompressor::encoding_bits(enc, block.size());
    if (bits >= best_bits) continue;
    if (encodable(block, enc, nullptr)) {
      best = enc;
      best_bits = bits;
    }
  }
  return best;
}

CompressedBlock slc_compress(const SlcCodec& codec, BlockView block) {
  const SlcCodec::Decision d = slc_decide(codec, block);
  if (!d.analysis.is_compressed) return stored_raw(block);

  const E2mcCompressor& e2mc = codec.lossless();
  const unsigned num_ways = e2mc.config().num_ways;
  const size_t n_sym = block.num_symbols();
  const auto lens = e2mc.code_lengths(block);
  const WayLayout lo =
      e2mc.layout(lens, codec.header_bits(block.size()), d.skip_start, d.skip_count);

  // The Fig. 6 header: m | ss | len (count-1, 4 bits) | pdps, byte-padded.
  BitWriter w;
  w.put_bit(d.analysis.lossy);
  w.put(d.skip_start, ss_bits(n_sym));
  assert(!d.analysis.lossy || (d.skip_count >= 1 && d.skip_count <= kMaxApproxSymbols));
  w.put(d.analysis.lossy ? d.skip_count - 1 : 0, 4);
  put_pdps(e2mc, block.size(), lo, SlcHeader::padded_bytes(block.size(), num_ways, n_sym), w);
  put_ways(e2mc, block, lo, d.skip_start, d.skip_count, w);
  assert(w.bit_size() == lo.total_bits);
  return from_writer(block, w);
}

Codec reference_for(const Compressor& comp) {
  if (dynamic_cast<const BdiCompressor*>(&comp)) return {bdi_compress, bdi_analyze};
  if (dynamic_cast<const FpcCompressor*>(&comp)) return {fpc_compress, fpc_analyze};
  if (const auto* c = dynamic_cast<const CpackCompressor*>(&comp))
    return {[c](BlockView b) { return cpack_compress(*c, b); },
            [c](BlockView b) { return cpack_analyze(*c, b); }};
  if (const auto* c = dynamic_cast<const E2mcCompressor*>(&comp))
    return {[c](BlockView b) { return e2mc_compress(*c, b); },
            [c](BlockView b) { return e2mc_analyze(*c, b); }};
  if (const auto* c = dynamic_cast<const HuffmanCompressor*>(&comp))
    return {[c](BlockView b) { return huffman_compress(*c, b); },
            [c](BlockView b) { return huffman_analyze(*c, b); }};
  if (const auto* c = dynamic_cast<const SlcCodec*>(&comp))
    return {[c](BlockView b) { return slc_compress(*c, b); },
            [c](BlockView b) { return slc_analyze(*c, b); }};
  throw std::invalid_argument("no reference encoder for " + comp.name());
}

// --- per-block policies -------------------------------------------------------

namespace {

class PerBlockPolicy final : public BlockCodec {
 public:
  explicit PerBlockPolicy(std::shared_ptr<const BlockCodec> policy) : policy_(std::move(policy)) {}

  void process_batch(std::span<uint8_t> data, bool safe_to_approx, size_t threshold_bytes,
                     BlockAnalysis* out) const override {
    const auto block = [data](size_t i) { return data.subspan(i * kBlockBytes, kBlockBytes); };
    const size_t n = data.size() / kBlockBytes;
    if (const auto* slc = dynamic_cast<const SlcBlockCodec*>(policy_.get())) {
      SlcConfig cfg = slc->config();
      cfg.threshold_bytes = safe_to_approx ? std::min(threshold_bytes, cfg.threshold_bytes) : 0;
      const SlcCodec codec(slc->lossless(), cfg);
      for (size_t i = 0; i < n; ++i) {
        const SlcCodec::Decision d = slc_decide(codec, BlockView(block(i)));
        out[i] = d.analysis;
        codec.approximate(block(i), d);
      }
    } else if (const auto* lossless = dynamic_cast<const LosslessBlockCodec*>(policy_.get())) {
      const Codec ref = reference_for(lossless->compressor());
      for (size_t i = 0; i < n; ++i) out[i] = ref.analyze(BlockView(block(i)));
    } else {
      for (size_t i = 0; i < n; ++i)
        out[i] = BlockAnalysis{.bit_size = kBlockBytes * 8, .lossless_bits = kBlockBytes * 8};
    }
  }
  size_t mag_bytes() const override { return policy_->mag_bytes(); }
  std::string name() const override { return policy_->name(); }

 private:
  std::shared_ptr<const BlockCodec> policy_;
};

}  // namespace

std::shared_ptr<const BlockCodec> per_block_policy(std::shared_ptr<const BlockCodec> policy) {
  const BlockCodec* p = policy.get();
  if (!dynamic_cast<const SlcBlockCodec*>(p) && !dynamic_cast<const LosslessBlockCodec*>(p) &&
      !dynamic_cast<const RawBlockCodec*>(p))
    throw std::invalid_argument("no per-block reference policy for " +
                                (p ? p->name() : std::string("null")));
  return std::make_shared<PerBlockPolicy>(std::move(policy));
}

}  // namespace slc::ref
