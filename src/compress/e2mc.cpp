#include "compress/e2mc.h"

#include <atomic>
#include <cassert>

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/bitstream.h"
#include "compress/batch_staging.h"
#include "compress/codec_registry.h"
#include "compress/simd_dispatch.h"
#include "compress/simd_kernels.h"

namespace slc {

namespace {
// Stack staging bound for per-block code lengths (256 symbols = 512 B
// blocks), matching the word-staging bound of the other schemes.
constexpr size_t kMaxStagedSymbols = 2 * detail::kMaxStagedWords;
}  // namespace

namespace {
std::atomic<uint64_t> g_next_model_id{1};

// Block sizes come from outside the program: reject a block whose symbols
// do not split evenly into the ways.
void require_whole_ways(size_t num_symbols, unsigned num_ways) {
  if (num_symbols == 0 || num_symbols % num_ways != 0)
    throw std::invalid_argument("E2MC: block symbols must split evenly into " +
                                std::to_string(num_ways) + " ways");
}
}  // namespace

E2mcCompressor::E2mcCompressor(HuffmanCode code, E2mcConfig cfg)
    : code_(std::move(code)),
      cfg_(cfg),
      model_id_(g_next_model_id.fetch_add(1, std::memory_order_relaxed)) {
  assert(cfg_.num_ways >= 1 && cfg_.num_ways <= 8);
}

std::shared_ptr<E2mcCompressor> E2mcCompressor::train(std::span<const uint8_t> sample,
                                                      E2mcConfig cfg) {
  SymbolFrequencies freqs;
  freqs.add_sample(sample, cfg.sample_fraction);
  return std::make_shared<E2mcCompressor>(
      HuffmanCode::build(freqs, cfg.table_entries, cfg.max_code_len), cfg);
}

unsigned E2mcCompressor::pdp_bits(size_t block_bytes) {
  unsigned n = 0;
  while ((size_t{1} << n) < block_bytes) ++n;
  return n;
}

std::vector<uint16_t> E2mcCompressor::code_lengths(BlockView block) const {
  const size_t n = block.num_symbols();
  std::vector<uint16_t> lens(n);
  for (size_t i = 0; i < n; ++i)
    lens[i] = static_cast<uint16_t>(code_.encoded_bits(block.symbol(i)));
  return lens;
}

void E2mcCompressor::code_lengths_batch(std::span<const BlockView> blocks,
                                        std::vector<uint16_t>& lens,
                                        std::vector<size_t>& offsets) const {
  size_t total = 0;
  offsets.resize(blocks.size() + 1);
  for (size_t b = 0; b < blocks.size(); ++b) {
    offsets[b] = total;
    total += blocks[b].num_symbols();
  }
  offsets[blocks.size()] = total;
  lens.resize(total);
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const uint8_t* p = blocks[b].bytes().data();
    uint16_t* dst = lens.data() + offsets[b];
    const size_t n = blocks[b].num_symbols();
    if (use_avx2) {
      simd::e2mc_code_lengths_avx2(p, n, code_.encoded_bits_table(), dst);
    } else {
      for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<uint16_t>(code_.encoded_bits(detail::load_le16(p + 2 * i)));
    }
  }
}

WayLayout E2mcCompressor::layout(std::span<const uint16_t> code_lens, size_t header_bits,
                                 size_t skip_start, size_t skip_count) const {
  WayLayout lo;
  lo.header_bits = header_bits;
  const size_t n = code_lens.size();
  const size_t per_way = n / cfg_.num_ways;
  for (size_t i = 0; i < n; ++i) {
    if (i >= skip_start && i < skip_start + skip_count) continue;
    lo.way_bits[i / per_way] += code_lens[i];
  }
  size_t total = (header_bits + 7) / 8;  // header byte-padded
  for (unsigned w = 0; w < cfg_.num_ways; ++w) {
    lo.way_bytes[w] = (lo.way_bits[w] + 7) / 8;
    total += lo.way_bytes[w];
  }
  lo.total_bits = total * 8;
  return lo;
}

void E2mcCompressor::emit_ways(BlockView block, const WayLayout& lo, BitWriter& w) const {
  const unsigned pdp = pdp_bits(block.size());
  const size_t per_way = block.num_symbols() / cfg_.num_ways;
  // Header: pdp_i = byte offset of way i (i = 1..num_ways-1) within payload.
  const size_t header_bytes = (header_bits(block.size()) + 7) / 8;
  size_t off = header_bytes;
  for (unsigned i = 1; i < cfg_.num_ways; ++i) {
    off += lo.way_bytes[i - 1];
    w.put(off, pdp);
  }
  // Pad header to a byte boundary.
  const size_t pad = header_bytes * 8 - w.bit_size();
  if (pad) w.put(0, static_cast<unsigned>(pad));

  for (unsigned way = 0; way < cfg_.num_ways; ++way) {
    const size_t start_bit = w.bit_size();
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      const uint16_t sym = block.symbol(s);
      if (code_.in_table(sym)) {
        w.put(code_.codeword(sym), code_.codeword_len(sym));
      } else {
        w.put(code_.esc_code(), code_.esc_len());
        w.put(sym, kSymbolBits);
      }
    }
    // Byte-align the way.
    const size_t used = w.bit_size() - start_bit;
    assert(used == lo.way_bits[way]);
    (void)used;
    const size_t aligned = lo.way_bytes[way] * 8;
    if (aligned > used) w.put(0, static_cast<unsigned>(aligned - used));
  }
}

void E2mcCompressor::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  const bool use_avx2 = simd::active_level() == simd::Level::kAvx2;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockView blk = blocks[b];
    const size_t n = blk.num_symbols();
    require_whole_ways(n, cfg_.num_ways);
    const size_t per_way = n / cfg_.num_ways;
    // layout() without the per-block lengths vector: sum encoded bits per
    // way directly off the code-length table (8-lane gathers when AVX2 is
    // active; identical values either way).
    const uint8_t* p = blk.bytes().data();
    size_t total = (header_bits(blk.size()) + 7) / 8;
    if (use_avx2 && n <= kMaxStagedSymbols) {
      uint16_t lens[kMaxStagedSymbols];
      simd::e2mc_code_lengths_avx2(p, n, code_.encoded_bits_table(), lens);
      for (unsigned way = 0; way < cfg_.num_ways; ++way) {
        size_t way_bits = 0;
        for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) way_bits += lens[s];
        total += (way_bits + 7) / 8;
      }
    } else {
      size_t s = 0;
      for (unsigned way = 0; way < cfg_.num_ways; ++way) {
        size_t way_bits = 0;
        for (size_t e = s + per_way; s < e; ++s)
          way_bits += code_.encoded_bits(detail::load_le16(p + 2 * s));
        total += (way_bits + 7) / 8;
      }
    }
    const size_t total_bits = total * 8;
    const size_t raw_bits = blk.size() * 8;
    BlockAnalysis a;
    a.is_compressed = total_bits < raw_bits;
    a.bit_size = a.is_compressed ? total_bits : raw_bits;
    a.lossless_bits = a.bit_size;
    out[b] = a;
  }
}

void E2mcCompressor::compress_batch(std::span<const BlockView> blocks,
                                    CompressedBlock* out) const {
  // Prefix-sum payload scatter: stage 1 stages every block's code lengths in
  // one probe (8-lane gathers when AVX2 is active) and lays out the ways per
  // block, giving each payload's exact byte size; the exclusive prefix sum
  // turns those into independent arena offsets; stage 2 emits via emit_ways
  // at each offset; stage 3 slices the arena into the per-block payloads.
  const size_t n_blocks = blocks.size();
  for (const BlockView blk : blocks) require_whole_ways(blk.num_symbols(), cfg_.num_ways);
  std::vector<uint16_t> lens;
  std::vector<size_t> lens_off;
  code_lengths_batch(blocks, lens, lens_off);
  std::vector<WayLayout> layouts(n_blocks);
  std::vector<size_t> sizes(n_blocks, 0), offsets(n_blocks, 0);

  for (size_t b = 0; b < n_blocks; ++b) {
    const BlockView blk = blocks[b];
    layouts[b] = layout(std::span<const uint16_t>(lens).subspan(
                            lens_off[b], lens_off[b + 1] - lens_off[b]),
                        header_bits(blk.size()));
    sizes[b] =
        layouts[b].total_bits < blk.size() * 8 ? layouts[b].total_bits / 8 : blk.size();
  }

  const size_t total = detail::exclusive_prefix_sum(sizes.data(), n_blocks, offsets.data());
  std::vector<uint8_t> arena(total);

  for (size_t b = 0; b < n_blocks; ++b) {
    const BlockView blk = blocks[b];
    if (layouts[b].total_bits >= blk.size() * 8) {  // stored raw
      std::memcpy(arena.data() + offsets[b], blk.bytes().data(), blk.size());
      continue;
    }
    BitWriter w(arena.data() + offsets[b]);
    emit_ways(blk, layouts[b], w);
    assert(w.bit_size() == layouts[b].total_bits);
    const size_t written = w.finish();
    assert(written == sizes[b]);
    (void)written;
  }

  for (size_t b = 0; b < n_blocks; ++b) {
    const BlockView blk = blocks[b];
    CompressedBlock cb;
    const uint8_t* slice = arena.data() + offsets[b];
    cb.is_compressed = layouts[b].total_bits < blk.size() * 8;
    cb.bit_size = cb.is_compressed ? layouts[b].total_bits : blk.size() * 8;
    cb.payload.assign(slice, slice + sizes[b]);
    out[b] = std::move(cb);
  }
}

void E2mcCompressor::decode_ways(std::span<const uint8_t> payload,
                                 std::span<const size_t> way_bytes, size_t skip_start,
                                 size_t skip_count, Block& out) const {
  const size_t per_way = out.view().num_symbols() / cfg_.num_ways;
  for (unsigned way = 0; way < cfg_.num_ways; ++way) {
    if (way_bytes[way] < way_bytes[0] || way_bytes[way] > payload.size())
      throw std::invalid_argument("E2MC: way offset outside the payload");
    BitReader r(payload);
    r.seek(way_bytes[way] * 8);
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      if (s >= skip_start && s < skip_start + skip_count) continue;  // not in the stream
      const auto step = code_.decode(static_cast<uint16_t>(r.peek(16)));
      if (step.bits == 0) throw std::invalid_argument("E2MC: invalid codeword");
      r.skip(step.bits);
      uint16_t sym = step.symbol;
      if (step.is_escape) sym = static_cast<uint16_t>(r.get(kSymbolBits));
      out.set_symbol(s, sym);
    }
    if (r.position() > r.bit_size()) throw std::invalid_argument("E2MC: read past the payload");
  }
}

Block E2mcCompressor::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  if (!cb.is_compressed) return raw_block(cb.payload, block_bytes);
  const unsigned pdp = pdp_bits(block_bytes);

  BitReader hdr(cb.payload);
  std::array<size_t, 8> way_off{};
  way_off[0] = (header_bits(block_bytes) + 7) / 8;
  for (unsigned i = 1; i < cfg_.num_ways; ++i) way_off[i] = hdr.get(pdp);

  Block out(block_bytes);
  decode_ways(cb.payload, way_off, 0, 0, out);
  return out;
}

namespace {
const CodecRegistrar e2mc_registrar({
    .name = "E2MC",
    .scheme = "entropy coding, 4 parallel decoding ways",
    .paper = "Lal et al., IPDPS 2017 (paper Sec. II-B, lossless baseline)",
    .order = 3,
    .lossy = false,
    .needs_training = true,
    .compress_latency = E2mcCompressor::kCompressLatency,
    .decompress_latency = E2mcCompressor::kDecompressLatency,
    .make = [](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
      if (opts.trained_e2mc) return opts.trained_e2mc;
      return E2mcCompressor::train(opts.training_data, opts.e2mc);
    },
    .make_block_codec = nullptr,
});
}  // namespace

}  // namespace slc
