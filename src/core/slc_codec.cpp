#include "core/slc_codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "compress/batch_staging.h"
#include "compress/codec_registry.h"
#include "core/fingerprint_cache.h"
#include "core/slc_block_codec.h"

namespace slc {

namespace {

/// splitmix64 step — mixes the codec-identity fields into one cache key.
uint64_t mix_key(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

const char* to_string(SlcVariant v) {
  switch (v) {
    case SlcVariant::kSimp: return "TSLC-SIMP";
    case SlcVariant::kPred: return "TSLC-PRED";
    case SlcVariant::kOpt: return "TSLC-OPT";
  }
  return "?";
}

SlcCodec::SlcCodec(std::shared_ptr<const E2mcCompressor> lossless, SlcConfig cfg)
    : lossless_(std::move(lossless)),
      cfg_(std::move(cfg)),
      selector_(cfg_.variant == SlcVariant::kOpt) {
  assert(lossless_ != nullptr);
  assert(cfg_.mag_bytes > 0 && kBlockBytes % cfg_.mag_bytes == 0);
  // Everything the Fig. 4 decision depends on beyond the block content: the
  // trained model (its process-unique id — never reused, unlike a pointer),
  // geometry and variant. Two codecs agreeing on this key always agree on
  // every decision, so their memo entries are interchangeable.
  uint64_t key = mix_key(0, lossless_->model_id());
  key = mix_key(key, cfg_.mag_bytes);
  key = mix_key(key, cfg_.threshold_bytes);
  key = mix_key(key, static_cast<uint64_t>(cfg_.variant));
  cache_key_ = key;
}

size_t SlcCodec::header_bits(size_t block_bytes) const {
  const size_t n_sym = block_bytes * 8 / kSymbolBits;
  return SlcHeader::bits(block_bytes, lossless_->config().num_ways, n_sym);
}

size_t SlcCodec::encode_into(BlockView block, const SlcHeader& hdr,
                             std::span<const uint16_t> lens, size_t skip_start,
                             size_t skip_count, BitWriter& w) const {
  const unsigned num_ways = lossless_->config().num_ways;
  const size_t n_sym = block.num_symbols();
  const size_t per_way = n_sym / num_ways;
  const WayLayout lo =
      lossless_->layout(lens, header_bits(block.size()), skip_start, skip_count);

  // Fill pdp way offsets into a copy of the header.
  SlcHeader h = hdr;
  size_t off = SlcHeader::padded_bytes(block.size(), num_ways, n_sym);
  for (unsigned i = 1; i < num_ways; ++i) {
    off += lo.way_bytes[i - 1];
    h.way_offsets[i] = static_cast<uint8_t>(off);
  }

  const HuffmanCode& code = lossless_->code();
  h.write(w, block.size(), num_ways, n_sym);
  for (unsigned way = 0; way < num_ways; ++way) {
    const size_t start_bit = w.bit_size();
    for (size_t s = way * per_way; s < (way + 1) * per_way; ++s) {
      if (s >= skip_start && s < skip_start + skip_count) continue;
      const uint16_t sym = block.symbol(s);
      if (code.in_table(sym)) {
        w.put(code.codeword(sym), code.codeword_len(sym));
      } else {
        w.put(code.esc_code(), code.esc_len());
        w.put(sym, kSymbolBits);
      }
    }
    const size_t used = w.bit_size() - start_bit;
    assert(used == lo.way_bits[way]);
    const size_t aligned = lo.way_bytes[way] * 8;
    if (aligned > used) w.put(0, static_cast<unsigned>(aligned - used));
  }
  assert(w.bit_size() == lo.total_bits);
  return lo.total_bits;
}

SlcCodec::Decision SlcCodec::decide(std::span<const uint16_t> lens,
                                    size_t block_bytes) const {
  const size_t raw_bits = block_bytes * 8;
  const size_t mag_bits = cfg_.mag_bytes * 8;
  const size_t max_bursts = block_bytes / cfg_.mag_bytes;

  const WayLayout lossless_layout = lossless_->layout(lens, header_bits(block_bytes));
  const size_t comp_bits = lossless_layout.total_bits;

  Decision d;
  d.analysis.lossless_bits = comp_bits;
  d.analysis.is_compressed = true;

  auto raw_decision = [&] {
    d.analysis.is_compressed = false;
    d.analysis.bit_size = raw_bits;
    return d;
  };

  // Fig. 4, top branch: when the compressed size reaches the uncompressed
  // size, the block is always stored raw with the full bit budget (128 B).
  if (comp_bits >= raw_bits) return raw_decision();

  // Bit budget: closest multiple of MAG <= comp size, floored at one MAG
  // (it is impossible to fetch less than one burst). Note a block slightly
  // above the last burst boundary (e.g. 108 B at MAG 32) is still a lossy
  // candidate: truncating to 96 B saves the fourth burst.
  const size_t budget_bits = std::max(comp_bits / mag_bits * mag_bits, mag_bits);
  const size_t extra_bits = comp_bits > budget_bits ? comp_bits - budget_bits : 0;
  d.extra_bits = extra_bits;

  if (extra_bits != 0 && extra_bits <= cfg_.threshold_bytes * 8) {
    // Lossy path: find the sub-block to truncate. The tree works on raw code
    // bits while way byte-alignment can re-add up to (ways-1)*7 padding bits,
    // so verify the truncated layout and escalate to the next larger window
    // if padding pushed the block back over budget.
    std::optional<TreeCandidate> cand = selector_.select(lens, extra_bits);
    size_t cut_bits = 0;
    while (cand) {
      const WayLayout cut =
          lossless_->layout(lens, header_bits(block_bytes), cand->start, cand->count);
      if (cut.total_bits <= budget_bits) {
        cut_bits = cut.total_bits;
        break;
      }
      const size_t need = cand->sum_bits + (cut.total_bits - budget_bits);
      cand = selector_.select(lens, need);
      // A repeated selection with a larger target always returns a strictly
      // larger sum or nullopt, so this loop terminates.
    }
    if (cand) {
      // The cut size usually costs the budget's burst count; one fewer when
      // the selected window overshoots past another burst boundary.
      d.analysis.lossy = true;
      d.analysis.truncated_symbols = cand->count;
      d.analysis.bit_size = cut_bits;
      d.truncated_bits = cand->sum_bits;
      d.skip_start = cand->start;
      d.skip_count = cand->count;
      return d;
    }
    // No window covers the overshoot -> fall through to lossless.
  }

  // Lossless path (comp size == budget, below one MAG, or above threshold).
  // A lossless block needing as many bursts as the raw block is stored raw:
  // same traffic, no decompression latency, and the MDC's max burst count
  // marks it (no header needed, Sec. III-G).
  if (bursts_for_bits(comp_bits, cfg_.mag_bytes, block_bytes) >= max_bursts) {
    return raw_decision();
  }
  d.analysis.bit_size = comp_bits;
  return d;
}

void SlcCodec::decide_batch(std::span<const BlockView> blocks, LengthScratch& scratch,
                            Decision* out) const {
  // One staged probe for the whole span (the E2MC batched sizing pass), then
  // the budget/threshold/tree decision per block over the staged lengths.
  lossless_->code_lengths_batch(blocks, scratch.lens, scratch.offsets);
  for (size_t i = 0; i < blocks.size(); ++i)
    out[i] = decide(scratch.block_lens(i), blocks[i].size());
}

void SlcCodec::decide_batch_cached(std::span<const BlockView> blocks, LengthScratch& scratch,
                                   Decision* out) const {
  const size_t n = blocks.size();
  FingerprintCache* c = cfg_.cache.get();
  if (c == nullptr) {
    decide_batch(blocks, scratch, out);
    return;
  }

  // Pass 1: probe the memo, and dedup within the span — a batch of 95%
  // duplicates then pays one probe for each distinct content even on a cold
  // cache. `first_miss` maps a missing fingerprint to the first block that
  // will compute it; later twins copy its decision after the batch probe.
  // Outcomes are kept apart and stamped last, since twins copy whole
  // decisions.
  std::vector<uint64_t> fps(n);
  std::vector<CacheOutcome> oc(n, CacheOutcome{.probed = true});
  std::vector<size_t> miss;                       // indices that need the probe
  std::vector<std::pair<size_t, size_t>> twins;   // (dup index, representative)
  std::unordered_map<uint64_t, size_t> first_miss;
  miss.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fps[i] = block_fingerprint(blocks[i].bytes());
    switch (c->lookup(cache_key_, fps[i], blocks[i].bytes(), out[i])) {
      case FingerprintCache::Lookup::kHit:
        oc[i].hit = true;
        continue;
      case FingerprintCache::Lookup::kCollision:
        oc[i].collision = true;
        break;
      case FingerprintCache::Lookup::kMiss:
        break;
    }
    const auto it = first_miss.find(fps[i]);
    if (it != first_miss.end()) {
      // Same fingerprint as an earlier miss of this span. In verify-on-hit
      // mode trust it only on byte equality (an in-span collision falls
      // through to its own probe); otherwise the fingerprint is the
      // identity, exactly like a cache hit.
      const BlockView rep = blocks[it->second];
      if (!c->verify_on_hit() ||
          std::equal(rep.bytes().begin(), rep.bytes().end(), blocks[i].bytes().begin())) {
        oc[i].hit = true;
        twins.emplace_back(i, it->second);
        continue;
      }
    } else {
      first_miss.emplace(fps[i], i);
    }
    miss.push_back(i);
  }

  // Pass 2: one staged decide_batch over the distinct misses.
  if (!miss.empty()) {
    std::vector<BlockView> miss_views;
    miss_views.reserve(miss.size());
    for (const size_t i : miss) miss_views.push_back(blocks[i]);
    std::vector<Decision> miss_out(miss.size());
    decide_batch(miss_views, scratch, miss_out.data());
    for (size_t j = 0; j < miss.size(); ++j) {
      const size_t i = miss[j];
      out[i] = miss_out[j];
      oc[i].evicted = c->insert(cache_key_, fps[i], blocks[i].bytes(), out[i]);
    }
  }
  for (const auto& [i, rep] : twins) out[i] = out[rep];
  for (size_t i = 0; i < n; ++i) out[i].analysis.cache = oc[i];
}

void SlcCodec::analyze_batch(std::span<const BlockView> blocks, BlockAnalysis* out) const {
  LengthScratch scratch;
  std::vector<Decision> decisions(blocks.size());
  decide_batch_cached(blocks, scratch, decisions.data());
  for (size_t i = 0; i < blocks.size(); ++i) out[i] = decisions[i].analysis;
}

void SlcCodec::compress_batch(std::span<const BlockView> blocks, CompressedBlock* out) const {
  // Prefix-sum payload scatter over the batched Fig. 4 decision: decide_batch
  // already yields every block's exact final size (bit_size is always a
  // whole number of bytes — the ways are byte-aligned and raw blocks are
  // byte-sized), so the payloads scatter into one arena at independent
  // offsets and no per-block writer or probe re-run is needed.
  const size_t n = blocks.size();
  LengthScratch scratch;
  std::vector<Decision> ds(n);
  decide_batch(blocks, scratch, ds.data());

  std::vector<size_t> sizes(n), offsets(n);
  for (size_t b = 0; b < n; ++b) {
    assert(ds[b].analysis.bit_size % 8 == 0);
    sizes[b] = ds[b].analysis.bit_size / 8;
  }
  const size_t total = detail::exclusive_prefix_sum(sizes.data(), n, offsets.data());
  std::vector<uint8_t> arena(total);

  for (size_t b = 0; b < n; ++b) {
    const BlockView blk = blocks[b];
    const Decision& d = ds[b];
    if (!d.analysis.is_compressed) {
      std::memcpy(arena.data() + offsets[b], blk.bytes().data(), blk.size());
      continue;
    }
    SlcHeader hdr;
    hdr.lossy = d.analysis.lossy;
    hdr.start_symbol = static_cast<uint8_t>(d.skip_start);
    hdr.approx_count = static_cast<uint8_t>(d.analysis.lossy ? d.skip_count : 0);
    BitWriter w(arena.data() + offsets[b]);
    const size_t bits =
        encode_into(blk, hdr, scratch.block_lens(b), d.skip_start, d.skip_count, w);
    assert(bits == d.analysis.bit_size);
    (void)bits;
    const size_t written = w.finish();
    assert(written == sizes[b]);
    (void)written;
  }

  for (size_t b = 0; b < n; ++b) {
    CompressedBlock cb;
    cb.is_compressed = ds[b].analysis.is_compressed;
    cb.bit_size = ds[b].analysis.bit_size;
    const uint8_t* slice = arena.data() + offsets[b];
    cb.payload.assign(slice, slice + sizes[b]);
    out[b] = std::move(cb);
  }
}

Block SlcCodec::decompress(const CompressedBlock& cb, size_t block_bytes) const {
  if (!cb.is_compressed) return raw_block(cb.payload, block_bytes);
  const unsigned num_ways = lossless_->config().num_ways;
  const size_t n_sym = block_bytes * 8 / kSymbolBits;

  BitReader hdr_reader(cb.payload);
  const SlcHeader h = SlcHeader::read(hdr_reader, block_bytes, num_ways, n_sym);
  const size_t skip_start = h.lossy ? h.start_symbol : 0;
  const size_t skip_count = h.lossy ? h.approx_count : 0;
  if (skip_start + skip_count > n_sym)
    throw std::invalid_argument("SLC: approximated window past the block");

  Block out(block_bytes);
  std::array<size_t, 8> way_off{};
  way_off[0] = SlcHeader::padded_bytes(block_bytes, num_ways, n_sym);
  for (unsigned i = 1; i < num_ways; ++i) way_off[i] = h.way_offsets[i];
  // The window's symbols are not in the stream; fill_approximated() writes
  // them below.
  lossless_->decode_ways(cb.payload, way_off, skip_start, skip_count, out);

  if (h.lossy && skip_count > 0) fill_approximated(out.mutable_bytes(), skip_start, skip_count);
  return out;
}

void SlcCodec::fill_approximated(std::span<uint8_t> out, size_t skip_start,
                                 size_t skip_count) const {
  const size_t n_sym = out.size() * 8 / kSymbolBits;
  const auto set_symbol = [out](size_t s, uint16_t v) {
    out[s * 2] = static_cast<uint8_t>(v & 0xff);
    out[s * 2 + 1] = static_cast<uint8_t>(v >> 8);
  };
  if (cfg_.variant == SlcVariant::kSimp) {
    for (size_t s = skip_start; s < skip_start + skip_count; ++s) set_symbol(s, 0);
    return;
  }
  // Value-similarity prediction (Sec. III-E): the nearest non-truncated
  // symbol predicts the truncated ones. Adjacent threads hold similar
  // 32-bit values, so a 16-bit symbol is only predictive for symbols at
  // the same position within a word — the fill is parity-matched (one
  // predictor register per halfword lane; the decompressor only
  // generates the predictor indices, keeping the hardware delta tiny).
  uint16_t fill[2] = {0, 0};
  for (size_t parity = 0; parity < 2; ++parity) {
    size_t idx = n_sym;  // sentinel: none found
    // Last intact symbol before the window...
    for (size_t s = skip_start; s-- > 0;) {
      if (s % 2 == parity) {
        idx = s;
        break;
      }
    }
    // ...or the first intact one after it.
    if (idx == n_sym) {
      for (size_t s = skip_start + skip_count; s < n_sym; ++s) {
        if (s % 2 == parity) {
          idx = s;
          break;
        }
      }
    }
    if (idx < n_sym) fill[parity] = BlockView(out).symbol(idx);
  }
  for (size_t s = skip_start; s < skip_start + skip_count; ++s) set_symbol(s, fill[s % 2]);
}

void SlcCodec::approximate(std::span<uint8_t> block, const Decision& d) const {
  if (d.analysis.lossy && d.skip_count > 0) fill_approximated(block, d.skip_start, d.skip_count);
}

namespace {

std::shared_ptr<const E2mcCompressor> lossless_from(const CodecOptions& opts) {
  if (opts.trained_e2mc) return opts.trained_e2mc;
  return E2mcCompressor::train(opts.training_data, opts.e2mc);
}

SlcConfig slc_config_from(const CodecOptions& opts, SlcVariant variant) {
  SlcConfig cfg;
  cfg.mag_bytes = opts.mag_bytes;
  cfg.threshold_bytes = opts.threshold_bytes;
  cfg.variant = variant;
  cfg.cache = opts.fingerprint_cache;
  return cfg;
}

CodecInfo tslc_info(SlcVariant variant, int order, std::string scheme, std::string paper) {
  CodecInfo info;
  info.name = to_string(variant);
  info.scheme = std::move(scheme);
  info.paper = std::move(paper);
  info.order = order;
  info.lossy = true;
  info.needs_training = true;
  info.compress_latency = SlcCodec::kCompressLatency;
  info.decompress_latency = SlcCodec::kDecompressLatency;
  info.make = [variant](const CodecOptions& opts) -> std::shared_ptr<const Compressor> {
    return std::make_shared<SlcCodec>(lossless_from(opts), slc_config_from(opts, variant));
  };
  info.make_block_codec =
      [variant](const CodecOptions& opts) -> std::shared_ptr<const BlockCodec> {
    return std::make_shared<SlcBlockCodec>(lossless_from(opts), slc_config_from(opts, variant));
  };
  return info;
}

const CodecRegistrar tslc_simp_registrar(
    tslc_info(SlcVariant::kSimp, 5, "SLC over E2MC, truncated symbols decode to zero",
              "paper Sec. III / Sec. V (TSLC-SIMP)"));
const CodecRegistrar tslc_pred_registrar(
    tslc_info(SlcVariant::kPred, 6, "SLC over E2MC, value-similarity prediction",
              "paper Sec. III-E / Sec. V (TSLC-PRED)"));
const CodecRegistrar tslc_opt_registrar(
    tslc_info(SlcVariant::kOpt, 7, "SLC over E2MC, prediction + extra tree nodes",
              "paper Sec. III-F / Sec. V (TSLC-OPT)"));

}  // namespace

}  // namespace slc
