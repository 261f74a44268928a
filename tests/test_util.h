// Shared fixtures for the registry/engine/sim tests: deterministic
// value-similar test data, the fingerprint-cache fuzz corpus generator,
// default codec options, and a workload's materialized trace.
#pragma once

#include <cmath>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/block.h"
#include "common/rng.h"
#include "compress/codec_registry.h"
#include "sim/sim_config.h"
#include "workloads/workload.h"

namespace slc {

/// gtest printer: a failed SimStats comparison lists the counters by name.
inline void PrintTo(const SimStats& s, std::ostream* os) {
  *os << "{cycles " << s.cycles << ", kernels " << s.kernels << ", accesses " << s.accesses
      << ", reads " << s.reads << ", writes " << s.writes << ", l1 " << s.l1_hits << "/"
      << s.l1_misses << ", l2 " << s.l2_hits << "/" << s.l2_misses << ", l2_writebacks "
      << s.l2_writebacks << ", dram r/w/meta " << s.dram_read_bursts << "/"
      << s.dram_write_bursts << "/" << s.metadata_bursts << ", mdc " << s.mdc_hits << "/"
      << s.mdc_misses << ", row " << s.row_hits << "/" << s.row_misses << ", decomp "
      << s.decompressions << ", comp " << s.compressions << ", stream hwm "
      << s.stream_chunk_hwm << "/" << s.stream_access_hwm << "}";
}

}  // namespace slc

namespace slc::test {

// Quantized value-similar floats (grid 0.25): the data shape real benchmark
// inputs have, keeping both float halfwords inside the code table.
inline std::vector<uint8_t> quantized_walk(uint64_t seed, size_t blocks) {
  Rng rng(seed);
  std::vector<uint8_t> data;
  double walk = 10.0;
  for (size_t i = 0; i < blocks * kBlockBytes / 4; ++i) {
    walk += rng.uniform(-1.0, 1.0);
    const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
    uint32_t bits;
    __builtin_memcpy(&bits, &v, 4);
    for (int k = 0; k < 4; ++k) data.push_back(static_cast<uint8_t>(bits >> (8 * k)));
  }
  return data;
}

// --- fuzz corpus ------------------------------------------------------------

/// Shape of one dedup_corpus() stream. Per block the generator draws, in
/// order: duplicate (verbatim repeat of an earlier block), near-duplicate
/// (an earlier block with exactly one byte changed), zero page; whatever
/// remains becomes fresh content.
struct CorpusConfig {
  size_t blocks = 256;
  double dup_fraction = 0.0;   ///< verbatim repeats of earlier blocks
  double flip_fraction = 0.0;  ///< earlier blocks with exactly one byte changed
  double zero_fraction = 0.0;  ///< all-zero pages (cleared memory)
  uint64_t seed = 1;
};

/// Seeded block stream with controlled repetition — the fingerprint-cache
/// differential suite's input. Fresh blocks alternate raw random bytes and
/// quantized value-similar floats (the two decision-path-relevant shapes);
/// duplicates exercise the hit path, one-byte near-duplicates pin that
/// adjacent contents never alias a fingerprint, zero pages model the
/// most-repeated real-world block.
inline std::vector<Block> dedup_corpus(const CorpusConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<Block> out;
  out.reserve(cfg.blocks);
  double walk = 10.0;
  for (size_t i = 0; i < cfg.blocks; ++i) {
    if (!out.empty() && rng.chance(cfg.dup_fraction)) {
      out.push_back(out[rng.next_below(out.size())]);
      continue;
    }
    if (!out.empty() && rng.chance(cfg.flip_fraction)) {
      Block b = out[rng.next_below(out.size())];
      auto bytes = b.mutable_bytes();
      bytes[rng.next_below(bytes.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
      out.push_back(std::move(b));
      continue;
    }
    if (rng.chance(cfg.zero_fraction)) {
      out.emplace_back();
      continue;
    }
    Block b;
    if (i % 2 == 0) {
      for (uint8_t& byte : b.mutable_bytes()) byte = static_cast<uint8_t>(rng.next());
    } else {
      for (size_t w = 0; w < kBlockBytes / 4; ++w) {
        walk += rng.uniform(-1.0, 1.0);
        const float v = static_cast<float>(std::round(walk * 4.0) / 4.0);
        uint32_t bits;
        __builtin_memcpy(&bits, &v, 4);
        b.set_word32(w, bits);
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Flattens a block stream into one byte buffer (region images, server
/// submits, BlockCodec::process_batch input).
inline std::vector<uint8_t> corpus_bytes(std::span<const Block> blocks) {
  std::vector<uint8_t> out;
  out.reserve(blocks.size() * kBlockBytes);
  for (const Block& b : blocks) out.insert(out.end(), b.bytes().begin(), b.bytes().end());
  return out;
}

inline CodecOptions test_options(std::span<const uint8_t> training) {
  CodecOptions opts;
  opts.mag_bytes = 32;
  opts.threshold_bytes = 16;
  opts.training_data = training;
  return opts;
}

// --- sim traces -------------------------------------------------------------

/// The whole trace of one workload at WorkloadScale::kTiny, captured with
/// the default (uncompressed) memory and materialized for replay.
inline std::vector<KernelTrace> materialized_trace(const std::string& name) {
  auto wl = make_workload(name, WorkloadScale::kTiny);
  ApproxMemory mem;
  wl->init(mem);
  mem.commit_all();
  wl->run(mem);
  mem.flush();
  return mem.take_trace();
}

}  // namespace slc::test
