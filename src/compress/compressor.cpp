#include "compress/compressor.h"

#include <stdexcept>
#include <string>

namespace slc {

CompressedBlock Compressor::compress(BlockView block) const {
  CompressedBlock out;
  compress_batch(std::span<const BlockView>(&block, 1), &out);
  return out;
}

BlockAnalysis Compressor::analyze(BlockView block) const {
  BlockAnalysis out;
  analyze_batch(std::span<const BlockView>(&block, 1), &out);
  return out;
}

std::vector<CompressedBlock> Compressor::compress_batch(std::span<const Block> blocks) const {
  std::vector<CompressedBlock> out(blocks.size());
  const std::vector<BlockView> views = to_views(blocks);
  compress_batch(views, out.data());
  return out;
}

std::vector<BlockAnalysis> Compressor::analyze_batch(std::span<const Block> blocks) const {
  std::vector<BlockAnalysis> out(blocks.size());
  const std::vector<BlockView> views = to_views(blocks);
  analyze_batch(views, out.data());
  return out;
}

Block raw_block(std::span<const uint8_t> payload, size_t block_bytes) {
  if (payload.size() < block_bytes)
    throw std::invalid_argument("uncompressed payload holds " + std::to_string(payload.size()) +
                                " bytes, block needs " + std::to_string(block_bytes));
  return Block(payload.first(block_bytes));
}

size_t CommitStats::add(const BlockAnalysis& a, size_t block_bytes, size_t mag_bytes) {
  const size_t block_bursts = bursts_for_bits(a.bit_size, mag_bytes, block_bytes);
  ++blocks;
  lossy_blocks += a.lossy ? 1 : 0;
  uncompressed_blocks += a.is_compressed ? 0 : 1;
  bursts += block_bursts;
  truncated_symbols += a.truncated_symbols;
  original_bits += block_bytes * 8;
  lossless_bits += a.lossless_bits;
  final_bits += a.bit_size;
  cache.record(a.cache);
  return block_bursts;
}

void CommitStats::merge(const CommitStats& o) {
  blocks += o.blocks;
  lossy_blocks += o.lossy_blocks;
  uncompressed_blocks += o.uncompressed_blocks;
  bursts += o.bursts;
  truncated_symbols += o.truncated_symbols;
  original_bits += o.original_bits;
  lossless_bits += o.lossless_bits;
  final_bits += o.final_bits;
  cache.merge(o.cache);
}

}  // namespace slc
