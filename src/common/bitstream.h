// Bit-granular stream writer/reader used by all compressors.
//
// Compressed GPU memory blocks are bit-packed: entropy codes (E2MC), pattern
// prefixes (FPC/C-PACK) and headers (SLC) all have non-byte sizes. The writer
// appends MSB-first into a caller-sized byte buffer; the reader consumes from
// an immutable view. MSB-first ordering matches the canonical-Huffman decode
// convention (codewords compare as left-aligned big-endian integers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace slc {

/// Append-only MSB-first bit writer over a caller-provided buffer — the one
/// writer every encoder emits through. Bits collect in a 64-bit register and
/// leave as whole bytes; finish() flushes the final partial byte
/// zero-padded. The writer never grows or bounds-checks the buffer: the
/// batch kernels size each payload exactly before they emit (the prefix-sum
/// scatter), and an encoder that learns its size only while emitting writes
/// into a worst-case scratch buffer and copies out.
class BitWriter {
 public:
  /// Starts an empty stream at `dst`.
  explicit BitWriter(uint8_t* dst) : dst_(dst) {}

  /// Appends the low `nbits` bits of `value`, most-significant bit first.
  /// `nbits` must be in [0, 64].
  void put(uint64_t value, unsigned nbits) {
    if (nbits > 56) {  // split so the 64-bit accumulator cannot overflow
      put(value >> 32, nbits - 32);
      put(value & 0xFFFFFFFFull, 32);
      return;
    }
    if (nbits == 0) return;
    value &= (uint64_t{1} << nbits) - 1;
    acc_ = (acc_ << nbits) | value;  // fill_ < 8 here, so fill_+nbits <= 63
    fill_ += nbits;
    while (fill_ >= 8) {
      fill_ -= 8;
      dst_[len_++] = static_cast<uint8_t>((acc_ >> fill_) & 0xFF);
    }
  }

  /// Appends a single bit.
  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  /// Number of bits written so far.
  size_t bit_size() const { return len_ * 8 + fill_; }

  /// Flushes the final partial byte (zero-padded) and returns the total
  /// bytes written.
  size_t finish() {
    if (fill_) {
      dst_[len_++] = static_cast<uint8_t>((acc_ << (8 - fill_)) & 0xFF);
      acc_ = 0;
      fill_ = 0;
    }
    return len_;
  }

 private:
  uint8_t* dst_;
  size_t len_ = 0;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  // pending bits in the low end of acc_; < 8 between puts
};

/// MSB-first bit reader over an immutable byte span.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}
  /// A reader only views the bytes; passing a temporary vector would leave
  /// the span dangling. Bind the buffer to a named variable first.
  explicit BitReader(std::vector<uint8_t>&&) = delete;

  /// Reads `nbits` (<= 64) bits MSB-first. Reading past the end returns
  /// zero-padded bits and sets overrun().
  uint64_t get(unsigned nbits);

  bool get_bit() { return get(1) != 0; }

  /// Peeks `nbits` without consuming. Out-of-range bits read as zero.
  uint64_t peek(unsigned nbits) const;

  /// Skips forward `nbits`.
  void skip(size_t nbits) { pos_ += nbits; }

  /// Repositions to absolute bit offset `pos`.
  void seek(size_t pos) { pos_ = pos; }

  size_t position() const { return pos_; }
  size_t bit_size() const { return data_.size() * 8; }
  size_t remaining() const { return pos_ >= bit_size() ? 0 : bit_size() - pos_; }
  bool overrun() const { return overrun_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool overrun_ = false;
};

}  // namespace slc
