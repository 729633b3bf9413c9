#include "fsync/util/bit_io.h"

#include <cassert>

namespace fsx {

void BitWriter::WriteBits(uint64_t value, int num_bits) {
  assert(num_bits >= 0 && num_bits <= 64);
  if (num_bits == 0) {
    return;
  }
  if (num_bits < 64) {
    value &= (uint64_t{1} << num_bits) - 1;
  }
  bit_count_ += static_cast<size_t>(num_bits);
  // Feed into the accumulator, flushing whole bytes as they fill.
  while (num_bits > 0) {
    int take = std::min(num_bits, 8 - acc_bits_);
    acc_ |= (value & ((uint64_t{1} << take) - 1)) << acc_bits_;
    acc_bits_ += take;
    value >>= take;
    num_bits -= take;
    if (acc_bits_ == 8) {
      buf_.push_back(static_cast<uint8_t>(acc_));
      acc_ = 0;
      acc_bits_ = 0;
    }
  }
}

void BitWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    WriteBits((value & 0x7F) | 0x80, 8);
    value >>= 7;
  }
  WriteBits(value, 8);
}

void BitWriter::WriteBytes(ByteSpan bytes) {
  for (uint8_t b : bytes) {
    WriteBits(b, 8);
  }
}

void BitWriter::AlignToByte() {
  if (acc_bits_ != 0) {
    WriteBits(0, 8 - acc_bits_);
  }
}

Bytes BitWriter::Finish() {
  AlignToByte();
  Bytes out = std::move(buf_);
  buf_.clear();
  acc_ = 0;
  acc_bits_ = 0;
  return out;
}

StatusOr<uint64_t> BitReader::ReadBits(int num_bits) {
  if (num_bits < 0 || num_bits > 64) {
    return Status::InvalidArgument("ReadBits: num_bits out of [0,64]");
  }
  if (static_cast<size_t>(num_bits) > bits_remaining()) {
    return Status::OutOfRange("ReadBits: past end of stream");
  }
  uint64_t result = 0;
  int got = 0;
  while (got < num_bits) {
    size_t byte_idx = bit_pos_ >> 3;
    int bit_in_byte = static_cast<int>(bit_pos_ & 7);
    int take = std::min(num_bits - got, 8 - bit_in_byte);
    uint64_t chunk =
        (static_cast<uint64_t>(data_[byte_idx]) >> bit_in_byte) &
        ((uint64_t{1} << take) - 1);
    result |= chunk << got;
    got += take;
    bit_pos_ += static_cast<size_t>(take);
  }
  return result;
}

StatusOr<bool> BitReader::ReadBit() {
  FSYNC_ASSIGN_OR_RETURN(uint64_t v, ReadBits(1));
  return v != 0;
}

StatusOr<uint64_t> BitReader::ReadVarint() {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t byte, ReadBits(8));
    result |= (byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return result;
    }
    shift += 7;
  }
  return Status::DataLoss("ReadVarint: varint longer than 10 bytes");
}

StatusOr<Bytes> BitReader::ReadBytes(size_t n) {
  // `n` is often a peer's number: `n * 8` could wrap to a small count
  // and let `reserve(n)` throw.
  if (n > bits_remaining() / 8) {
    return Status::OutOfRange("ReadBytes: past end of stream");
  }
  Bytes out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t b, ReadBits(8));
    out.push_back(static_cast<uint8_t>(b));
  }
  return out;
}

void BitReader::AlignToByte() {
  bit_pos_ = (bit_pos_ + 7) & ~size_t{7};
  if (bit_pos_ > data_.size() * 8) {
    bit_pos_ = data_.size() * 8;
  }
}

}  // namespace fsx
