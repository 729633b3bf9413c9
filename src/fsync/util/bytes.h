// Byte-buffer aliases and small helpers shared across the library.
#ifndef FSYNC_UTIL_BYTES_H_
#define FSYNC_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fsx {

/// Owned byte buffer. All file contents and wire payloads use this type.
using Bytes = std::vector<uint8_t>;

/// Non-owning read-only view of bytes.
using ByteSpan = std::span<const uint8_t>;

/// Converts a string to an owned byte buffer.
inline Bytes ToBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// A read-only view of a string's bytes (no copy).
inline ByteSpan AsBytes(const std::string& s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

/// Converts bytes to a std::string (bytes are copied verbatim).
inline std::string ToString(ByteSpan b) {
  return std::string(b.begin(), b.end());
}

/// Appends `src` to `dst`.
inline void Append(Bytes& dst, ByteSpan src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace fsx

#endif  // FSYNC_UTIL_BYTES_H_
