// Endian-safe scalar (de)serialization.
//
// Binary file formats in neuroprint (NIfTI-1, the group-matrix container,
// the index snapshot and journal) are little-endian on disk. On a
// little-endian host the helpers std::memcpy the value's bytes, which
// are already its little-endian encoding; elsewhere they shift one byte
// at a time through the same-width unsigned integer (std::bit_cast), so
// the bytes on disk are the same on every host. Neither path performs a
// misaligned or type-punned load, so the I/O paths stay clean under UBSan
// and on strict-alignment targets.
//
// GCC 12 at -O2 does not merge the byte loops into moves (it emits an
// 8-iteration shift-and-store loop per double), which is why the
// little-endian branch exists. The array overloads encode or decode a
// whole run of values with one call, and the appending ones grow the
// buffer once per call rather than once per byte.

#ifndef NEUROPRINT_UTIL_ENDIAN_H_
#define NEUROPRINT_UTIL_ENDIAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <type_traits>
#include <vector>

namespace neuroprint {
namespace internal {

template <std::size_t N>
struct UintBytes;
template <>
struct UintBytes<1> {
  using type = std::uint8_t;
};
template <>
struct UintBytes<2> {
  using type = std::uint16_t;
};
template <>
struct UintBytes<4> {
  using type = std::uint32_t;
};
template <>
struct UintBytes<8> {
  using type = std::uint64_t;
};

template <typename T>
concept EncodableScalar =
    (std::is_integral_v<T> || std::is_floating_point_v<T>) && sizeof(T) <= 8;

}  // namespace internal

/// Encodes `value` as sizeof(T) little-endian bytes at `dst`.
template <internal::EncodableScalar T>
inline void WriteLE(T value, std::uint8_t* dst) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &value, sizeof(T));
  } else {
    using U = typename internal::UintBytes<sizeof(T)>::type;
    const U bits = std::bit_cast<U>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
}

/// Decodes sizeof(T) little-endian bytes at `src` into a T.
template <internal::EncodableScalar T>
inline T ReadLE(const std::uint8_t* src) {
  if constexpr (std::endian::native == std::endian::little) {
    T value;
    std::memcpy(&value, src, sizeof(T));
    return value;
  } else {
    using U = typename internal::UintBytes<sizeof(T)>::type;
    U bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bits = static_cast<U>(bits | static_cast<U>(static_cast<U>(src[i])
                                                  << (8 * i)));
    }
    return std::bit_cast<T>(bits);
  }
}

/// Encodes `count` values as count * sizeof(T) little-endian bytes at
/// `dst` (the array form of WriteLE).
template <internal::EncodableScalar T>
inline void WriteLE(const T* values, std::size_t count, std::uint8_t* dst) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, values, count * sizeof(T));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      WriteLE(values[i], dst + i * sizeof(T));
    }
  }
}

/// Decodes count * sizeof(T) little-endian bytes at `src` into `values`
/// (the array form of ReadLE).
template <internal::EncodableScalar T>
inline void ReadLE(const std::uint8_t* src, std::size_t count, T* values) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values, src, count * sizeof(T));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      values[i] = ReadLE<T>(src + i * sizeof(T));
    }
  }
}

/// Decodes sizeof(T) big-endian bytes at `src` into a T (byte-swapped
/// NIfTI files).
template <internal::EncodableScalar T>
inline T ReadBE(const std::uint8_t* src) {
  using U = typename internal::UintBytes<sizeof(T)>::type;
  U bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bits = static_cast<U>(bits << 8) | static_cast<U>(src[i]);
  }
  return std::bit_cast<T>(bits);
}

/// Appends the little-endian encoding of `value` to a byte buffer.
template <internal::EncodableScalar T, typename Byte>
inline void AppendLE(std::vector<Byte>& out, T value) {
  static_assert(sizeof(Byte) == 1);
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  WriteLE(value, reinterpret_cast<std::uint8_t*>(out.data() + offset));
}

/// Appends the little-endian encoding of `count` values to a byte buffer
/// with one resize.
template <internal::EncodableScalar T, typename Byte>
inline void AppendLE(std::vector<Byte>& out, const T* values,
                     std::size_t count) {
  static_assert(sizeof(Byte) == 1);
  const std::size_t offset = out.size();
  out.resize(offset + count * sizeof(T));
  WriteLE(values, count, reinterpret_cast<std::uint8_t*>(out.data() + offset));
}

/// Reads one little-endian scalar from a binary stream. Returns false on a
/// short read (stream failbit is set, `value` untouched).
template <internal::EncodableScalar T>
inline bool ReadLE(std::istream& in, T& value) {
  std::uint8_t bytes[sizeof(T)];
  // Casting uint8_t* to char* for istream::read is well-defined (both are
  // byte types); the decode itself never type-puns.
  if (!in.read(reinterpret_cast<char*>(bytes), sizeof(T))) return false;
  value = ReadLE<T>(bytes);
  return true;
}

}  // namespace neuroprint

#endif  // NEUROPRINT_UTIL_ENDIAN_H_
