// Byte-string utilities: the protocols in this library move opaque byte
// vectors (ciphertexts, digests, SEALs) between parties; these helpers
// provide encoding, constant-time comparison, and integer (de)serialization.
#ifndef SIES_COMMON_BYTES_H_
#define SIES_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sies {

/// Canonical byte-string type used throughout the library.
using Bytes = std::vector<uint8_t>;

/// Lowercase hex encoding of `data`.
std::string ToHex(const Bytes& data);
/// Lowercase hex encoding of an arbitrary buffer.
std::string ToHex(const uint8_t* data, size_t len);

/// Parses lowercase/uppercase hex. Fails on odd length or non-hex chars.
StatusOr<Bytes> FromHex(std::string_view hex);

/// Constant-time equality; always touches every byte of both inputs.
/// Returns false on length mismatch (length is not secret in our protocols).
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);

/// XORs `src` into `dst` (`dst[i] ^= src[i]`). Lengths must match.
Status XorInto(Bytes& dst, const Bytes& src);

// The endian helpers are inline: the SHA compression bodies and the
// PRF padding call them per word.

/// Big-endian store of a 32-bit value into 4 bytes.
inline void StoreBigEndian32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v >> 24);
  out[1] = static_cast<uint8_t>(v >> 16);
  out[2] = static_cast<uint8_t>(v >> 8);
  out[3] = static_cast<uint8_t>(v);
}
/// Big-endian store of a 64-bit value into 8 bytes.
inline void StoreBigEndian64(uint64_t v, uint8_t* out) {
  StoreBigEndian32(static_cast<uint32_t>(v >> 32), out);
  StoreBigEndian32(static_cast<uint32_t>(v), out + 4);
}
/// Big-endian load of 4 bytes.
inline uint32_t LoadBigEndian32(const uint8_t* in) {
  return (static_cast<uint32_t>(in[0]) << 24) |
         (static_cast<uint32_t>(in[1]) << 16) |
         (static_cast<uint32_t>(in[2]) << 8) | static_cast<uint32_t>(in[3]);
}
/// Big-endian load of 8 bytes.
inline uint64_t LoadBigEndian64(const uint8_t* in) {
  return (static_cast<uint64_t>(LoadBigEndian32(in)) << 32) |
         LoadBigEndian32(in + 4);
}

/// Encodes a uint64 as an 8-byte big-endian byte string (e.g. an epoch
/// number fed to a PRF).
Bytes EncodeUint64(uint64_t v);

/// Concatenates two byte strings.
Bytes Concat(const Bytes& a, const Bytes& b);

/// Overwrites `data` with zeros in a way the optimizer cannot elide,
/// then clears it. Call on buffers that held key material before they
/// go out of scope (provisioning blobs, decrypted keys).
void SecureWipe(Bytes& data);

}  // namespace sies

#endif  // SIES_COMMON_BYTES_H_
