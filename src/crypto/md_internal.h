// Merkle-Damgard plumbing shared by SHA-1 and SHA-256 (FIPS 180-4):
// both hash 64-byte blocks of big-endian 32-bit words and end with the
// same padding (0x80, zeros, 64-bit big-endian bit length). Internal to
// crypto/; the streaming hashers and the heap-free HMACs (crypto/hmac.*,
// also the batch kernel's per-lane path) all pad through here, so they
// cannot disagree on a length boundary.
#ifndef SIES_CRYPTO_MD_INTERNAL_H_
#define SIES_CRYPTO_MD_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/secure.h"

namespace sies::crypto::md_internal {

/// A compression body: absorbs `nblocks` consecutive 64-byte blocks into
/// `state` (5 words for SHA-1, 8 for SHA-256).
using CompressFn = void (*)(uint32_t* state, const uint8_t* blocks,
                            size_t nblocks);

constexpr size_t kBlockSize = 64;

/// The longest tail that fits one final block with its padding (the
/// 0x80 byte and the 8-byte length).
constexpr size_t kMaxOneBlockTail = kBlockSize - 9;

/// Pads the `len` (<= kMaxOneBlockTail) tail bytes already at the front
/// of `block` into the final block of a `total_len`-byte message, in
/// place.
inline void PadOneBlock(uint8_t block[kBlockSize], size_t len,
                        uint64_t total_len) {
  block[len] = 0x80;
  std::memset(block + len + 1, 0, kBlockSize - 8 - len - 1);
  StoreBigEndian64(total_len * 8, block + kBlockSize - 8);
}

/// Absorbs the last `len` (< 64) message bytes at `tail` plus the
/// padding of a `total_len`-byte message, in one pass over a stack
/// block that is wiped before return (it may hold key-derived bytes).
inline void Finish(CompressFn compress, uint32_t* state, const uint8_t* tail,
                   size_t len, uint64_t total_len) {
  uint8_t block[2 * kBlockSize];
  const size_t nblocks = len < kBlockSize - 8 ? 1 : 2;
  if (len > 0) std::memcpy(block, tail, len);
  block[len] = 0x80;
  std::memset(block + len + 1, 0, nblocks * kBlockSize - 8 - len - 1);
  StoreBigEndian64(total_len * 8, block + nblocks * kBlockSize - 8);
  compress(state, block, nblocks);
  common::SecureZero(block, sizeof(block));
}

/// Absorbs all of `msg` (full blocks straight from the caller's buffer,
/// the rest through Finish) after `prefix_len` bytes already compressed
/// into `state`.
inline void AbsorbAll(CompressFn compress, uint32_t* state,
                      const uint8_t* msg, size_t len, uint64_t prefix_len) {
  const size_t full = len / kBlockSize;
  if (full > 0) compress(state, msg, full);
  Finish(compress, state, msg + full * kBlockSize, len % kBlockSize,
         prefix_len + len);
}

/// Writes `words` state words big-endian (the digest).
inline void StoreWords(const uint32_t* state, size_t words, uint8_t* out) {
  for (size_t i = 0; i < words; ++i) StoreBigEndian32(state[i], out + 4 * i);
}

}  // namespace sies::crypto::md_internal

#endif  // SIES_CRYPTO_MD_INTERNAL_H_
