// HMAC (RFC 2104 / FIPS 198-1) over the from-scratch SHA family, plus the
// paper's two PRF aliases:
//
//   HM1(K, t)   = HMAC-SHA1(K, t)    -> 20-byte output (secret shares)
//   HM256(K, t) = HMAC-SHA256(K, t)  -> 32-byte output (temporal keys)
//
// The paper treats HMAC as a PRF keyed by a long-term secret and applied
// to the epoch number t; EpochPrf* below encode exactly that usage.
//
// The *Into forms are the hot path every party's epoch derivation runs
// on: they write the tag into a caller buffer, touch no heap, pad each
// hash in one pass and compress through the process's dispatched SHA
// body (SHA-NI where the CPU has it; crypto/cpu_features.h). The
// Bytes-returning forms are thin wrappers over them — same bytes.
//
// Secret hygiene: every key-derived intermediate (padded key block,
// ipad/opad, inner digest, hash state) lives on the stack and is
// zeroized before these functions return; callers own the returned tag
// and must SecureWipe / SecureZero it (or hold it in crypto::SecureBytes)
// when it is itself key material, e.g. K_t or ss_{i,t} derivations.
// Enforced by scripts/lint_secrets.py.
#ifndef SIES_CRYPTO_HMAC_H_
#define SIES_CRYPTO_HMAC_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/md_internal.h"

namespace sies::crypto {

/// Borrowed byte range (no ownership, no copy) for the heap-free and
/// batch APIs.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t len = 0;

  ByteView() = default;
  ByteView(const uint8_t* d, size_t l) : data(d), len(l) {}
  // NOLINTNEXTLINE(google-explicit-constructor): adapter by design.
  ByteView(const Bytes& b) : data(b.data()), len(b.size()) {}
};

/// HMAC-SHA1 of `message` under `key` (20-byte tag).
Bytes HmacSha1(const Bytes& key, const Bytes& message);

/// HMAC-SHA256 of `message` under `key` (32-byte tag).
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// HM1(key, t): the paper's SHA-1 PRF applied to epoch `t`
/// (t is encoded as an 8-byte big-endian integer).
Bytes EpochPrfSha1(const Bytes& key, uint64_t epoch);

/// HM256(key, t): the paper's SHA-256 PRF applied to epoch `t`.
Bytes EpochPrfSha256(const Bytes& key, uint64_t epoch);

/// HmacSha1 writing the 20-byte tag into `out`; no heap allocation.
void HmacSha1Into(ByteView key, ByteView message, uint8_t out[20]);

/// HmacSha256 writing the 32-byte tag into `out`; no heap allocation.
void HmacSha256Into(ByteView key, ByteView message, uint8_t out[32]);

/// EpochPrfSha1 writing the 20-byte tag into `out`; no heap allocation.
void EpochPrfSha1Into(ByteView key, uint64_t epoch, uint8_t out[20]);

/// EpochPrfSha256 writing the 32-byte tag into `out`; no heap allocation.
void EpochPrfSha256Into(ByteView key, uint64_t epoch, uint8_t out[32]);

namespace hmac_internal {

/// HMAC with the compression body pinned (sha1_internal /
/// sha256_internal::CompressPortable or CompressShaNi): the forced-kernel
/// test hooks and the batch kernel's per-lane path.
void HmacSha1With(md_internal::CompressFn compress, ByteView key,
                  ByteView message, uint8_t out[20]);
void HmacSha256With(md_internal::CompressFn compress, ByteView key,
                    ByteView message, uint8_t out[32]);

}  // namespace hmac_internal

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_HMAC_H_
