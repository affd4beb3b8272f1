// Batched SHA-256 / HMAC-SHA256 (the batched PRF kernel).
//
// SIES epoch setup derives one HM256 output per source (k_{i,t} =
// HMAC-SHA256(k_i, t)), so a cold start at N sources is N independent
// short HMACs. Three transforms run a batch, all bit-identical:
//
//   kShaNi   one lane at a time through the SHA-NI compression body —
//            the fastest per HMAC wherever the CPU has SHA extensions
//   kAvx2    8 lanes in lockstep: each __m256i holds one SHA-256 word
//            per lane, so eight compressions run for the price of one
//            sequential pass (for AVX2 hosts without SHA-NI)
//   kScalar  one lane at a time through the portable compression body
//
// kShaNi and kScalar are the scalar HMAC (crypto/hmac.h) per lane;
// the AVX2 transform performs the same FIPS 180-4 round schedule with
// the lanes transposed. They are pinned against each other by
// differential tests (tests/crypto/sha256x8_test.cc).
//
// The PRF batches take scheduled keys (crypto::PrfKey): every transform
// starts each lane from the key's HMAC-SHA256 chaining values, so an
// epoch PRF is two compressions per lane on all three. The raw-key
// HMAC batch schedules its keys on the same transform first.
//
// AVX2 lanes may have different ("ragged") message lengths: each lane
// keeps its own block count and an inactive lane's state is preserved
// via a per-block blend mask, so digests never depend on what the other
// lanes are doing.
//
// Dispatch is runtime (crypto/cpu_features.h): kAuto resolves to kShaNi
// where `Cpu().sha`, else kAvx2 where `Cpu().avx2`, else kScalar; the
// SIES_NATIVE environment variable can force the portable body. See
// docs/PERFORMANCE.md for the policy.
//
// Secret hygiene: all lane state, padded key blocks, chaining values
// and inner digests are zeroized (common::SecureZero) before the batch
// entry points return; callers own `out` and must wipe it when the
// digests are key material. Enforced by scripts/lint_secrets.py.
#ifndef SIES_CRYPTO_SHA256X8_H_
#define SIES_CRYPTO_SHA256X8_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/hmac.h"  // ByteView, PrfKey

namespace sies::crypto {

/// Which transform the batch entry points run. kAuto follows Cpu():
/// SHA-NI > AVX2 > portable.
enum class Sha256Kernel { kAuto, kScalar, kAvx2, kShaNi };

/// Hashes 8 independent messages (any lengths, including 0) into
/// `out[i]` = SHA-256(msgs[i]).
void Sha256x8(const ByteView msgs[8], uint8_t out[8][32]);

/// HMAC-SHA256 over 8 independent (key, message) pairs:
/// `out[i]` = HMAC-SHA256(keys[i], msgs[i]).
void HmacSha256x8(const ByteView keys[8], const ByteView msgs[8],
                  uint8_t out[8][32]);

/// HMAC-SHA256 over `n` (key, message) pairs, grouped into 8-wide lanes
/// internally (a final partial group runs with inactive lanes). Digest
/// i is written at `out + 32 * i`; `out` must have room for 32*n bytes.
void HmacSha256Batch(size_t n, const ByteView* keys, const ByteView* msgs,
                     uint8_t* out);

/// HM256(keys[i], msg) for `n` scheduled keys sharing one message — the
/// batched form of HmacSha256Into(const PrfKey&, ...). Digest i at
/// `out + 32 * i`.
void PrfSha256Batch(size_t n, const PrfKey* keys, ByteView msg,
                    uint8_t* out);

/// HM256(keys[i], t) for `n` scheduled keys sharing one epoch `t` — the
/// batched form of EpochPrfSha256Into (crypto/hmac.h). Digest i at
/// `out + 32 * i`.
void EpochPrfSha256Batch(size_t n, const PrfKey* keys, uint64_t epoch,
                         uint8_t* out);

namespace sha256x8_internal {

/// True when `kernel` can run on this machine (raw CPUID, ignoring the
/// SIES_NATIVE override — see cpu_features.h::CpuDetected).
bool KernelAvailable(Sha256Kernel kernel);

/// Test hooks: the public entry points with the transform pinned.
/// Calling with an unavailable kernel is a programming error (aborts).
void Sha256x8WithKernel(Sha256Kernel kernel, const ByteView msgs[8],
                        uint8_t out[8][32]);
void HmacSha256BatchWithKernel(Sha256Kernel kernel, size_t n,
                               const ByteView* keys, const ByteView* msgs,
                               uint8_t* out);
void PrfSha256BatchWithKernel(Sha256Kernel kernel, size_t n,
                              const PrfKey* keys, ByteView msg,
                              uint8_t* out);

}  // namespace sha256x8_internal

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_SHA256X8_H_
