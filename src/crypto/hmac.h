// HMAC (RFC 2104 / FIPS 198-1) over the from-scratch SHA family, plus the
// paper's two PRF aliases:
//
//   HM1(K, t)   = HMAC-SHA1(K, t)    -> 20-byte output (secret shares)
//   HM256(K, t) = HMAC-SHA256(K, t)  -> 32-byte output (temporal keys)
//
// The paper treats HMAC as a PRF keyed by a long-term secret and applied
// to the epoch number t; EpochPrf* below encode exactly that usage.
//
// Key schedule (RFC 2104 §4). An HMAC's first compression of each hash
// absorbs only K0 ^ ipad, resp. K0 ^ opad, so the two chaining values
// after them are constants of the key. A PrfKey computes them once per
// long-term key; every MAC keyed by it then costs two compressions
// (one for a message of at most 55 bytes, one for the outer hash)
// instead of four. Every party holds its long-term keys only in this
// form, and the one-shot forms below are "schedule, then MAC from the
// schedule", so the two cannot disagree.
//
// The *Into forms are the hot path every party's epoch derivation runs
// on: they write the tag into a caller buffer and touch no heap. Where
// the process runs the SHA-NI body (crypto/cpu_features.h), a message
// of at most 55 bytes — every epoch PRF — runs the hash's HMAC lane
// kernel (sha1_internal / sha256_internal::HmacShaNi): the inner digest
// goes to the outer compression in registers. Every other MAC pads each
// hash in place on the stack and compresses through the dispatched
// body. The Bytes-returning forms are thin wrappers — same bytes.
//
// The PRF batches (EpochPrfSha1Batch, PrfSha256Batch,
// EpochPrfSha256Batch) are the querier's N PRFs of one epoch: many keys,
// one shared message. On the SHA-NI body a one-block message runs two
// lanes at a time through the same lane kernel; anything else runs one
// PRF at a time on the dispatched body. HmacSha256Batch is a per-pair
// loop of HmacSha256Into.
//
// Secret hygiene: a PrfKey is key-equivalent (its chaining values yield
// every epoch's k_{i,t} and ss_{i,t}); it wipes itself on destruction and
// on every move, and has no printable form. On the lane kernel the inner
// digest and hash states stay in registers; every key-derived stack
// intermediate (padded key block, inner digest, hash state, a padded
// message) is zeroized before these functions return, once per call for
// a batch. Callers own the returned tag and must SecureWipe / SecureZero
// it (or hold it in crypto::SecureBytes) when it is itself key material,
// e.g. K_t or ss_{i,t} derivations. Enforced by scripts/lint_secrets.py.
#ifndef SIES_CRYPTO_HMAC_H_
#define SIES_CRYPTO_HMAC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// The HMAC chaining values of one hash under one key: the state after
/// compressing K0 ^ ipad (`inner`) and after K0 ^ opad (`outer`).
template <size_t kWords>
struct HmacChain {
  uint32_t inner[kWords];
  uint32_t outer[kWords];
};

class PrfKey;

namespace hmac_internal {
/// A PrfKey built with both compression bodies pinned: the constructor's
/// implementation, and the forced-kernel test hook.
PrfKey ScheduleWith(md_internal::CompressFn sha1,
                    md_internal::CompressFn sha256, ByteView key);
}  // namespace hmac_internal

/// A long-term key scheduled for both PRFs: its HMAC-SHA1 and
/// HMAC-SHA256 chaining values (104 bytes), computed once at
/// construction. Holds no raw key bytes. Wiped on destruction and on
/// every move; a copy is a second key-equivalent value with the same
/// guarantee.
class PrfKey {
 public:
  /// Schedules `key` (any length; keys longer than a block are hashed
  /// first, as RFC 2104 prescribes). Four compressions.
  explicit PrfKey(ByteView key);

  PrfKey(const PrfKey&) = default;
  PrfKey& operator=(const PrfKey&) = default;
  PrfKey(PrfKey&& other) noexcept;
  PrfKey& operator=(PrfKey&& other) noexcept;
  ~PrfKey();

  const HmacChain<5>& sha1() const { return sha1_; }
  const HmacChain<8>& sha256() const { return sha256_; }

 private:
  PrfKey() = default;
  friend PrfKey hmac_internal::ScheduleWith(md_internal::CompressFn,
                                            md_internal::CompressFn,
                                            ByteView);

  HmacChain<5> sha1_;
  HmacChain<8> sha256_;
};

/// Schedules every key in `keys`, index-aligned: what a party holding
/// many long-term keys keeps in place of their bytes.
std::vector<PrfKey> ScheduleKeys(const std::vector<Bytes>& keys);

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
void HmacSha1Into(const PrfKey& key, ByteView message, uint8_t out[20]);

/// HmacSha256 writing the 32-byte tag into `out`; no heap allocation.
void HmacSha256Into(ByteView key, ByteView message, uint8_t out[32]);
void HmacSha256Into(const PrfKey& key, ByteView message, uint8_t out[32]);

/// EpochPrfSha1 writing the 20-byte tag into `out`; no heap allocation.
void EpochPrfSha1Into(ByteView key, uint64_t epoch, uint8_t out[20]);
void EpochPrfSha1Into(const PrfKey& key, uint64_t epoch, uint8_t out[20]);

/// EpochPrfSha256 writing the 32-byte tag into `out`; no heap allocation.
void EpochPrfSha256Into(ByteView key, uint64_t epoch, uint8_t out[32]);
void EpochPrfSha256Into(const PrfKey& key, uint64_t epoch, uint8_t out[32]);

/// HM1(*keys[i], t) for `n` scheduled keys sharing one epoch `t` — the
/// batched form of EpochPrfSha1Into: two lanes at a time on SHA-NI, one
/// PRF at a time on the portable body. Takes key pointers, so a caller
/// can batch any subset of its keys. Tag i at `out + 20 * i`.
void EpochPrfSha1Batch(size_t n, const PrfKey* const* keys, uint64_t epoch,
                       uint8_t* out);

/// HM256(keys[i], msg) for `n` scheduled keys sharing one message — the
/// batched form of HmacSha256Into(const PrfKey&, ...): two lanes at a
/// time on SHA-NI when `msg` fits one block, one PRF at a time
/// otherwise. Tag i at `out + 32 * i`.
void PrfSha256Batch(size_t n, const PrfKey* keys, ByteView msg,
                    uint8_t* out);

/// HM256(keys[i], t) for `n` scheduled keys sharing one epoch `t` — the
/// batched form of EpochPrfSha256Into: PrfSha256Batch over the 8-byte
/// encoding of t. Tag i at `out + 32 * i`.
void EpochPrfSha256Batch(size_t n, const PrfKey* keys, uint64_t epoch,
                         uint8_t* out);

/// HMAC-SHA256 over `n` raw (key, message) pairs, one HmacSha256Into per
/// pair: tag i = HMAC-SHA256(keys[i], msgs[i]) at `out + 32 * i`.
void HmacSha256Batch(size_t n, const ByteView* keys, const ByteView* msgs,
                     uint8_t* out);

namespace hmac_internal {

/// HMAC with the compression body pinned (sha1_internal /
/// sha256_internal::CompressPortable or CompressShaNi): the forced-kernel
/// test hooks. CompressShaNi runs a message of at most 55 bytes on the
/// lane kernel, as the dispatched forms do. The ByteView-key forms
/// schedule the key with the same body first.
void HmacSha1With(md_internal::CompressFn compress, ByteView key,
                  ByteView message, uint8_t out[20]);
void HmacSha256With(md_internal::CompressFn compress, ByteView key,
                    ByteView message, uint8_t out[32]);
void HmacSha1With(md_internal::CompressFn compress, const PrfKey& key,
                  ByteView message, uint8_t out[20]);
void HmacSha256With(md_internal::CompressFn compress, const PrfKey& key,
                    ByteView message, uint8_t out[32]);

/// The PRF batches with the body pinned: two lanes at a time for
/// CompressShaNi over a one-block message, a loop of single PRFs for any
/// other body or a longer message.
void EpochPrfSha1BatchWith(md_internal::CompressFn compress, size_t n,
                           const PrfKey* const* keys, uint64_t epoch,
                           uint8_t* out);
void PrfSha256BatchWith(md_internal::CompressFn compress, size_t n,
                        const PrfKey* keys, ByteView msg, uint8_t* out);

}  // namespace hmac_internal

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_HMAC_H_
