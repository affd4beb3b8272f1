// System-wide parameters and key material for SIES (paper Section IV-A,
// setup phase).
//
// The querier generates a random 20-byte global key K, one 20-byte key
// k_i per source, and a public 32-byte prime p. (K, k_i, p) is registered
// at source i; aggregators receive only p.
#ifndef SIES_SIES_PARAMS_H_
#define SIES_SIES_PARAMS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/biguint.h"
#include "crypto/fp256.h"
#include "crypto/hmac.h"

namespace sies::core {

/// Which PRF derives the secret shares ss_{i,t}.
enum class SharePrf {
  /// HMAC-SHA1, 20-byte shares — the paper's configuration.
  kHmacSha1,
  /// HMAC-SHA256, 32-byte shares — a hardened profile for deployments
  /// that exclude SHA-1 entirely; requires a prime of >= 328 bits
  /// (pass prime_bits >= 352 to MakeParams).
  kHmacSha256,
};

/// Public system parameters (known to every party, including aggregators).
struct Params {
  /// Number of sources N.
  uint32_t num_sources = 0;
  /// Width of the value field in m_{i,t}; 4 bytes by default, 8 when the
  /// application needs SUMs beyond 2^32 - 1 (paper footnote 1).
  size_t value_bytes = 4;
  /// PRF family for the shares (fixes share_bytes).
  SharePrf share_prf = SharePrf::kHmacSha1;
  /// Width of a secret share: 20 bytes (HM1) or 32 bytes (HM256).
  size_t share_bytes = 20;
  /// Zero padding between value and share: ceil(log2 N) bits, absorbing
  /// carry from summing N shares (paper Figure 2).
  size_t pad_bits = 0;
  /// The public prime modulus p (32 bytes in the reference configuration).
  crypto::BigUint prime;

  /// Ciphertext/PSR width in bytes (the width of p).
  size_t PsrBytes() const { return (prime.BitLength() + 7) / 8; }
  /// Bit offset of the value field inside m_{i,t}.
  size_t ValueShiftBits() const { return 8 * share_bytes + pad_bits; }
  /// Largest per-source value that keeps Σv below the field capacity even
  /// if every source reports it.
  uint64_t MaxSafeValue() const;

  /// Checks internal consistency (field layout fits under p, etc.).
  Status Validate() const;

  /// Fixed-width context for `prime`, or nullptr when the prime is not
  /// exactly 256 bits. sies/field.h's WithField reads it to pick the
  /// field (DESIGN.md §7). The context (Barrett constant) is computed on
  /// first call and cached; copies of a Params share the cached context.
  /// The first call is not thread-safe — parties that share a Params
  /// across threads call Fp() once at construction.
  const crypto::Fp256* Fp() const;

  /// Internal Fp() cache slot; tracks the prime it was computed for so a
  /// post-construction `params.prime = ...` assignment invalidates it.
  struct FpSlot {
    crypto::BigUint prime;
    std::optional<crypto::Fp256> fp;
  };
  mutable std::shared_ptr<const FpSlot> fp_slot_;
};

/// Creates parameters for `num_sources` sources: computes the padding and
/// generates a fresh prime of `prime_bits` bits (default 256 = 32 bytes).
/// `seed` drives the prime search deterministically.
StatusOr<Params> MakeParams(uint32_t num_sources, uint64_t seed,
                            size_t value_bytes = 4, size_t prime_bits = 256,
                            SharePrf share_prf = SharePrf::kHmacSha1);

/// Secret key material held by the querier: K plus all k_i. This and
/// SourceKeys are the provisioning format (raw key bytes, what
/// sies/provisioning serializes); a Querier or Source schedules them
/// into crypto::PrfKey at construction and keeps only the schedules.
struct QuerierKeys {
  Bytes global_key;              ///< K, shared with every source
  std::vector<Bytes> source_keys;  ///< k_i, one per source
};

/// Secret key material registered at source i.
struct SourceKeys {
  Bytes global_key;  ///< K
  Bytes source_key;  ///< k_i
};

/// Setup phase: derives all long-term keys from `master_seed` via
/// HMAC_DRBG (20 bytes each, the size the paper uses to make a random
/// guess negligible).
QuerierKeys GenerateKeys(const Params& params, const Bytes& master_seed);

/// Extracts the key material to register at source `index`.
StatusOr<SourceKeys> KeysForSource(const QuerierKeys& keys, uint32_t index);

// --- Temporal key derivation (initialization phase, shared by source and
// --- querier so it lives here). Each derivation is one template over the
// --- field it computes in (sies/field.h: FixedField or BigField),
// --- instantiated for both; F::Element is that field's element type.
// --- Every derivation runs from the long-term key's schedule
// --- (crypto::PrfKey, built once per key by the party that holds it):
// --- two SHA compressions per PRF instead of four, same bytes as the
// --- one-shot HMAC of the raw key. PRF outputs pass through wiped stack
// --- buffers, so on FixedField a source's whole PSR creation allocates
// --- nothing.

/// K_t = HM256(K, t), reduced into [1, p): the multiplicative key must be
/// nonzero for decryption to exist. The reduction is deterministic, so
/// source and querier always agree.
template <typename F>
typename F::Element DeriveEpochGlobalKey(const F& field,
                                         const crypto::PrfKey& global_key,
                                         uint64_t epoch);

/// k_{i,t} = HM256(k_i, t), reduced into [0, p).
template <typename F>
typename F::Element DeriveEpochSourceKey(const F& field,
                                         const crypto::PrfKey& source_key,
                                         uint64_t epoch);

/// ss_{i,t}: HM1(k_i, t) (20 bytes) or HM256(k_i, "share" || t)
/// (32 bytes) depending on the field's params.share_prf, as an integer.
/// The SHA-256 variant is domain-separated from the k_{i,t} derivation,
/// which also uses HM256 on the same key.
template <typename F>
typename F::Element DeriveEpochShare(const F& field,
                                     const crypto::PrfKey& source_key,
                                     uint64_t epoch);

// --- Batched derivation. Each batch is bit-identical to calling its
// --- single-key counterpart above once per key — same PRF bytes
// --- (crypto::EpochPrfSha256Batch, crypto::EpochPrfSha1Batch and
// --- crypto::PrfSha256Batch run the HMACs two lanes at a time on
// --- SHA-NI, one at a time on the portable body), same reduction — so
// --- cache contents never depend on whether the batch path ran. Pinned
// --- by tests/sies/field_test.cc, tests/sies/epoch_key_cache_test.cc,
// --- tests/crypto/sha256x8_test and tests/crypto/hmac_lanes_test.

/// k_{i,t} of the `count` keys at `keys` into out[0..count).
template <typename F>
void DeriveEpochSourceKeysBatch(const F& field, const crypto::PrfKey* keys,
                                size_t count, uint64_t epoch,
                                typename F::Element* out);

/// ss_{i,t} of the `count` keys at `keys` into out[0..count), through the
/// share PRF the field's params name.
template <typename F>
void DeriveEpochSharesBatch(const F& field, const crypto::PrfKey* keys,
                            size_t count, uint64_t epoch,
                            typename F::Element* out);

}  // namespace sies::core

#endif  // SIES_SIES_PARAMS_H_
