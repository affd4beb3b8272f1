#include "sies/params.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/secure.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/prime.h"

namespace sies::core {

namespace {
/// Smallest number of bits that can absorb the carry of summing
/// `num_sources` share values: ceil(log2 N).
size_t PadBitsFor(uint32_t num_sources) {
  size_t bits = 0;
  while ((uint64_t{1} << bits) < num_sources) ++bits;
  return bits;
}
}  // namespace

uint64_t Params::MaxSafeValue() const {
  if (num_sources == 0) return 0;
  uint64_t field_max = value_bytes >= 8
                           ? UINT64_MAX
                           : (uint64_t{1} << (8 * value_bytes)) - 1;
  return field_max / num_sources;
}

const crypto::Fp256* Params::Fp() const {
  std::shared_ptr<const FpSlot> slot = fp_slot_;
  if (slot == nullptr || slot->prime != prime) {
    auto fresh = std::make_shared<FpSlot>();
    fresh->prime = prime;
    if (prime.BitLength() == 256) {
      auto fp = crypto::Fp256::Create(prime);
      if (fp.ok()) fresh->fp.emplace(std::move(fp).value());
    }
    fp_slot_ = fresh;
    slot = std::move(fresh);
  }
  return slot->fp ? &*slot->fp : nullptr;
}

Status Params::Validate() const {
  if (num_sources == 0) {
    return Status::InvalidArgument("num_sources must be >= 1");
  }
  if (value_bytes != 4 && value_bytes != 8) {
    return Status::InvalidArgument("value_bytes must be 4 or 8");
  }
  size_t expected_share =
      share_prf == SharePrf::kHmacSha1 ? 20 : 32;
  if (share_bytes != expected_share) {
    return Status::InvalidArgument(
        "share_bytes must match the share PRF's digest size");
  }
  if (prime.IsZero()) return Status::InvalidArgument("prime not set");
  // The whole sum (value field + pad + share field) must stay below p:
  // Σm_i < 2^(value_bits + pad + share_bits) requires at least one extra
  // bit of headroom under p.
  size_t plaintext_bits = 8 * value_bytes + pad_bits + 8 * share_bytes;
  if (plaintext_bits + 1 > prime.BitLength()) {
    return Status::InvalidArgument(
        "message layout does not fit below the prime (reduce N or enlarge "
        "the prime)");
  }
  if ((uint64_t{1} << pad_bits) < num_sources) {
    return Status::InvalidArgument("pad_bits too small for num_sources");
  }
  return Status::OK();
}

StatusOr<Params> MakeParams(uint32_t num_sources, uint64_t seed,
                            size_t value_bytes, size_t prime_bits,
                            SharePrf share_prf) {
  Params params;
  params.num_sources = num_sources;
  params.value_bytes = value_bytes;
  params.share_prf = share_prf;
  params.share_bytes = share_prf == SharePrf::kHmacSha1 ? 20 : 32;
  params.pad_bits = PadBitsFor(num_sources);
  Xoshiro256 rng(seed);
  params.prime = crypto::GeneratePrime(prime_bits, rng);
  SIES_RETURN_IF_ERROR(params.Validate());
  return params;
}

QuerierKeys GenerateKeys(const Params& params, const Bytes& master_seed) {
  Bytes personalization = {'s', 'i', 'e', 's', '-', 's', 'e', 't', 'u', 'p'};
  crypto::HmacDrbg drbg(master_seed, personalization);
  QuerierKeys keys;
  keys.global_key = drbg.Generate(20);
  keys.source_keys.reserve(params.num_sources);
  for (uint32_t i = 0; i < params.num_sources; ++i) {
    keys.source_keys.push_back(drbg.Generate(20));
  }
  return keys;
}

StatusOr<SourceKeys> KeysForSource(const QuerierKeys& keys, uint32_t index) {
  if (index >= keys.source_keys.size()) {
    return Status::NotFound("no such source index");
  }
  return SourceKeys{keys.global_key, keys.source_keys[index]};
}

namespace {

// The hardened profile's domain-separated share input "share" || t,
// distinct from the plain HM256(k_i, t) that derives k_{i,t}.
constexpr size_t kShareInputBytes = 13;

void ShareInput(uint64_t epoch, uint8_t out[kShareInputBytes]) {
  std::memcpy(out, "share", 5);
  StoreBigEndian64(epoch, out + 5);
}

}  // namespace

crypto::BigUint DeriveEpochGlobalKey(const Params& params,
                                     const crypto::PrfKey& global_key,
                                     uint64_t epoch) {
  // HM256(K, t) mod p is the k_{i,t} derivation applied to K.
  crypto::BigUint k = DeriveEpochSourceKey(params, global_key, epoch);
  if (k.IsZero()) k = crypto::BigUint(1);  // K_t must be invertible
  return k;
}

crypto::BigUint DeriveEpochSourceKey(const Params& params,
                                     const crypto::PrfKey& source_key,
                                     uint64_t epoch) {
  uint8_t prf[32];
  crypto::EpochPrfSha256Into(source_key, epoch, prf);
  crypto::BigUint raw = crypto::BigUint::FromBytes(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  crypto::BigUint k = crypto::BigUint::Mod(raw, params.prime).value();
  raw.Wipe();
  return k;
}

crypto::BigUint DeriveEpochShare(const Params& params,
                                 const crypto::PrfKey& source_key,
                                 uint64_t epoch) {
  if (params.share_prf == SharePrf::kHmacSha1) {
    return DeriveEpochShare(source_key, epoch);
  }
  uint8_t input[kShareInputBytes];
  ShareInput(epoch, input);
  uint8_t prf[32];
  crypto::HmacSha256Into(source_key, crypto::ByteView(input, sizeof(input)),
                         prf);
  crypto::BigUint share = crypto::BigUint::FromBytes(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  return share;
}

crypto::BigUint DeriveEpochShare(const crypto::PrfKey& source_key,
                                 uint64_t epoch) {
  uint8_t prf[20];
  crypto::EpochPrfSha1Into(source_key, epoch, prf);
  crypto::BigUint share = crypto::BigUint::FromBytes(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  return share;
}

crypto::U256 DeriveEpochGlobalKeyFp(const crypto::Fp256& fp,
                                    const crypto::PrfKey& global_key,
                                    uint64_t epoch) {
  // HM256(K, t) mod p is the k_{i,t} derivation applied to K.
  crypto::U256 k = DeriveEpochSourceKeyFp(fp, global_key, epoch);
  if (k.IsZero()) k = crypto::U256::FromUint64(1);  // K_t must be invertible
  return k;
}

crypto::U256 DeriveEpochSourceKeyFp(const crypto::Fp256& fp,
                                    const crypto::PrfKey& source_key,
                                    uint64_t epoch) {
  uint8_t prf[32];
  crypto::EpochPrfSha256Into(source_key, epoch, prf);
  crypto::U256 k = fp.Reduce(crypto::U256::FromBytesBE(prf, sizeof(prf)));
  common::SecureZero(prf, sizeof(prf));
  return k;
}

crypto::U256 DeriveEpochShareFp(const crypto::PrfKey& source_key,
                                uint64_t epoch) {
  uint8_t prf[20];
  crypto::EpochPrfSha1Into(source_key, epoch, prf);
  crypto::U256 share = crypto::U256::FromBytesBE(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  return share;
}

namespace {

// Chunk width for the batch derivations: even, so the two-lane kernel
// pairs every key of a full chunk, and small enough that the per-chunk
// digest scratch (kDeriveChunk x 32 B) stays on the stack. The chunking
// is invisible in the output — each digest is an independent HMAC.
constexpr size_t kDeriveChunk = 64;

}  // namespace

void DeriveEpochSourceKeysFpBatch(const crypto::Fp256& fp,
                                  const crypto::PrfKey* keys, size_t count,
                                  uint64_t epoch, crypto::U256* out) {
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    crypto::EpochPrfSha256Batch(take, keys + off, epoch, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] =
          fp.Reduce(crypto::U256::FromBytesBE(digests + 32 * j, 32));
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

void DeriveEpochSourceKeysBatch(const Params& params,
                                const crypto::PrfKey* keys, size_t count,
                                uint64_t epoch, crypto::BigUint* out) {
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    crypto::EpochPrfSha256Batch(take, keys + off, epoch, digests);
    for (size_t j = 0; j < take; ++j) {
      crypto::BigUint raw = crypto::BigUint::FromBytes(digests + 32 * j, 32);
      out[off + j] = crypto::BigUint::Mod(raw, params.prime).value();
      raw.Wipe();
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

namespace {

// HM1(k_i, t) of the `count` keys at `keys`, a chunk at a time through
// the HM1 batch (which takes key pointers); `emit(i, digest)` converts
// tag i. The digest scratch is wiped once, after the last chunk.
template <typename Emit>
void EpochSharesHm1Batch(const crypto::PrfKey* keys, size_t count,
                         uint64_t epoch, Emit emit) {
  const crypto::PrfKey* chunk[kDeriveChunk];
  uint8_t digests[kDeriveChunk * 20];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    for (size_t j = 0; j < take; ++j) chunk[j] = &keys[off + j];
    crypto::EpochPrfSha1Batch(take, chunk, epoch, digests);
    for (size_t j = 0; j < take; ++j) emit(off + j, digests + 20 * j);
  }
  common::SecureZero(digests, sizeof(digests));
}

}  // namespace

void DeriveEpochSharesFpBatch(const crypto::PrfKey* keys, size_t count,
                              uint64_t epoch, crypto::U256* out) {
  EpochSharesHm1Batch(keys, count, epoch,
                      [out](size_t i, const uint8_t* digest) {
                        out[i] = crypto::U256::FromBytesBE(digest, 20);
                      });
}

void DeriveEpochSharesHm1Batch(const crypto::PrfKey* keys, size_t count,
                               uint64_t epoch, crypto::BigUint* out) {
  EpochSharesHm1Batch(keys, count, epoch,
                      [out](size_t i, const uint8_t* digest) {
                        out[i] = crypto::BigUint::FromBytes(digest, 20);
                      });
}

void DeriveEpochSharesHm256Batch(const crypto::PrfKey* keys, size_t count,
                                 uint64_t epoch, crypto::BigUint* out) {
  // Same domain-separated input as DeriveEpochShare's HM256 branch,
  // identical for every source in the batch.
  uint8_t input[kShareInputBytes];
  ShareInput(epoch, input);
  const crypto::ByteView msg(input, sizeof(input));

  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    crypto::PrfSha256Batch(take, keys + off, msg, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] = crypto::BigUint::FromBytes(digests + 32 * j, 32);
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

}  // namespace sies::core
