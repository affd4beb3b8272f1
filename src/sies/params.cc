#include "sies/params.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/secure.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/prime.h"
#include "sies/field.h"

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

// Chunk width for the batch derivations: even, so the two-lane kernel
// pairs every key of a full chunk, and small enough that the per-chunk
// digest scratch (kDeriveChunk x 32 B) stays on the stack. The chunking
// is invisible in the output — each digest is an independent HMAC.
constexpr size_t kDeriveChunk = 64;

}  // namespace

template <typename F>
typename F::Element DeriveEpochGlobalKey(const F& field,
                                         const crypto::PrfKey& global_key,
                                         uint64_t epoch) {
  // HM256(K, t) mod p is the k_{i,t} derivation applied to K.
  typename F::Element k = DeriveEpochSourceKey(field, global_key, epoch);
  if (F::IsZero(k)) k = F::FromUint64(1);  // K_t must be invertible
  return k;
}

template <typename F>
typename F::Element DeriveEpochSourceKey(const F& field,
                                         const crypto::PrfKey& source_key,
                                         uint64_t epoch) {
  uint8_t prf[32];
  crypto::EpochPrfSha256Into(source_key, epoch, prf);
  typename F::Element k = field.Reduce(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  return k;
}

template <typename F>
typename F::Element DeriveEpochShare(const F& field,
                                     const crypto::PrfKey& source_key,
                                     uint64_t epoch) {
  if (field.params().share_prf == SharePrf::kHmacSha1) {
    uint8_t prf[20];
    crypto::EpochPrfSha1Into(source_key, epoch, prf);
    typename F::Element share = F::FromBytes(prf, sizeof(prf));
    common::SecureZero(prf, sizeof(prf));
    return share;
  }
  uint8_t input[kShareInputBytes];
  ShareInput(epoch, input);
  uint8_t prf[32];
  crypto::HmacSha256Into(source_key, crypto::ByteView(input, sizeof(input)),
                         prf);
  typename F::Element share = F::FromBytes(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  return share;
}

template <typename F>
void DeriveEpochSourceKeysBatch(const F& field, const crypto::PrfKey* keys,
                                size_t count, uint64_t epoch,
                                typename F::Element* out) {
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    crypto::EpochPrfSha256Batch(take, keys + off, epoch, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] = field.Reduce(digests + 32 * j, 32);
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

template <typename F>
void DeriveEpochSharesBatch(const F& field, const crypto::PrfKey* keys,
                            size_t count, uint64_t epoch,
                            typename F::Element* out) {
  if (field.params().share_prf == SharePrf::kHmacSha1) {
    // HM1(k_i, t), a chunk at a time through the HM1 batch, which takes
    // key pointers.
    const crypto::PrfKey* chunk[kDeriveChunk];
    uint8_t digests[kDeriveChunk * 20];
    for (size_t off = 0; off < count; off += kDeriveChunk) {
      const size_t take = std::min(kDeriveChunk, count - off);
      for (size_t j = 0; j < take; ++j) chunk[j] = &keys[off + j];
      crypto::EpochPrfSha1Batch(take, chunk, epoch, digests);
      for (size_t j = 0; j < take; ++j) {
        out[off + j] = F::FromBytes(digests + 20 * j, 20);
      }
    }
    common::SecureZero(digests, sizeof(digests));
    return;
  }
  // HM256(k_i, "share" || t): the same input for every key in the batch.
  uint8_t input[kShareInputBytes];
  ShareInput(epoch, input);
  const crypto::ByteView msg(input, sizeof(input));
  uint8_t digests[kDeriveChunk * 32];
  for (size_t off = 0; off < count; off += kDeriveChunk) {
    const size_t take = std::min(kDeriveChunk, count - off);
    crypto::PrfSha256Batch(take, keys + off, msg, digests);
    for (size_t j = 0; j < take; ++j) {
      out[off + j] = F::FromBytes(digests + 32 * j, 32);
    }
  }
  common::SecureZero(digests, sizeof(digests));
}

#define SIES_INSTANTIATE_DERIVATIONS(F)                                    \
  template F::Element DeriveEpochGlobalKey(const F&, const crypto::PrfKey&, \
                                           uint64_t);                      \
  template F::Element DeriveEpochSourceKey(const F&, const crypto::PrfKey&, \
                                           uint64_t);                      \
  template F::Element DeriveEpochShare(const F&, const crypto::PrfKey&,     \
                                       uint64_t);                          \
  template void DeriveEpochSourceKeysBatch(const F&, const crypto::PrfKey*, \
                                           size_t, uint64_t, F::Element*); \
  template void DeriveEpochSharesBatch(const F&, const crypto::PrfKey*,     \
                                       size_t, uint64_t, F::Element*);
SIES_INSTANTIATE_DERIVATIONS(FixedField)
SIES_INSTANTIATE_DERIVATIONS(BigField)
#undef SIES_INSTANTIATE_DERIVATIONS

}  // namespace sies::core
