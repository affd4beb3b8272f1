#include "cmt/cmt.h"

#include "common/rng.h"
#include "common/secure.h"
#include "crypto/hmac_drbg.h"

namespace sies::cmt {

StatusOr<Params> MakeParams(uint32_t num_sources, uint64_t seed,
                            size_t modulus_bits) {
  if (num_sources == 0) {
    return Status::InvalidArgument("num_sources must be >= 1");
  }
  if (modulus_bits < 96) {
    return Status::InvalidArgument("modulus too small to hold sums safely");
  }
  Params params;
  params.num_sources = num_sources;
  Xoshiro256 rng(seed);
  // Any modulus works; pick a random odd one with the top bit set so the
  // ciphertext width is exactly modulus_bits/8 bytes.
  params.modulus = crypto::BigUint::RandomWithBits(modulus_bits, rng);
  if (!params.modulus.IsOdd()) {
    params.modulus = crypto::BigUint::Add(params.modulus, crypto::BigUint(1));
  }
  return params;
}

QuerierKeys GenerateKeys(const Params& params, const Bytes& master_seed) {
  Bytes personalization = {'c', 'm', 't', '-', 's', 'e', 't', 'u', 'p'};
  crypto::HmacDrbg drbg(master_seed, personalization);
  QuerierKeys keys;
  keys.source_keys.reserve(params.num_sources);
  for (uint32_t i = 0; i < params.num_sources; ++i) {
    keys.source_keys.push_back(drbg.Generate(20));
  }
  return keys;
}

crypto::BigUint DeriveEpochKey(const Params& params,
                               const crypto::PrfKey& source_key,
                               uint64_t epoch) {
  uint8_t prf[20];
  crypto::EpochPrfSha1Into(source_key, epoch, prf);
  crypto::BigUint raw = crypto::BigUint::FromBytes(prf, sizeof(prf));
  common::SecureZero(prf, sizeof(prf));
  crypto::BigUint k = crypto::BigUint::Mod(raw, params.modulus).value();
  raw.Wipe();
  return k;
}

Source::Source(Params params, Bytes source_key)
    : params_(std::move(params)), key_(source_key) {
  SecureWipe(source_key);
}

Querier::Querier(Params params, QuerierKeys keys)
    : params_(std::move(params)),
      source_keys_(crypto::ScheduleKeys(keys.source_keys)) {
  for (Bytes& key : keys.source_keys) SecureWipe(key);
}

StatusOr<Bytes> Source::CreateCiphertext(uint64_t value,
                                         uint64_t epoch) const {
  crypto::BigUint v(value);
  if (v >= params_.modulus) {
    return Status::OutOfRange("value must be < n");
  }
  crypto::BigUint k = DeriveEpochKey(params_, key_, epoch);
  auto c = crypto::BigUint::ModAdd(v, k, params_.modulus);
  if (!c.ok()) return c.status();
  return c.value().ToBytes(params_.CiphertextBytes());
}

StatusOr<Bytes> Aggregator::Merge(const std::vector<Bytes>& children) const {
  if (children.empty()) return Status::InvalidArgument("nothing to merge");
  crypto::BigUint sum;
  for (const Bytes& child : children) {
    if (child.size() != params_.CiphertextBytes()) {
      return Status::InvalidArgument("ciphertext has wrong width");
    }
    auto merged = crypto::BigUint::ModAdd(
        sum, crypto::BigUint::FromBytes(child), params_.modulus);
    if (!merged.ok()) return merged.status();
    sum = std::move(merged).value();
  }
  return sum.ToBytes(params_.CiphertextBytes());
}

StatusOr<uint64_t> Querier::Decrypt(
    const Bytes& final_ciphertext, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  if (final_ciphertext.size() != params_.CiphertextBytes()) {
    return Status::InvalidArgument("ciphertext has wrong width");
  }
  crypto::BigUint sum = crypto::BigUint::FromBytes(final_ciphertext);
  crypto::BigUint key_sum;
  for (uint32_t index : participating) {
    if (index >= source_keys_.size()) {
      return Status::NotFound("participating index out of range");
    }
    key_sum = crypto::BigUint::ModAdd(
                  key_sum,
                  DeriveEpochKey(params_, source_keys_[index], epoch),
                  params_.modulus)
                  .value();
  }
  auto plain = crypto::BigUint::ModSub(sum, key_sum, params_.modulus);
  if (!plain.ok()) return plain.status();
  if (!plain.value().FitsUint64()) {
    return Status::OutOfRange("decrypted sum exceeds 64 bits");
  }
  return plain.value().Low64();
}

}  // namespace sies::cmt
