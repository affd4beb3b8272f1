#include "sies/source.h"

#include <cstring>

#include "telemetry/metrics.h"

namespace sies::core {

Source::Source(Params params, uint32_t index, SourceKeys keys)
    : Source(std::move(params), index, crypto::PrfKey(keys.global_key),
             crypto::PrfKey(keys.source_key)) {
  SecureWipe(keys.global_key);
  SecureWipe(keys.source_key);
}

Source::Source(Params params, uint32_t index, crypto::PrfKey global_key,
               crypto::PrfKey source_key)
    : params_(std::move(params)),
      index_(index),
      global_key_(std::move(global_key)),
      source_key_(std::move(source_key)) {
  params_.Fp();  // warm the fixed-width context before any sharing
}

Status Source::CreatePsrInto(uint64_t value, uint64_t epoch,
                             uint8_t* out) const {
  static telemetry::Counter* psrs =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_source_psr_total", {{"scheme", "SIES"}});
  psrs->Increment();
  const crypto::Fp256* fp =
      params_.share_prf == SharePrf::kHmacSha1 ? params_.Fp() : nullptr;
  if (fp != nullptr) {
    crypto::U256 epoch_global =
        cache_ != nullptr
            ? cache_->Global(params_, global_key_, epoch)->key_fp
            : DeriveEpochGlobalKeyFp(*fp, global_key_, epoch);
    crypto::U256 epoch_key = DeriveEpochSourceKeyFp(*fp, source_key_, epoch);
    crypto::U256 share = DeriveEpochShareFp(source_key_, epoch);

    auto message = PackMessageFp(params_, value, share);
    if (!message.ok()) return message.status();
    auto ciphertext = EncryptFp(*fp, message.value(), epoch_global, epoch_key);
    if (!ciphertext.ok()) return ciphertext.status();
    ciphertext.value().ToBytesBE(out);  // PsrBytes() == 32 on this path
    return Status::OK();
  }

  crypto::BigUint epoch_global =
      cache_ != nullptr
          ? cache_->Global(params_, global_key_, epoch)->key
          : DeriveEpochGlobalKey(params_, global_key_, epoch);
  crypto::BigUint epoch_key = DeriveEpochSourceKey(params_, source_key_, epoch);
  crypto::BigUint share = DeriveEpochShare(params_, source_key_, epoch);

  auto message = PackMessage(params_, value, share);
  if (!message.ok()) return message.status();
  auto ciphertext = Encrypt(params_, message.value(), epoch_global, epoch_key);
  if (!ciphertext.ok()) return ciphertext.status();
  auto psr = SerializePsr(params_, ciphertext.value());
  if (!psr.ok()) return psr.status();
  std::memcpy(out, psr.value().data(), psr.value().size());
  return Status::OK();
}

StatusOr<Bytes> Source::CreatePsr(uint64_t value, uint64_t epoch) const {
  Bytes out(params_.PsrBytes());
  SIES_RETURN_IF_ERROR(CreatePsrInto(value, epoch, out.data()));
  return out;
}

}  // namespace sies::core
