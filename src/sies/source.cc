#include "sies/source.h"

#include <cstring>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

Status Source::CreatePsrInto(uint64_t value, uint64_t epoch,
                             uint8_t* out) const {
  static telemetry::Counter* psrs =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_source_psr_total", {{"scheme", "SIES"}});
  psrs->Increment();
  telemetry::ScopedSpan span("psr-encrypt", "source", epoch);
  const crypto::Fp256* fp =
      params_.share_prf == SharePrf::kHmacSha1 ? params_.Fp() : nullptr;
  if (fp != nullptr) {
    crypto::U256 epoch_global =
        cache_ != nullptr
            ? cache_->Global(params_, keys_.global_key, epoch)->key_fp
            : DeriveEpochGlobalKeyFp(*fp, keys_.global_key, epoch);
    crypto::U256 epoch_key =
        DeriveEpochSourceKeyFp(*fp, keys_.source_key, epoch);
    crypto::U256 share = DeriveEpochShareFp(keys_.source_key, epoch);

    auto message = PackMessageFp(params_, value, share);
    if (!message.ok()) return message.status();
    auto ciphertext = EncryptFp(*fp, message.value(), epoch_global, epoch_key);
    if (!ciphertext.ok()) return ciphertext.status();
    ciphertext.value().ToBytesBE(out);  // PsrBytes() == 32 on this path
    return Status::OK();
  }

  crypto::BigUint epoch_global =
      cache_ != nullptr
          ? cache_->Global(params_, keys_.global_key, epoch)->key
          : DeriveEpochGlobalKey(params_, keys_.global_key, epoch);
  crypto::BigUint epoch_key =
      DeriveEpochSourceKey(params_, keys_.source_key, epoch);
  crypto::BigUint share = DeriveEpochShare(params_, keys_.source_key, epoch);

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
