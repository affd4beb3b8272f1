#include "sies/source.h"

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
  params_.Fp();  // build the fixed-width context before any sharing
}

Status Source::CreatePsrInto(uint64_t value, uint64_t epoch,
                             uint8_t* out) const {
  static telemetry::Counter* psrs =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_source_psr_total", {{"scheme", "SIES"}});
  psrs->Increment();
  return WithField(params_, [&](const auto& field) -> Status {
    const auto epoch_global =
        cache_ != nullptr ? cache_->Global(field, global_key_, epoch)->key
                          : DeriveEpochGlobalKey(field, global_key_, epoch);
    const auto epoch_key = DeriveEpochSourceKey(field, source_key_, epoch);
    const auto share = DeriveEpochShare(field, source_key_, epoch);

    auto message = PackMessage(field, value, share);
    if (!message.ok()) return message.status();
    auto ciphertext = Encrypt(field, message.value(), epoch_global, epoch_key);
    if (!ciphertext.ok()) return ciphertext.status();
    field.Store(ciphertext.value(), out);
    return Status::OK();
  });
}

StatusOr<Bytes> Source::CreatePsr(uint64_t value, uint64_t epoch) const {
  Bytes out(params_.PsrBytes());
  SIES_RETURN_IF_ERROR(CreatePsrInto(value, epoch, out.data()));
  return out;
}

}  // namespace sies::core
