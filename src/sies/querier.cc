#include "sies/querier.h"

#include <numeric>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

namespace {
// O(1) probes per evaluation (nothing inside the per-source loops), so
// the warm fig6a hot path stays within the <2% disabled-telemetry
// budget guarded by bench/telemetry_overhead.
struct QuerierMetrics {
  telemetry::Counter* evaluations;
  telemetry::Counter* unverified;
  static const QuerierMetrics& Get() {
    static QuerierMetrics m{
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_querier_evaluations_total", {{"scheme", "SIES"}}),
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_querier_unverified_total", {{"scheme", "SIES"}})};
    return m;
  }
};
}  // namespace

Querier::Querier(Params params, QuerierKeys keys)
    : Querier(std::move(params), crypto::PrfKey(keys.global_key),
              crypto::ScheduleKeys(keys.source_keys)) {
  SecureWipe(keys.global_key);
  for (Bytes& key : keys.source_keys) SecureWipe(key);
}

Querier::Querier(Params params, crypto::PrfKey global_key,
                 std::vector<crypto::PrfKey> source_keys)
    : params_(std::move(params)),
      global_key_(std::move(global_key)),
      source_keys_(std::move(source_keys)),
      cache_(std::make_shared<EpochKeyCache>()) {
  params_.Fp();  // warm the fixed-width context before any sharing
  psr_bytes_ = params_.PsrBytes();
  all_sources_.resize(params_.num_sources);
  std::iota(all_sources_.begin(), all_sources_.end(), 0u);
}

StatusOr<Evaluation> Querier::Evaluate(
    const Bytes& final_psr, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  return EvaluateCore(final_psr.data(), final_psr.size(), epoch,
                      participating);
}

StatusOr<Evaluation> Querier::EvaluateCore(
    const uint8_t* body, size_t body_len, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  const QuerierMetrics& metrics = QuerierMetrics::Get();
  metrics.evaluations->Increment();
  telemetry::ScopedSpan span("evaluate-decrypt", "querier", epoch);
  const crypto::Fp256* fp =
      params_.share_prf == SharePrf::kHmacSha1 ? params_.Fp() : nullptr;

  if (fp != nullptr) {
    auto ciphertext = ParsePsrFp(params_, *fp, body, body_len);
    if (!ciphertext.ok()) return ciphertext.status();
    for (uint32_t index : participating) {
      if (index >= source_keys_.size()) {
        return Status::NotFound("participating index out of range");
      }
    }

    auto global = cache_->Global(params_, global_key_, epoch);
    auto per_source =
        cache_->Sources(params_, source_keys_, epoch, pool_);

    // Σ k_{i,t} mod p and the plain integer Σ ss_{i,t} over the
    // participants. Shares are < 2^160 and N < 2^32, so the share sum
    // stays below 2^192 — no carry out of a U256.
    crypto::U256 key_sum;
    crypto::U256 share_sum;
    for (uint32_t index : participating) {
      key_sum = fp->Add(key_sum, per_source->keys_fp[index]);
      crypto::U256::Add(share_sum, per_source->shares_fp[index], &share_sum);
    }

    crypto::U256 message =
        DecryptFp(*fp, ciphertext.value(), global->key_inv_fp, key_sum);
    auto unpacked = UnpackMessageFp(params_, message);
    if (!unpacked.ok()) {
      // A value-field overflow in a genuine run is a configuration error,
      // but an adversarial PSR can also produce it; report as unverified.
      metrics.unverified->Increment();
      return Evaluation{0, false};
    }
    Evaluation eval;
    eval.sum = unpacked.value().sum;
    eval.verified =
        crypto::U256::ConstantTimeEqual(unpacked.value().share_sum, share_sum);
    if (!eval.verified) metrics.unverified->Increment();
    return eval;
  }

  auto ciphertext = ParsePsr(params_, body, body_len);
  if (!ciphertext.ok()) return ciphertext.status();
  for (uint32_t index : participating) {
    if (index >= source_keys_.size()) {
      return Status::NotFound("participating index out of range");
    }
  }

  auto global = cache_->Global(params_, global_key_, epoch);
  auto per_source =
      cache_->Sources(params_, source_keys_, epoch, pool_);

  // Σ k_{i,t} and Σ ss_{i,t} over the participating sources.
  crypto::BigUint key_sum;
  crypto::BigUint share_sum;
  for (uint32_t index : participating) {
    key_sum = crypto::BigUint::ModAdd(key_sum, per_source->keys[index],
                                      params_.prime)
                  .value();
    share_sum = crypto::BigUint::Add(share_sum, per_source->shares[index]);
  }

  auto message = DecryptWithInverse(params_, ciphertext.value(),
                                    global->key_inv, key_sum);
  if (!message.ok()) return message.status();
  auto unpacked = UnpackMessage(params_, message.value());
  if (!unpacked.ok()) {
    // A value-field overflow in a genuine run is a configuration error,
    // but an adversarial PSR can also produce it; report as unverified.
    metrics.unverified->Increment();
    return Evaluation{0, false};
  }

  Evaluation eval;
  eval.sum = unpacked.value().sum;
  eval.verified =
      crypto::BigUint::ConstantTimeEqual(unpacked.value().share_sum, share_sum);
  if (!eval.verified) metrics.unverified->Increment();
  return eval;
}

StatusOr<Evaluation> Querier::Evaluate(const Bytes& final_psr,
                                       uint64_t epoch) const {
  return EvaluateCore(final_psr.data(), final_psr.size(), epoch,
                      all_sources_);
}

StatusOr<Evaluation> Querier::EvaluateSlice(
    const uint8_t* psr, size_t len, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  return EvaluateCore(psr, len, epoch, participating);
}

void Querier::WarmEpoch(uint64_t epoch) const {
  WarmEpoch(epoch, /*use_pool=*/true);
}

void Querier::WarmEpoch(uint64_t epoch, bool use_pool) const {
  cache_->Global(params_, global_key_, epoch);
  cache_->Sources(params_, source_keys_, epoch,
                  use_pool ? pool_ : nullptr);
}

StatusOr<Evaluation> Querier::EvaluateWire(
    const Bytes& final_payload, uint64_t epoch,
    std::vector<uint32_t>* contributors) const {
  if (final_payload.size() < psr_bytes_) {
    return Status::InvalidArgument("wire payload shorter than its PSR");
  }
  const size_t field_bytes = final_payload.size() - psr_bytes_;
  const uint8_t* psr = final_payload.data() + field_bytes;
  if (field_bytes == 0) {
    if (contributors != nullptr) {
      contributors->assign(all_sources_.begin(), all_sources_.end());
    }
    return EvaluateCore(psr, psr_bytes_, epoch, all_sources_);
  }
  auto set = ContributorSet::Parse({0, params_.num_sources},
                                   final_payload.data(), field_bytes);
  if (!set.ok()) return set.status();
  std::vector<uint32_t> local;
  std::vector<uint32_t>& participating =
      contributors != nullptr ? *contributors : local;
  participating = set.value().Indices();
  return EvaluateCore(psr, psr_bytes_, epoch, participating);
}

StatusOr<WireEvaluation> Querier::EvaluateWire(const Bytes& final_payload,
                                               uint64_t epoch) const {
  WireEvaluation out;
  auto eval = EvaluateWire(final_payload, epoch, &out.contributors);
  if (!eval.ok()) return eval.status();
  out.sum = eval.value().sum;
  out.verified = eval.value().verified;
  return out;
}

}  // namespace sies::core
