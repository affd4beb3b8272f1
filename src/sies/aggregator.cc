#include "sies/aggregator.h"

#include <cstring>

#include "telemetry/metrics.h"

namespace sies::core {

StatusOr<Bytes> Aggregator::Merge(const std::vector<Bytes>& child_psrs) const {
  if (child_psrs.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  static telemetry::Counter* merges =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  merges->Increment();
  if (const crypto::Fp256* fp = params_.Fp()) {
    auto acc = ParsePsrFp(params_, *fp, child_psrs[0]);
    if (!acc.ok()) return acc.status();
    crypto::U256 sum = acc.value();
    for (size_t i = 1; i < child_psrs.size(); ++i) {
      auto next = ParsePsrFp(params_, *fp, child_psrs[i]);
      if (!next.ok()) return next.status();
      sum = fp->Add(sum, next.value());
    }
    return sum.ToBytes32();
  }
  auto acc = ParsePsr(params_, child_psrs[0]);
  if (!acc.ok()) return acc.status();
  crypto::BigUint sum = std::move(acc).value();
  for (size_t i = 1; i < child_psrs.size(); ++i) {
    auto next = ParsePsr(params_, child_psrs[i]);
    if (!next.ok()) return next.status();
    auto merged = crypto::BigUint::ModAdd(sum, next.value(), params_.prime);
    if (!merged.ok()) return merged.status();
    sum = std::move(merged).value();
  }
  return SerializePsr(params_, sum);
}

Status Aggregator::MergeContiguous(const uint8_t* psrs, size_t count,
                                   uint8_t* out) const {
  if (count == 0) return Status::InvalidArgument("nothing to merge");
  static telemetry::Counter* merges =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  merges->Increment();
  const size_t width = params_.PsrBytes();
  if (const crypto::Fp256* fp = params_.Fp()) {
    auto acc = ParsePsrFp(params_, *fp, psrs, width);
    if (!acc.ok()) return acc.status();
    crypto::U256 sum = acc.value();
    for (size_t i = 1; i < count; ++i) {
      auto next = ParsePsrFp(params_, *fp, psrs + i * width, width);
      if (!next.ok()) return next.status();
      sum = fp->Add(sum, next.value());
    }
    sum.ToBytesBE(out);  // width == 32 whenever Fp() is non-null
    return Status::OK();
  }
  auto acc = ParsePsr(params_, psrs, width);
  if (!acc.ok()) return acc.status();
  crypto::BigUint sum = std::move(acc).value();
  for (size_t i = 1; i < count; ++i) {
    auto next = ParsePsr(params_, psrs + i * width, width);
    if (!next.ok()) return next.status();
    auto merged = crypto::BigUint::ModAdd(sum, next.value(), params_.prime);
    if (!merged.ok()) return merged.status();
    sum = std::move(merged).value();
  }
  auto serialized = SerializePsr(params_, sum);
  if (!serialized.ok()) return serialized.status();
  std::memcpy(out, serialized.value().data(), serialized.value().size());
  return Status::OK();
}

StatusOr<Bytes> Aggregator::MergeWire(
    std::span<const net::SourceRange> child_ranges,
    const std::vector<Bytes>& children, size_t channels) const {
  const size_t width = params_.PsrBytes();
  const size_t body_bytes = channels * width;
  Bytes out;
  SIES_RETURN_IF_ERROR(
      AppendMergedField(child_ranges, children, body_bytes, out));
  static telemetry::Counter* merges =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  merges->Increment();
  const size_t field_bytes = out.size();
  out.resize(field_bytes + body_bytes);
  // Channel ch of a child sits at the same offset from the end of every
  // envelope, whatever the width of the child's contributor field.
  auto psr_of = [&](const Bytes& child, size_t ch) {
    return child.data() + (child.size() - body_bytes) + ch * width;
  };
  const crypto::Fp256* fp = params_.Fp();
  for (size_t ch = 0; ch < channels; ++ch) {
    uint8_t* merged = out.data() + field_bytes + ch * width;
    if (fp != nullptr) {
      crypto::U256 sum;
      for (const Bytes& child : children) {
        if (child.empty()) continue;
        auto next = ParsePsrFp(params_, *fp, psr_of(child, ch), width);
        if (!next.ok()) return next.status();
        sum = fp->Add(sum, next.value());
      }
      sum.ToBytesBE(merged);  // width == 32 whenever Fp() is non-null
      continue;
    }
    crypto::BigUint sum;
    for (const Bytes& child : children) {
      if (child.empty()) continue;
      auto next = ParsePsr(params_, psr_of(child, ch), width);
      if (!next.ok()) return next.status();
      auto added = crypto::BigUint::ModAdd(sum, next.value(), params_.prime);
      if (!added.ok()) return added.status();
      sum = std::move(added).value();
    }
    auto serialized = SerializePsr(params_, sum);
    if (!serialized.ok()) return serialized.status();
    std::memcpy(merged, serialized.value().data(), width);
  }
  return out;
}

}  // namespace sies::core
