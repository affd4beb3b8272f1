#include "sies/aggregator.h"

#include <optional>

#include "telemetry/metrics.h"

namespace sies::core {

namespace {

void CountMerge() {
  static telemetry::Counter* merges =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  merges->Increment();
}

// The one summation loop of every merge: Σ PSR mod p over the `count`
// PSRs that `psr_at(i)` returns, skipping the children whose message
// never arrived (std::nullopt), stored PsrBytes wide at `out`. One field
// addition per arrived child.
template <typename F, typename PsrAt>
Status SumPsrs(const F& field, size_t count, PsrAt psr_at, uint8_t* out) {
  typename F::Element sum{};
  for (size_t i = 0; i < count; ++i) {
    const std::optional<std::span<const uint8_t>> psr = psr_at(i);
    if (!psr) continue;
    auto next = ParsePsr(field, psr->data(), psr->size());
    if (!next.ok()) return next.status();
    sum = field.Add(sum, next.value());
  }
  field.Store(sum, out);
  return Status::OK();
}

}  // namespace

StatusOr<Bytes> Aggregator::Merge(const std::vector<Bytes>& child_psrs) const {
  if (child_psrs.empty()) {
    return Status::InvalidArgument("nothing to merge");
  }
  CountMerge();
  Bytes out(params_.PsrBytes());
  SIES_RETURN_IF_ERROR(WithField(params_, [&](const auto& field) {
    return SumPsrs(
        field, child_psrs.size(),
        [&](size_t i) { return std::optional(std::span(child_psrs[i])); },
        out.data());
  }));
  return out;
}

Status Aggregator::MergeContiguous(const uint8_t* psrs, size_t count,
                                   uint8_t* out) const {
  if (count == 0) return Status::InvalidArgument("nothing to merge");
  CountMerge();
  const size_t width = params_.PsrBytes();
  return WithField(params_, [&](const auto& field) {
    return SumPsrs(
        field, count,
        [&](size_t i) {
          return std::optional(std::span(psrs + i * width, width));
        },
        out);
  });
}

StatusOr<Bytes> Aggregator::MergeWire(
    std::span<const net::SourceRange> child_ranges,
    const std::vector<Bytes>& children, size_t channels) const {
  const size_t width = params_.PsrBytes();
  const size_t body_bytes = channels * width;
  Bytes out;
  SIES_RETURN_IF_ERROR(
      AppendMergedField(child_ranges, children, body_bytes, out));
  CountMerge();
  const size_t field_bytes = out.size();
  out.resize(field_bytes + body_bytes);
  const Status summed = WithField(params_, [&](const auto& field) -> Status {
    for (size_t ch = 0; ch < channels; ++ch) {
      // Channel ch of a child sits at the same offset from the end of
      // every envelope, whatever the width of the child's contributor
      // field; an empty slot is a child whose message never arrived.
      auto psr_at = [&](size_t i) -> std::optional<std::span<const uint8_t>> {
        const Bytes& child = children[i];
        if (child.empty()) return std::nullopt;
        return std::span(
            child.data() + (child.size() - body_bytes) + ch * width, width);
      };
      SIES_RETURN_IF_ERROR(SumPsrs(field, children.size(), psr_at,
                                   out.data() + field_bytes + ch * width));
    }
    return Status::OK();
  });
  if (!summed.ok()) return summed;
  return out;
}

}  // namespace sies::core
