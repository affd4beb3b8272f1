#include "predicate/compiler.h"

namespace sies::predicate {

using core::Channel;
using engine::BucketSpec;
using engine::ChannelSpec;

StatusOr<ScaledBand> QuantizeBand(const core::Band& band,
                                  uint32_t scale_pow10) {
  if (band.lo > band.hi) {
    return Status::InvalidArgument(
        "band bounds are inverted: lo > hi selects nothing");
  }
  auto lo = core::ScaledBandBound(band.lo, scale_pow10);
  if (!lo.ok()) return lo.status();
  auto hi = core::ScaledBandBound(band.hi, scale_pow10);
  if (!hi.ok()) return hi.status();
  if (hi.value() > kMaxDomainValue) {
    return Status::InvalidArgument(
        "scaled band exceeds the 2^62 dyadic domain");
  }
  ScaledBand scaled;
  scaled.lo = lo.value();
  scaled.hi = hi.value();
  return scaled;
}

StatusOr<std::vector<ChannelSpec>> CompileChannelSpecs(
    const core::Query& query) {
  std::vector<ChannelSpec> specs;
  if (!query.band.has_value()) {
    for (Channel kind : core::ActiveChannels(query)) {
      specs.push_back(ChannelSpec::Canonical(query, kind));
    }
    return specs;
  }
  auto scaled = QuantizeBand(*query.band, query.scale_pow10);
  if (!scaled.ok()) return scaled.status();
  auto cover = DyadicDecompose(scaled.value().lo, scaled.value().hi);
  if (!cover.ok()) return cover.status();
  // Per kind, one bucketed channel per interval of the canonical cover.
  // The bucket replaces the band: membership in the (disjoint, exact)
  // cover is membership in the band, so Σ over the kind's buckets of
  // the channel sums equals the band query's direct channel sum.
  for (Channel kind : core::ActiveChannels(query)) {
    for (const DyadicInterval& interval : cover.value()) {
      ChannelSpec spec = ChannelSpec::Canonical(query, kind);
      BucketSpec bucket;
      bucket.field = query.band->field;
      bucket.scale_pow10 = query.scale_pow10;
      bucket.interval = interval;
      spec.bucket = bucket;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

uint32_t MaxChannelsFor(const core::Query& query) {
  const uint32_t kinds = core::ChannelCount(query.aggregate);
  if (!query.band.has_value()) return kinds;
  auto scaled = QuantizeBand(*query.band, query.scale_pow10);
  if (!scaled.ok()) return kinds;  // uncompilable: admission rejects it
  return kinds *
         MaxIntervalsForDomain(scaled.value().hi - scaled.value().lo + 1);
}

}  // namespace sies::predicate
