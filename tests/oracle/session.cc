#include "oracle/session.h"

namespace sies::core {

StatusOr<Bytes> SourceSession::CreatePayload(const SensorReading& reading,
                                             uint64_t epoch) const {
  Bytes body;
  for (Channel ch : ActiveChannels(query_)) {
    auto value = ChannelValue(query_, ch, reading);
    if (!value.ok()) return value.status();
    auto psr = source_.CreatePsr(value.value(), SaltedEpoch(epoch, query_.query_id, ch));
    if (!psr.ok()) return psr.status();
    body.insert(body.end(), psr.value().begin(), psr.value().end());
  }
  return body;
}

StatusOr<Bytes> AggregatorSession::Merge(
    std::span<const net::SourceRange> child_ranges,
    const std::vector<Bytes>& children) const {
  return aggregator_.MergeWire(child_ranges, children,
                               ActiveChannels(query_).size());
}

StatusOr<QuerierSession::Outcome> QuerierSession::Evaluate(
    const Bytes& final_payload, uint64_t epoch) const {
  const Params& params = querier_.params();
  const size_t width = params.PsrBytes();
  std::vector<Channel> channels = ActiveChannels(query_);
  auto parsed = ParseWireEnvelope(params, {0, params.num_sources},
                                  final_payload, channels.size());
  if (!parsed.ok()) return parsed.status();
  const Bytes& body = parsed.value().body;
  std::vector<uint32_t> participating =
      parsed.value().contributors.Indices();
  uint64_t sum = 0, sum_squares = 0, count = 0;
  bool verified = true;
  for (size_t i = 0; i < channels.size(); ++i) {
    Bytes slice(body.begin() + i * width, body.begin() + (i + 1) * width);
    auto eval =
        querier_.Evaluate(slice, SaltedEpoch(epoch, query_.query_id, channels[i]),
                          participating);
    if (!eval.ok()) return eval.status();
    verified = verified && eval.value().verified;
    switch (channels[i]) {
      case Channel::kSum:
        sum = eval.value().sum;
        break;
      case Channel::kSumSquares:
        sum_squares = eval.value().sum;
        break;
      case Channel::kCount:
        count = eval.value().sum;
        break;
    }
  }
  return AssembleOutcome(query_, params.num_sources, sum, sum_squares, count,
                         verified, std::move(participating));
}

}  // namespace sies::core
