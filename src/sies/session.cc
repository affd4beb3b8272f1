#include "sies/session.h"

namespace sies::core {

std::vector<Channel> ActiveChannels(const Query& query) {
  std::vector<Channel> channels;
  for (Channel ch :
       {Channel::kSum, Channel::kSumSquares, Channel::kCount}) {
    if (UsesChannel(query.aggregate, ch)) channels.push_back(ch);
  }
  return channels;
}

StatusOr<EpochOutcome> AssembleOutcome(const Query& query,
                                       uint32_t num_sources, uint64_t sum,
                                       uint64_t sum_squares, uint64_t count,
                                       bool verified,
                                       std::vector<uint32_t> contributors) {
  EpochOutcome outcome;
  outcome.verified = verified;
  outcome.contributors = std::move(contributors);
  outcome.coverage =
      num_sources == 0
          ? 0.0
          : static_cast<double>(outcome.contributors.size()) /
                static_cast<double>(num_sources);
  if (!verified) return outcome;  // result is meaningless if unverified
  // COUNT-dependent aggregates over zero matches report value 0.
  if (count == 0 && query.aggregate != Aggregate::kSum &&
      query.aggregate != Aggregate::kCount) {
    outcome.result.value = 0.0;
    outcome.result.count = 0;
    return outcome;
  }
  auto result = CombineChannels(query, sum, sum_squares, count);
  if (!result.ok()) return result.status();
  outcome.result = result.value();
  return outcome;
}

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
