#include "runner/runner.h"

#include <cmath>

#include "crypto/prime.h"
#include "engine/epoch_scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::runner {

// ---------------------------------------------------------------------------
// CMT
// ---------------------------------------------------------------------------

CmtProtocol::CmtProtocol(cmt::Params params, cmt::QuerierKeys keys,
                         const net::Topology& topology, ValueFn values)
    : params_(params),
      topology_(topology),
      aggregator_(params),
      querier_(params, keys),
      values_(std::move(values)) {
  sources_.reserve(topology_.num_sources());
  for (uint32_t i = 0; i < topology_.num_sources(); ++i) {
    sources_.emplace_back(params_, keys.source_keys[i]);
  }
}

StatusOr<Bytes> CmtProtocol::SourceInitialize(net::NodeId id,
                                              uint64_t epoch) {
  auto index = topology_.SourceIndex(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  return sources_[index.value()].CreateCiphertext(value, epoch);
}

StatusOr<Bytes> CmtProtocol::AggregatorMerge(
    net::NodeId, uint64_t, const std::vector<Bytes>& children) {
  return aggregator_.Merge(net::ArrivedPayloads(children));
}

StatusOr<net::EvalOutcome> CmtProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto indices = topology_.SourceIndices(participating);
  if (!indices.ok()) return indices.status();
  auto sum = querier_.Decrypt(final_payload, epoch, indices.value());
  if (!sum.ok()) return sum.status();
  net::EvalOutcome outcome;
  outcome.value = static_cast<double>(sum.value());
  outcome.verified = true;  // CMT cannot verify; it accepts everything
  outcome.exact = true;
  return outcome;
}

// ---------------------------------------------------------------------------
// SECOA_S
// ---------------------------------------------------------------------------

SecoaProtocol::SecoaProtocol(secoa::SealOps ops, secoa::SumParams params,
                             secoa::QuerierKeys keys,
                             const net::Topology& topology, ValueFn values)
    : ops_(ops),
      params_(params),
      topology_(topology),
      aggregator_(ops, params),
      querier_(ops, params, keys),
      values_(std::move(values)) {
  sources_.reserve(topology_.num_sources());
  for (uint32_t i = 0; i < topology_.num_sources(); ++i) {
    sources_.emplace_back(ops_, params_, i, keys.sources[i]);
  }
}

StatusOr<Bytes> SecoaProtocol::SourceInitialize(net::NodeId id,
                                                uint64_t epoch) {
  auto index = topology_.SourceIndex(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  auto psr = sources_[index.value()].CreatePsr(value, epoch);
  if (!psr.ok()) return psr.status();
  return SerializeSumPsr(ops_, psr.value());
}

StatusOr<Bytes> SecoaProtocol::AggregatorMerge(
    net::NodeId id, uint64_t, const std::vector<Bytes>& children) {
  std::vector<secoa::SumPsr> parsed;
  parsed.reserve(children.size());
  for (const Bytes& child : children) {
    if (child.empty()) continue;  // nothing arrived from this child
    auto psr = ParseSumPsr(ops_, params_, child);
    if (!psr.ok()) return psr.status();
    parsed.push_back(std::move(psr).value());
  }
  auto merged = aggregator_.Merge(parsed);
  if (!merged.ok()) return merged.status();
  if (id == topology_.root()) {
    auto finalized = aggregator_.Finalize(merged.value());
    if (!finalized.ok()) return finalized.status();
    return SerializeSumPsr(ops_, finalized.value());
  }
  return SerializeSumPsr(ops_, merged.value());
}

StatusOr<net::EvalOutcome> SecoaProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto psr = ParseSumPsr(ops_, params_, final_payload);
  if (!psr.ok()) return psr.status();
  auto indices = topology_.SourceIndices(participating);
  if (!indices.ok()) return indices.status();
  auto eval = querier_.Evaluate(psr.value(), epoch, indices.value());
  if (!eval.ok()) return eval.status();
  net::EvalOutcome outcome;
  outcome.value = eval.value().estimate;
  outcome.verified = eval.value().verified;
  outcome.exact = false;
  return outcome;
}

// ---------------------------------------------------------------------------
// SECOA_M
// ---------------------------------------------------------------------------

SecoaMaxProtocol::SecoaMaxProtocol(secoa::SealOps ops,
                                   secoa::QuerierKeys keys,
                                   const net::Topology& topology,
                                   ValueFn values)
    : ops_(ops),
      topology_(topology),
      aggregator_(ops),
      querier_(ops, keys),
      values_(std::move(values)) {
  sources_.reserve(topology_.num_sources());
  for (uint32_t i = 0; i < topology_.num_sources(); ++i) {
    sources_.emplace_back(ops_, i, keys.sources[i]);
  }
}

StatusOr<Bytes> SecoaMaxProtocol::SourceInitialize(net::NodeId id,
                                                   uint64_t epoch) {
  auto index = topology_.SourceIndex(id);
  if (!index.ok()) return index.status();
  uint64_t value = values_(index.value(), epoch);
  auto psr = sources_[index.value()].CreatePsr(value, epoch);
  if (!psr.ok()) return psr.status();
  return SerializeMaxPsr(ops_, psr.value());
}

StatusOr<Bytes> SecoaMaxProtocol::AggregatorMerge(
    net::NodeId, uint64_t, const std::vector<Bytes>& children) {
  std::vector<secoa::MaxPsr> parsed;
  parsed.reserve(children.size());
  for (const Bytes& child : children) {
    if (child.empty()) continue;  // nothing arrived from this child
    auto psr = ParseMaxPsr(ops_, child);
    if (!psr.ok()) return psr.status();
    parsed.push_back(std::move(psr).value());
  }
  auto merged = aggregator_.Merge(parsed);
  if (!merged.ok()) return merged.status();
  return SerializeMaxPsr(ops_, merged.value());
}

StatusOr<net::EvalOutcome> SecoaMaxProtocol::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& participating) {
  auto psr = ParseMaxPsr(ops_, final_payload);
  if (!psr.ok()) return psr.status();
  auto indices = topology_.SourceIndices(participating);
  if (!indices.ok()) return indices.status();
  auto eval = querier_.Evaluate(psr.value(), epoch, indices.value());
  if (!eval.ok()) return eval.status();
  net::EvalOutcome outcome;
  outcome.value = static_cast<double>(eval.value().max);
  outcome.verified = eval.value().verified;
  outcome.exact = true;
  return outcome;
}

// ---------------------------------------------------------------------------
// Experiment driver
// ---------------------------------------------------------------------------

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  auto topology =
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout);
  if (!topology.ok()) return topology.status();
  net::Network network(std::move(topology).value());

  workload::TraceConfig trace_config;
  trace_config.num_sources = config.num_sources;
  trace_config.scale_pow10 = config.scale_pow10;
  trace_config.seed = config.seed;
  auto trace = std::make_shared<workload::TraceGenerator>(trace_config);
  ValueFn values = [trace](uint32_t index, uint64_t epoch) {
    return trace->ValueAt(index, epoch);
  };

  Bytes master_seed = EncodeUint64(config.seed);
  std::unique_ptr<net::AggregationProtocol> protocol;
  switch (config.scheme) {
    case Scheme::kSies: {
      auto params = core::MakeParams(config.num_sources, config.seed);
      if (!params.ok()) return params.status();
      auto scheduler = std::make_unique<engine::EpochScheduler>(
          std::make_shared<engine::MultiQueryEngine>(
              params.value(), core::GenerateKeys(params.value(), master_seed)),
          network.topology(), [trace](uint32_t index, uint64_t epoch) {
            return trace->ReadingAt(index, epoch);
          });
      core::Query sum;  // SUM(temperature), query id 0
      sum.scale_pow10 = config.scale_pow10;
      SIES_RETURN_IF_ERROR(scheduler->Admit(sum, 1));
      protocol = std::move(scheduler);
      break;
    }
    case Scheme::kCmt: {
      auto params = cmt::MakeParams(config.num_sources, config.seed);
      if (!params.ok()) return params.status();
      cmt::QuerierKeys keys = cmt::GenerateKeys(params.value(), master_seed);
      protocol = std::make_unique<CmtProtocol>(
          params.value(), std::move(keys), network.topology(), values);
      break;
    }
    case Scheme::kSecoa: {
      Xoshiro256 rng(config.seed);
      auto kp = crypto::GenerateRsaKeyPair(config.rsa_modulus_bits, rng,
                                           config.rsa_public_exponent);
      if (!kp.ok()) return kp.status();
      secoa::SealOps ops(kp.value().public_key);
      secoa::SumParams params;
      params.num_sources = config.num_sources;
      params.j = config.secoa_j;
      params.sketch_seed = config.seed;
      secoa::QuerierKeys keys =
          secoa::GenerateKeys(config.num_sources, master_seed);
      protocol = std::make_unique<SecoaProtocol>(
          ops, params, std::move(keys), network.topology(), values);
      break;
    }
  }

  common::ThreadPool pool(config.threads);
  network.SetThreadPool(&pool);
  protocol->SetThreadPool(&pool);

  if (config.loss_rate > 0.0) {
    Status loss = network.SetLossRate(config.loss_rate, config.seed);
    if (!loss.ok()) return loss;
    network.SetMaxRetries(config.max_retries);
  }

  // Built-in attack, if requested. The concrete adversary also keeps its
  // own event count, surfaced as `adversary_events` so callers can check
  // it against the audit trail.
  std::unique_ptr<net::BitFlipAdversary> bitflip;
  std::unique_ptr<net::ReplayAdversary> replay;
  std::unique_ptr<net::DropAdversary> drop;
  switch (config.adversary) {
    case AdversaryKind::kNone:
      break;
    case AdversaryKind::kTamper:
      // Flip the trailing payload bit: always inside the ciphertext
      // (a partial SIES envelope leads with its contributor field), and
      // low-order, so the tampered PSR stays a residue and is rejected
      // by verification rather than aborting as malformed.
      bitflip = std::make_unique<net::BitFlipAdversary>(
          std::nullopt, /*bit_index=*/0, /*from_end=*/true);
      network.SetAdversary(bitflip.get());
      break;
    case AdversaryKind::kReplay:
      // Epochs run 1..E: capture the first, replay the rest.
      replay = std::make_unique<net::ReplayAdversary>(1);
      network.SetAdversary(replay.get());
      break;
    case AdversaryKind::kDrop:
      drop = std::make_unique<net::DropAdversary>(
          network.topology().sources().front());
      network.SetAdversary(drop.get());
      break;
  }

  ExperimentResult result;
  result.scheme_name = protocol->Name();
  result.epochs = config.epochs;

  static telemetry::Counter* epochs_total =
      telemetry::MetricsRegistry::Global().GetCounter("sies_epochs_total");
  static telemetry::Counter* epochs_unverified =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_epochs_unverified_total");

  CostAccumulator src, agg, qry;
  net::EdgeTraffic sa, aa, aq;
  double error_sum = 0.0;
  double coverage_sum = 0.0;
  for (uint64_t epoch = 1; epoch <= config.epochs; ++epoch) {
    telemetry::ScopedSpan span("epoch", "runner", epoch);
    auto report = network.RunEpoch(*protocol, epoch);
    if (!report.ok()) return report.status();
    const net::EpochReport& r = report.value();
    epochs_total->Increment();
    src.Add(r.source_cpu.MeanSeconds());
    agg.Add(r.aggregator_cpu.MeanSeconds());
    qry.Add(r.querier_cpu.MeanSeconds());
    sa.messages += r.source_to_aggregator.messages;
    sa.bytes += r.source_to_aggregator.bytes;
    aa.messages += r.aggregator_to_aggregator.messages;
    aa.bytes += r.aggregator_to_aggregator.bytes;
    aq.messages += r.aggregator_to_querier.messages;
    aq.bytes += r.aggregator_to_querier.bytes;
    result.retransmits += r.retransmits;
    if (!r.answered) {
      // Graceful degradation: the epoch was swallowed by the radio or
      // the adversary. Record the gap and keep the deployment going.
      ++result.unanswered_epochs;
      continue;
    }
    ++result.answered_epochs;
    coverage_sum += r.coverage;
    if (r.outcome.verified && r.coverage < 1.0) ++result.partial_epochs;
    result.all_verified = result.all_verified && r.outcome.verified;
    if (!r.outcome.verified) {
      ++result.unverified_epochs;
      epochs_unverified->Increment();
    }

    if (r.outcome.has_contributors) {
      // The exact sum over exactly the reported contributors: a verified
      // partial must match it. The engine answers in attribute units
      // (sum / 10^k, core::CombineChannels), so the truth is divided by
      // the same expression and an exact answer still reads 0.0.
      uint64_t exact = 0;
      for (net::NodeId node : r.outcome.contributors) {
        auto index = network.topology().SourceIndex(node);
        if (!index.ok()) return index.status();
        exact += trace->ValueAt(index.value(), epoch);
      }
      if (exact > 0) {
        const double truth = static_cast<double>(exact) /
                             std::pow(10.0, config.scale_pow10);
        error_sum += std::abs(r.outcome.value - truth) / truth;
      }
    } else {
      workload::EpochSnapshot snap = Snapshot(*trace, epoch);
      if (snap.exact_sum > 0) {
        error_sum += std::abs(r.outcome.value -
                              static_cast<double>(snap.exact_sum)) /
                     static_cast<double>(snap.exact_sum);
      }
    }
  }
  auto spread = [](const CostAccumulator& acc) {
    return CostSpread{acc.MinSeconds(), acc.MaxSeconds(),
                      acc.StdDevSeconds()};
  };
  result.source_cpu_seconds = src.MeanSeconds();
  result.aggregator_cpu_seconds = agg.MeanSeconds();
  result.querier_cpu_seconds = qry.MeanSeconds();
  result.source_cpu_spread = spread(src);
  result.aggregator_cpu_spread = spread(agg);
  result.querier_cpu_spread = spread(qry);
  result.source_to_aggregator_bytes = sa.MeanBytes();
  result.aggregator_to_aggregator_bytes = aa.MeanBytes();
  result.aggregator_to_querier_bytes = aq.MeanBytes();
  if (bitflip != nullptr) result.adversary_events = bitflip->tampered_count();
  if (replay != nullptr) result.adversary_events = replay->replayed_count();
  if (drop != nullptr) result.adversary_events = drop->dropped_count();
  result.lost_messages = network.lost_messages();
  result.mean_coverage = result.answered_epochs == 0
                             ? 0.0
                             : coverage_sum / result.answered_epochs;
  result.mean_relative_error =
      result.answered_epochs == 0 ? 0.0
                                  : error_sum / result.answered_epochs;
  return result;
}

}  // namespace sies::runner
