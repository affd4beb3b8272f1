#include "runner/runner.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "common/timer.h"
#include "crypto/prime.h"
#include "net/udp_transport.h"
#include "ops/admin_server.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"

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

namespace {

// SECOA RSA public exponent. One-way chains want the cheapest
// permutation, so e=3 (the paper's C_RSA = 5.36 us is consistent with
// a small exponent, not e=65537).
constexpr uint64_t kSecoaRsaExponent = 3;

/// `query`'s exact answer over the sources `contributors` (logical
/// indices) at `epoch`, computed from the raw readings.
StatusOr<double> ExactAnswer(const core::Query& query,
                             const std::vector<uint32_t>& contributors,
                             workload::TraceGenerator& trace,
                             uint64_t epoch) {
  uint64_t sums[3] = {0, 0, 0};  // indexed by core::Channel
  for (uint32_t index : contributors) {
    const core::SensorReading reading = trace.ReadingAt(index, epoch);
    for (core::Channel channel : core::ActiveChannels(query)) {
      auto value = core::ChannelValue(query, channel, reading);
      if (!value.ok()) return value.status();
      sums[static_cast<size_t>(channel)] += value.value();
    }
  }
  auto result = core::CombineChannels(query, sums[0], sums[1], sums[2]);
  if (!result.ok()) return result.status();
  return result.value().value;
}

}  // namespace

StatusOr<SchemeBinding> BindScheme(const ExperimentConfig& config,
                                   const net::Topology& topology) {
  workload::TraceConfig trace_config;
  trace_config.num_sources = config.num_sources;
  trace_config.scale_pow10 = config.scale_pow10;
  trace_config.seed = config.seed;
  auto trace = std::make_shared<workload::TraceGenerator>(trace_config);
  ValueFn values = [trace](uint32_t index, uint64_t epoch) {
    return trace->ValueAt(index, epoch);
  };

  SchemeBinding binding;
  binding.trace = trace;
  Bytes master_seed = EncodeUint64(config.seed);
  switch (config.scheme) {
    case Scheme::kSies: {
      auto params = core::MakeParams(config.num_sources, config.seed,
                                     /*value_bytes=*/8);
      if (!params.ok()) return params.status();
      auto scheduler = std::make_unique<engine::EpochScheduler>(
          std::make_shared<engine::MultiQueryEngine>(
              params.value(), core::GenerateKeys(params.value(), master_seed)),
          topology, [trace](uint32_t index, uint64_t epoch) {
            return trace->ReadingAt(index, epoch);
          });
      binding.scheduler = scheduler.get();
      binding.protocol = std::move(scheduler);
      break;
    }
    case Scheme::kCmt: {
      auto params = cmt::MakeParams(config.num_sources, config.seed);
      if (!params.ok()) return params.status();
      cmt::QuerierKeys keys = cmt::GenerateKeys(params.value(), master_seed);
      binding.protocol = std::make_unique<CmtProtocol>(
          params.value(), std::move(keys), topology, values);
      break;
    }
    case Scheme::kSecoa: {
      Xoshiro256 rng(config.seed);
      auto kp = crypto::GenerateRsaKeyPair(config.rsa_modulus_bits, rng,
                                           kSecoaRsaExponent);
      if (!kp.ok()) return kp.status();
      secoa::SealOps ops(kp.value().public_key);
      secoa::SumParams params;
      params.num_sources = config.num_sources;
      params.j = config.secoa_j;
      params.sketch_seed = config.seed;
      secoa::QuerierKeys keys =
          secoa::GenerateKeys(config.num_sources, master_seed);
      binding.protocol = std::make_unique<SecoaProtocol>(
          ops, params, std::move(keys), topology, values);
      break;
    }
  }
  return binding;
}

std::vector<QuerySchedule> SiesSchedule(const ExperimentConfig& config) {
  if (!config.queries.empty()) return config.queries;
  core::Query sum;  // SUM(temperature), query id 0
  sum.scale_pow10 = config.scale_pow10;
  return {{sum}};
}

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  if (config.scheme != Scheme::kSies &&
      (!config.queries.empty() || config.pipeline || config.ops_port >= 0 ||
       config.transport == TransportKind::kUdp)) {
    return Status::InvalidArgument(
        "queries, pipelining, the ops plane and the UDP transport drive the "
        "SIES engine; CMT and SECOA_S run without them");
  }
  auto topology =
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout);
  if (!topology.ok()) return topology.status();
  // Declared before the network so the network (which may hold a raw
  // pointer to it) is destroyed first on every exit path.
  std::unique_ptr<net::UdpTransport> udp;
  net::Network network(std::move(topology).value());
  if (config.transport == TransportKind::kUdp) {
    net::UdpTransportOptions udp_options;
    udp_options.ack_timeout_ms = config.udp_ack_timeout_ms;
    udp = std::make_unique<net::UdpTransport>(udp_options);
    std::vector<net::NodeId> nodes;
    nodes.reserve(network.topology().num_nodes() + 1);
    for (net::NodeId id = 0; id < network.topology().num_nodes(); ++id) {
      nodes.push_back(id);
    }
    nodes.push_back(net::kQuerierId);  // tree root reports to the querier
    SIES_RETURN_IF_ERROR(udp->Start(nodes));
    SIES_RETURN_IF_ERROR(network.SetTransport(udp.get()));
  }

  auto bound = BindScheme(config, network.topology());
  if (!bound.ok()) return bound.status();
  SchemeBinding binding = std::move(bound).value();
  net::AggregationProtocol& protocol = *binding.protocol;
  engine::EpochScheduler* scheduler = binding.scheduler;
  workload::TraceGenerator& trace = *binding.trace;
  const std::vector<QuerySchedule> schedule =
      scheduler != nullptr ? SiesSchedule(config)
                           : std::vector<QuerySchedule>{};

  common::ThreadPool pool(config.threads);
  network.SetThreadPool(&pool);
  protocol.SetThreadPool(&pool);
  if (scheduler != nullptr) scheduler->SetPipelining(config.pipeline);

  // Ops plane: the admin server scrapes the scheduler's mutex-guarded
  // snapshot from its own thread while epochs run. Declared after the
  // scheduler so every exit path stops the server before the scheduler
  // dies.
  std::unique_ptr<ops::AdminServer> admin;
  if (config.ops_port >= 0) {
    ops::AdminOptions options;
    options.port = static_cast<uint16_t>(config.ops_port);
    options.ready_staleness_seconds = config.ops_staleness_seconds;
    auto started = ops::AdminServer::Start(
        options, [scheduler]() { return scheduler->SnapshotQueries(); });
    if (!started.ok()) return started.status();
    admin = std::move(started).value();
    // Keys and topology exist by now; epoch-key caches warm during the
    // first round that runs, and /readyz flips once it reports.
    admin->SetProvisioned(true);
    if (config.on_ops_ready) config.on_ops_ready(admin->port());
  }

  if (config.loss_rate > 0.0) {
    SIES_RETURN_IF_ERROR(network.SetLossRate(config.loss_rate, config.seed));
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
      // Flip the trailing payload bit: always inside the LAST physical
      // channel's ciphertext (a partial SIES envelope leads with its
      // contributor field), so exactly the queries reading that channel
      // fail. It is low-order, so the tampered PSR stays a residue and is
      // rejected by verification rather than aborting as malformed.
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
  result.scheme_name = protocol.Name();
  result.epochs = config.epochs;

  static telemetry::Counter* epochs_total =
      telemetry::MetricsRegistry::Global().GetCounter("sies_epochs_total");
  static telemetry::Counter* epochs_unverified =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_epochs_unverified_total");
  auto& timeline = telemetry::EpochTimeline::Global();
  // Runs at the END of every epoch iteration, including idle and
  // unanswered ones: liveness stamp, test hook, pacing sleep.
  auto finish_epoch = [&](uint64_t epoch, bool verified,
                          const Stopwatch& watch) {
    if (admin) admin->ReportEpoch(epoch, verified);
    if (config.after_epoch) config.after_epoch(epoch);
    if (config.epoch_pacing_ms > 0) {
      const double remaining =
          config.epoch_pacing_ms / 1000.0 - watch.ElapsedSeconds();
      if (remaining > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(remaining));
      }
    }
  };

  CostAccumulator src, agg, qry;
  net::EdgeTraffic sa, aa, aq;
  double error_sum = 0.0;
  double coverage_sum = 0.0;
  for (uint64_t epoch = 1; epoch <= config.epochs; ++epoch) {
    Stopwatch epoch_watch;
    if (scheduler != nullptr) {
      // Control plane first: schedule ops go through the boundary queue
      // (the same path an admin thread would use mid-run), and
      // ApplyPending settles the plan — joining any in-flight t+1 key
      // prefetch before it may mutate. One plan per epoch either way.
      for (const QuerySchedule& sched : schedule) {
        if (std::max<uint64_t>(sched.admit_epoch, 1) == epoch) {
          scheduler->QueueAdmit(sched.query);
        }
        if (sched.teardown_epoch == epoch) {
          scheduler->QueueTeardown(sched.query.query_id);
        }
      }
      SIES_RETURN_IF_ERROR(scheduler->ApplyPending(epoch));
      const engine::QueryRegistry& registry = scheduler->engine().registry();
      if (registry.plan().Count() == 0) {
        ++result.idle_epochs;  // nothing to serve: skip the radio round
        finish_epoch(epoch, /*verified=*/true, epoch_watch);
        continue;
      }
      result.channel_epochs += registry.plan().Count();
      result.naive_channel_epochs += scheduler->LiveQueryChannels();
    }

    const bool attribute = timeline.enabled();
    if (attribute) timeline.BeginEpoch(epoch);
    auto report = network.RunEpoch(protocol, epoch);
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
    const bool verified = r.answered && r.outcome.verified;
    if (!r.answered) {
      // Graceful degradation: the epoch was swallowed by the radio or
      // the adversary. Record the gap and keep the deployment going.
      ++result.unanswered_epochs;
    } else {
      ++result.answered_epochs;
      coverage_sum += r.coverage;
      if (verified && r.coverage < 1.0) ++result.partial_epochs;
      if (!verified) {
        ++result.unverified_epochs;
        result.all_verified = false;
        epochs_unverified->Increment();
      }
    }
    if (scheduler != nullptr && config.on_epoch_outcomes) {
      config.on_epoch_outcomes(epoch, r.answered,
                               scheduler->last_outcomes());
    }
    if (attribute) {
      telemetry::EpochVerdict verdict;
      verdict.answered = r.answered;
      verdict.verified = verified;
      verdict.coverage = r.coverage;
      verdict.live_queries =
          scheduler == nullptr
              ? 1
              : static_cast<uint32_t>(
                    scheduler->engine().registry().active().size());
      verdict.contributors = r.contributing_sources;
      verdict.expected_contributors = r.expected_contributors;
      timeline.EndEpoch(verdict);
    }

    if (r.answered) {
      // The exact answer over exactly the reported contributors (a
      // verified partial must match it), or over every source for the
      // baselines, which report no contributor set. An aggregate with no
      // answer (AVG over zero matches) adds no error. Computed outside
      // the timeline's epoch: it is bookkeeping, not protocol work.
      double exact = 0.0;
      if (scheduler != nullptr) {
        // The query live this epoch: a schedule may reuse a torn-down
        // query's id for a different query.
        const engine::QueryEpochOutcome& first =
            scheduler->last_outcomes().front();
        for (const engine::ActiveQuery& live :
             scheduler->engine().registry().active()) {
          if (live.query.query_id != first.query_id) continue;
          auto answer = ExactAnswer(live.query, first.outcome.contributors,
                                    trace, epoch);
          if (answer.ok()) exact = answer.value();
          break;
        }
      } else {
        exact = static_cast<double>(Snapshot(trace, epoch).exact_sum);
      }
      if (exact > 0) error_sum += std::abs(r.outcome.value - exact) / exact;
    }
    // The first round that ran derived and cached every live channel's
    // epoch keys.
    if (admin) admin->SetKeysWarm(true);
    finish_epoch(epoch, verified, epoch_watch);
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
  if (scheduler != nullptr) {
    scheduler->JoinPrefetch();
    result.prefetched_epochs = scheduler->prefetched_epochs();
    result.queries = scheduler->ledger();
  }
  if (udp) {
    result.udp_datagrams_sent = udp->datagrams_sent();
    result.udp_malformed_datagrams = udp->malformed_datagrams();
    udp->Stop();
  }
  return result;
}

}  // namespace sies::runner
