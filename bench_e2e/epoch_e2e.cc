// epoch_e2e: the repository's end-to-end benchmark binary.
//
// Runs one workload of the continuous multi-query engine for a
// wall-clock budget, checks every answer as it arrives against a
// reference computed from the raw readings, and prints one JSON line of
// metrics. It composes the public pieces the way
// runner::RunEngineExperiment does (topology, network, transport, trace,
// params and keys, engine, scheduler, a one-lane pool) instead of
// calling the runner, because the runner has no place for the timing
// decorators of timed_layers.h; --check proves that the composition
// produces the runner's outcomes.
// run.py builds and drives this binary; README.md documents the
// workloads and metrics.
//
//   epoch_e2e --workload=NAME [--seed=N] [--seconds=S] [--traced]
//             [--trace-out=PATH] [--epochs=E] [--smoke]
//   epoch_e2e --check
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "crypto/cpu_features.h"
#include "crypto/fp256.h"
#include "crypto/hmac.h"
#include "crypto/sha256x8.h"
#include "engine/query_spec.h"
#include "net/udp_transport.h"
#include "runner/engine_runner.h"
#include "timed_layers.h"
#include "workload/workload.h"

namespace sies::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Keys, parameters and the loss pattern stay fixed across seeds;
/// --seed drives the readings and the churn queries.
constexpr uint64_t kKeySeed = 7;
constexpr uint64_t kLossSeed = 7;
constexpr uint32_t kFanout = 4;
constexpr uint64_t kWarmupEpochs = 3;
/// bytes_per_epoch, sa_msg_bytes, coverage_mean and answered_ratio are
/// taken over this many timed epochs, and every time-bounded run lasts
/// at least that long, so they repeat exactly however fast the code is.
constexpr uint64_t kCountedEpochs = 50;
/// Set-up is timed in two bursts, one before the epochs and one after
/// them, each of at least this many set-ups and this many seconds;
/// setup_s is the median of both. Two bursts 25 s apart sample two
/// states of a shared host instead of one.
constexpr int kSetupRepeats = 5;
constexpr double kSetupBurstSeconds = 0.5;
/// The timing metrics are scaled to a host on which HostReference's loop
/// takes this long, about what it takes on an uncontended core of the
/// host the benchmark was built on.
constexpr double kReferenceMs = 0.13;
/// Traced epochs whose every call is kept as a span for the Chrome trace.
constexpr uint32_t kSpanEpochs = 3;
/// paced_churn keeps this many queries live.
constexpr uint32_t kChurnLive = 4;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         (static_cast<double>(v[hi]) - static_cast<double>(v[lo])) * frac;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

using QueriesFn = StatusOr<std::vector<core::Query>> (*)(uint64_t seed);

struct WorkloadSpec {
  std::string name;
  uint32_t num_sources = 0;
  QueriesFn initial_queries = nullptr;
  bool udp = false;
  double loss_rate = 0.0;
  uint32_t max_retries = 0;
  bool pipeline = false;
  /// > 0: open loop, epoch t is due at t0 + (t - 1) * period_ms.
  double period_ms = 0.0;
  /// > 0: every churn_every epochs one query is admitted under a fresh
  /// id and the oldest live one is torn down.
  uint32_t churn_every = 0;
};

StatusOr<std::vector<core::Query>> PaperSumQueries(uint64_t) {
  auto q = engine::ParseQuerySpec("sum temperature");
  if (!q.ok()) return q.status();
  return std::vector<core::Query>{q.value()};
}

/// Eight fixed specs: three moments that share one set of channels, four
/// band queries that compile to dyadic bucket channels, one scalar WHERE.
StatusOr<std::vector<core::Query>> DashboardQueries(uint64_t) {
  return engine::ParseQueriesText(
      "avg temperature\n"
      "variance temperature\n"
      "stddev temperature\n"
      "sum temperature between 20 and 30\n"
      "count temperature between 25.5 and 41.25\n"
      "avg humidity between 35 and 55\n"
      "avg light where 150 <= light <= 700\n"
      "avg temperature where humidity >= 50\n");
}

StatusOr<std::vector<core::Query>> LossyQueries(uint64_t) {
  return engine::DefaultQueryMix(2);
}

/// A band field and the scaled domain the trace draws it from.
struct BandField {
  core::Field field;
  uint32_t scale_pow10;
  uint32_t level;  ///< log2 of the smallest bucket of a churn band
  uint64_t lo, hi;
};
constexpr BandField kBandFields[] = {
    {core::Field::kTemperature, 2, 5, 1800, 5000},
    {core::Field::kHumidity, 2, 5, 3000, 7000},
    {core::Field::kLight, 1, 6, 1000, 10000},
    {core::Field::kVoltage, 3, 3, 2000, 2800},
};

/// Query i of the paced_churn stream, under id i (never reused). Even i
/// is a plain query from a fixed four-shape cycle; odd i is a band query
/// whose position comes from the seed. Every band spans 7 blocks of
/// 2^level starting at a multiple of 8 blocks, so its dyadic cover is
/// always 3 buckets per kind, and the field rotates so the two live band
/// queries never share a bucket: the seed changes which readings a band
/// selects, never how many channels the plan carries.
core::Query ChurnQuery(uint32_t i, uint64_t seed) {
  core::Query q;
  q.query_id = i;
  const uint32_t j = i / 2;
  if (i % 2 == 0) {
    struct Plain {
      core::Aggregate aggregate;
      core::Field field;
      uint32_t scale_pow10;
    };
    static constexpr Plain kPlain[] = {
        {core::Aggregate::kAvg, core::Field::kTemperature, 2},
        {core::Aggregate::kVariance, core::Field::kHumidity, 2},
        {core::Aggregate::kSum, core::Field::kLight, 1},
        {core::Aggregate::kStddev, core::Field::kVoltage, 3},
    };
    const Plain& p = kPlain[j % 4];
    q.aggregate = p.aggregate;
    q.attribute = p.field;
    q.scale_pow10 = p.scale_pow10;
    return q;
  }
  static constexpr core::Aggregate kBandAggregates[] = {
      core::Aggregate::kCount, core::Aggregate::kSum, core::Aggregate::kAvg};
  const BandField& f = kBandFields[j % 4];
  q.aggregate = kBandAggregates[j % 3];
  q.attribute = f.field;
  q.scale_pow10 = f.scale_pow10;
  const uint64_t block = uint64_t{1} << f.level;
  const uint64_t first = (f.lo + 8 * block - 1) / (8 * block);
  const uint64_t last = ((f.hi + 1) / block - 7) / 8;
  SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + i);
  const uint64_t a = 8 * (first + mix.Next() % (last - first + 1));
  const double scale = std::pow(10.0, f.scale_pow10);
  q.band = core::Band{f.field, static_cast<double>(a * block) / scale,
                      static_cast<double>((a + 7) * block - 1) / scale};
  return q;
}

StatusOr<std::vector<core::Query>> ChurnQueries(uint64_t seed) {
  std::vector<core::Query> out;
  for (uint32_t i = 0; i < kChurnLive; ++i) out.push_back(ChurnQuery(i, seed));
  return out;
}

std::vector<WorkloadSpec> Workloads(bool smoke) {
  std::vector<WorkloadSpec> out = {
      {.name = "paper_sum",
       .num_sources = 16384,
       .initial_queries = PaperSumQueries},
      {.name = "dashboard_k8",
       .num_sources = 320,
       .initial_queries = DashboardQueries},
      {.name = "udp_lossy",
       .num_sources = 1024,
       .initial_queries = LossyQueries,
       .udp = true,
       .loss_rate = 0.10,
       .max_retries = 1},
      {.name = "paced_churn",
       .num_sources = 512,
       .initial_queries = ChurnQueries,
       .pipeline = true,
       .period_ms = 250.0,
       .churn_every = 5},
  };
  if (smoke) {
    for (WorkloadSpec& spec : out) {
      spec.num_sources = 64;
      if (spec.period_ms > 0) spec.period_ms = 5.0;
    }
  }
  return out;
}

/// The control-plane ops of paced_churn due at the start of `epoch`.
struct ChurnOps {
  std::optional<core::Query> admit;
  std::optional<uint32_t> teardown;
};
ChurnOps ChurnAt(const WorkloadSpec& spec, uint64_t seed, uint64_t epoch) {
  ChurnOps ops;
  if (spec.churn_every == 0 || epoch == 1 ||
      (epoch - 1) % spec.churn_every != 0) {
    return ops;
  }
  const uint32_t k =
      static_cast<uint32_t>((epoch - 1) / spec.churn_every) + kChurnLive - 1;
  ops.admit = ChurnQuery(k, seed);
  ops.teardown = k - kChurnLive;
  return ops;
}

// ---------------------------------------------------------------------------
// Deployment: what set-up builds and the epoch loop drives
// ---------------------------------------------------------------------------

struct RunConfig {
  uint64_t seed = 1;
  uint64_t key_seed = kKeySeed;
  uint64_t loss_seed = kLossSeed;
  double seconds = 10.0;
  uint32_t max_epochs = 0;  ///< > 0: run exactly this many epochs
  bool traced = false;
  bool keep_answers = false;  ///< keep every outcome (--check only)
  std::string trace_out;
};

/// Members are declared so that destruction runs scheduler (joins the
/// prefetch thread), engine, network, transports, pool.
struct Deployment {
  common::ThreadPool pool{1};
  net::SimTransport sim;  ///< behind the decorator in traced runs
  std::unique_ptr<net::UdpTransport> udp;
  std::unique_ptr<TimedTransport> timed_transport;
  std::unique_ptr<net::Network> network;
  std::shared_ptr<engine::MultiQueryEngine> engine;
  std::unique_ptr<engine::EpochScheduler> scheduler;
};

/// Topology, parameters and keys, engine and scheduler, the UDP Start
/// and the initial admission: everything `setup_s` measures.
StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                            const RunConfig& cfg,
                                            SpanRecorder* recorder) {
  auto d = std::make_unique<Deployment>();
  auto topology = net::Topology::BuildCompleteTree(spec.num_sources, kFanout);
  if (!topology.ok()) return topology.status();
  d->network = std::make_unique<net::Network>(std::move(topology).value());
  net::Transport* link = nullptr;  // nullptr: the network's own simulator
  if (spec.udp) {
    d->udp = std::make_unique<net::UdpTransport>();
    std::vector<net::NodeId> nodes;
    for (net::NodeId id = 0; id < d->network->topology().num_nodes(); ++id) {
      nodes.push_back(id);
    }
    nodes.push_back(net::kQuerierId);
    SIES_RETURN_IF_ERROR(d->udp->Start(nodes));
    link = d->udp.get();
  }
  if (recorder != nullptr) {
    d->timed_transport = std::make_unique<TimedTransport>(
        link != nullptr ? *link : d->sim, *recorder);
    link = d->timed_transport.get();
  }
  if (link != nullptr) SIES_RETURN_IF_ERROR(d->network->SetTransport(link));
  if (spec.loss_rate > 0.0) {
    SIES_RETURN_IF_ERROR(d->network->SetLossRate(spec.loss_rate, cfg.loss_seed));
    d->network->SetMaxRetries(spec.max_retries);
  }

  workload::TraceConfig trace_config;
  trace_config.num_sources = spec.num_sources;
  trace_config.seed = cfg.seed;
  auto trace = std::make_shared<workload::TraceGenerator>(trace_config);
  // value_bytes = 8, as the runner: the sum-of-squares channel overflows 4.
  auto params = core::MakeParams(spec.num_sources, cfg.key_seed, 8);
  if (!params.ok()) return params.status();
  core::QuerierKeys keys =
      core::GenerateKeys(params.value(), EncodeUint64(cfg.key_seed));
  d->engine = std::make_shared<engine::MultiQueryEngine>(params.value(),
                                                         std::move(keys));
  d->scheduler = std::make_unique<engine::EpochScheduler>(
      d->engine, d->network->topology(),
      [trace](uint32_t index, uint64_t epoch) {
        return trace->ReadingAt(index, epoch);
      });
  d->network->SetThreadPool(&d->pool);
  d->scheduler->SetThreadPool(&d->pool);
  d->scheduler->SetPipelining(spec.pipeline);

  auto queries = spec.initial_queries(cfg.seed);
  if (!queries.ok()) return queries.status();
  for (const core::Query& q : queries.value()) d->scheduler->QueueAdmit(q);
  SIES_RETURN_IF_ERROR(d->scheduler->ApplyPending(1));
  return d;
}

// ---------------------------------------------------------------------------
// Crypto kernels, timed once before a traced workload starts
// ---------------------------------------------------------------------------

struct CryptoCosts {
  double hmac_ns = 0.0;
  double hmac_batch_ns = 0.0;
  double fp_mul_ns = 0.0;
};

volatile uint64_t g_sink = 0;

CryptoCosts MeasureCrypto(const core::Params& params) {
  constexpr int kReps = 5;
  auto median_ns = [](auto&& body, double ops) {
    std::vector<double> samples;
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      body();
      samples.push_back(Ms(Clock::now() - t0) * 1e6 / ops);
    }
    return Percentile(samples, 50);
  };
  const Bytes key(20, 0x5a);
  Bytes msg = EncodeUint64(1);
  CryptoCosts out;

  constexpr int kCalls = 2000;
  out.hmac_ns = median_ns(
      [&] {
        for (int i = 0; i < kCalls; ++i) {
          msg[0] = static_cast<uint8_t>(i);
          g_sink = g_sink + crypto::HmacSha256(key, msg)[0];
        }
      },
      kCalls);

  constexpr size_t kLanes = 256;
  constexpr int kBatches = 8;
  std::vector<Bytes> keys(kLanes, key);
  for (size_t i = 0; i < kLanes; ++i) keys[i][0] = static_cast<uint8_t>(i);
  std::vector<crypto::ByteView> key_views(keys.begin(), keys.end());
  std::vector<crypto::ByteView> msg_views(kLanes, crypto::ByteView(msg));
  std::vector<uint8_t> digests(32 * kLanes);
  out.hmac_batch_ns = median_ns(
      [&] {
        for (int b = 0; b < kBatches; ++b) {
          crypto::HmacSha256Batch(kLanes, key_views.data(), msg_views.data(),
                                  digests.data());
          g_sink = g_sink + digests[static_cast<size_t>(b)];
        }
      },
      kLanes * kBatches);

  if (const crypto::Fp256* fp = params.Fp(); fp != nullptr) {
    constexpr int kMuls = 20000;
    crypto::U256 a = crypto::U256::FromUint64(0x9E3779B97F4A7C15ull);
    const crypto::U256 b = crypto::U256::FromUint64(0xBF58476D1CE4E5B9ull);
    out.fp_mul_ns = median_ns(
        [&] {
          for (int i = 0; i < kMuls; ++i) a = fp->Mul(a, b);
          g_sink = g_sink + a.v[0];
        },
        kMuls);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------------

/// A fixed loop of SHA-256 rounds on registers, timed next to the
/// program on the same CPU right after every set-up and every epoch. On
/// a shared host, other tenants contend for the core's execution units
/// and slow the program by up to 1.9x, changing every few seconds; the
/// loop slows with them. Dividing each set-up's and each epoch's time by
/// the loop's time right after it cancels most of that, and the program
/// cannot speed the loop up or slow it down: it is the benchmark's own
/// code and shares no data with the program. README.md ("Host speed")
/// gives the measurements behind the choice of loop.
class HostReference {
 public:
  HostReference() {
    for (uint32_t i = 0; i < 64; ++i) w_[i] = i * 2654435761u;
  }

  /// Runs the loop once; returns the factor that scales a time measured
  /// just before to the reference host.
  double Scale() {
    auto rotr = [](uint32_t v, int n) { return v >> n | v << (32 - n); };
    uint32_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const Clock::time_point t0 = Clock::now();
    for (uint32_t r = 0; r < kPasses; ++r) {
      for (uint32_t i = 0; i < 64; ++i) {
        const uint32_t t1 = h[7] + (rotr(h[4], 6) ^ rotr(h[4], 11) ^ rotr(h[4], 25)) +
                            ((h[4] & h[5]) ^ (~h[4] & h[6])) + w_[i];
        const uint32_t t2 = (rotr(h[0], 2) ^ rotr(h[0], 13) ^ rotr(h[0], 22)) +
                            ((h[0] & h[1]) ^ (h[0] & h[2]) ^ (h[1] & h[2]));
        h[7] = h[6], h[6] = h[5], h[5] = h[4], h[4] = h[3] + t1;
        h[3] = h[2], h[2] = h[1], h[1] = h[0], h[0] = t1 + t2;
      }
    }
    g_sink = g_sink + h[0];
    return Ratio(kReferenceMs, Ms(Clock::now() - t0));
  }

 private:
  static constexpr uint32_t kPasses = 600;
  uint32_t w_[64];
};

// ---------------------------------------------------------------------------
// One epoch as the loop saw it
// ---------------------------------------------------------------------------

/// What one epoch leaves for the reference check and the running sums.
/// It lives for one iteration of the loop: nothing per epoch is kept, so
/// the run's memory does not grow with its length.
struct EpochRecord {
  uint64_t epoch = 0;
  bool timed = false;   ///< after the warm-up
  bool traced = false;  ///< decorators recording this epoch
  /// From the due time (open loop) or the start (closed loop) to the
  /// point every live query's outcome is in hand.
  double latency_ms = 0.0;
  /// Start minus due time; in a closed loop, start minus the previous
  /// epoch's end (the bench's own bookkeeping between epochs).
  double start_lag_ms = 0.0;
  /// HostReference's factor, taken right after the epoch.
  double host_scale = 1.0;
  uint32_t control_ops = 0;
  uint32_t wire_channels = 0;
  uint32_t naive_channels = 0;
  std::vector<core::Query> live;
  net::EpochReport report;
  std::vector<engine::QueryEpochOutcome> outcomes;  ///< when answered
  EpochTotals layers{};                             ///< when traced
  std::vector<TimedTransport::Sent> sent;           ///< when traced
};

struct AnswerCheck {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  void Fail(uint64_t n, const std::string& why) {
    failed += n;
    if (first_failure.empty()) first_failure = why;
  }
};

// ---------------------------------------------------------------------------
// Reference answers
// ---------------------------------------------------------------------------

/// Source indices whose own delivery and every ancestor's succeeded.
std::vector<uint32_t> ContributorsOf(const net::Topology& topo,
                                     const std::vector<uint8_t>& delivered) {
  std::vector<uint8_t> reached(topo.num_nodes(), 0);
  auto up = [&](net::NodeId id) {
    const net::NodeId parent = topo.parent(id);
    return delivered[id] != 0 && (parent == net::kQuerierId || reached[parent]);
  };
  const auto& aggs = topo.aggregators_bottom_up();
  for (auto it = aggs.rbegin(); it != aggs.rend(); ++it) reached[*it] = up(*it);
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < topo.sources().size(); ++i) {
    if (up(topo.sources()[i])) out.push_back(i);
  }
  return out;
}

/// The answer recomputed from the readings of exactly `contributors`.
StatusOr<core::EpochOutcome> Reference(
    const core::Query& q, uint32_t num_sources,
    const std::vector<core::SensorReading>& readings,
    const std::vector<uint32_t>& contributors) {
  uint64_t sums[3] = {0, 0, 0};
  for (core::Channel ch : core::ActiveChannels(q)) {
    for (uint32_t i : contributors) {
      auto v = core::ChannelValue(q, ch, readings[i]);
      if (!v.ok()) return v.status();
      sums[static_cast<size_t>(ch)] += v.value();
    }
  }
  return core::AssembleOutcome(q, num_sources, sums[0], sums[1], sums[2],
                               /*verified=*/true, contributors);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameOutcome(const core::EpochOutcome& a, const core::EpochOutcome& b) {
  return a.verified == b.verified && SameBits(a.result.value, b.result.value) &&
         a.result.count == b.result.count && a.contributors == b.contributors &&
         SameBits(a.coverage, b.coverage);
}

/// Checks every answer, epoch by epoch and in order, bit for bit against
/// Reference. It replays the loss model both transports share (one draw
/// per attempt in the network's fixed delivery order) to learn which
/// sources reached the querier.
class ReferenceChecker {
 public:
  static StatusOr<std::unique_ptr<ReferenceChecker>> Make(
      const WorkloadSpec& spec, const RunConfig& cfg,
      const net::Topology& topology) {
    workload::TraceConfig trace_config;
    trace_config.num_sources = spec.num_sources;
    trace_config.seed = cfg.seed;
    auto checker = std::unique_ptr<ReferenceChecker>(
        new ReferenceChecker(spec.name, topology, trace_config));
    if (spec.loss_rate > 0.0) {
      SIES_RETURN_IF_ERROR(checker->model_.SetLossRate(spec.loss_rate, cfg.loss_seed));
      checker->model_.SetMaxRetries(spec.max_retries);
    }
    return checker;
  }

  void Check(const EpochRecord& rec, AnswerCheck& check) {
    const std::string where = name_ + " epoch " + std::to_string(rec.epoch);
    std::fill(delivered_.begin(), delivered_.end(), 0);
    std::fill(received_.begin(), received_.end(), 0);
    auto send = [&](net::NodeId from) {
      auto sent = model_.Deliver(from, topo_.parent(from), rec.epoch, Bytes());
      delivered_[from] = sent.ok() && sent.value().delivered;
      if (delivered_[from] && topo_.parent(from) != net::kQuerierId) {
        received_[topo_.parent(from)] = 1;
      }
    };
    for (net::NodeId src : topo_.sources()) send(src);
    for (net::NodeId agg : topo_.aggregators_bottom_up()) {
      if (received_[agg]) send(agg);
    }
    const bool answered = delivered_[topo_.root()] != 0;
    const std::vector<uint32_t> contributors = ContributorsOf(topo_, delivered_);

    check.attempted += rec.live.size();
    if (rec.traced) {
      std::vector<uint8_t> logged(topo_.num_nodes(), 0);
      for (const TimedTransport::Sent& s : rec.sent) logged[s.from] = s.delivered;
      if (ContributorsOf(topo_, logged) != contributors ||
          logged[topo_.root()] != delivered_[topo_.root()]) {
        check.Fail(rec.live.size(),
                   where + ": transport delivery log disagrees with the loss model");
        return;
      }
    }
    if (rec.report.answered != answered) {
      check.Fail(rec.live.size(),
                 where + (answered ? ": unanswered although the root's delivery succeeded"
                                   : ": answered although the root's delivery was lost"));
      return;
    }
    if (!answered) return;
    if (rec.outcomes.size() != rec.live.size()) {
      check.Fail(rec.live.size(), where + ": one outcome per live query expected");
      return;
    }
    for (uint32_t i = 0; i < readings_.size(); ++i) {
      readings_[i] = trace_.ReadingAt(i, rec.epoch);
    }
    for (size_t k = 0; k < rec.live.size(); ++k) {
      const core::Query& q = rec.live[k];
      const engine::QueryEpochOutcome& got = rec.outcomes[k];
      auto want = Reference(q, static_cast<uint32_t>(readings_.size()), readings_,
                            contributors);
      if (!want.ok()) {
        check.Fail(1, where + ": reference failed: " + want.status().ToString());
      } else if (got.query_id != q.query_id ||
                 !SameOutcome(got.outcome, want.value())) {
        check.Fail(1, where + " q" + std::to_string(q.query_id) +
                          ": answer differs from the reference");
      }
    }
  }

 private:
  ReferenceChecker(std::string name, const net::Topology& topology,
                   workload::TraceConfig trace_config)
      : name_(std::move(name)),
        topo_(topology),
        trace_(trace_config),
        readings_(trace_config.num_sources),
        delivered_(topology.num_nodes()),
        received_(topology.num_nodes()) {}

  std::string name_;
  net::Topology topo_;
  net::SimTransport model_;
  workload::TraceGenerator trace_;
  std::vector<core::SensorReading> readings_;
  std::vector<uint8_t> delivered_, received_;
};

// ---------------------------------------------------------------------------
// Running sums over the timed epochs
// ---------------------------------------------------------------------------

struct CacheCounters {
  core::EpochKeyCache::Stats querier, source;
};

CacheCounters ReadCaches(const engine::MultiQueryEngine& engine) {
  return {engine.QuerierCacheStats(), engine.SourceCacheStats()};
}

void AddDelta(core::EpochKeyCache::Stats& sum, const core::EpochKeyCache::Stats& from,
              const core::EpochKeyCache::Stats& to) {
  sum.global_hits += to.global_hits - from.global_hits;
  sum.global_misses += to.global_misses - from.global_misses;
  sum.source_hits += to.source_hits - from.source_hits;
  sum.source_misses += to.source_misses - from.source_misses;
  sum.evictions += to.evictions - from.evictions;
}

/// The timings of one pass-through epoch, scaled to the reference host.
struct EpochSample {
  double latency_ms = 0.0;
  double source_us = 0.0;      ///< per-call mean
  double aggregator_us = 0.0;  ///< per-call mean
  double querier_ms = 0.0;     ///< NaN when unanswered
};

/// Every metric's sums, folded in as each timed epoch ends. Only a few
/// numbers per epoch are kept.
struct Tally {
  uint64_t timed = 0;
  std::vector<double> start_lag_ms;
  double control_ops = 0, wire = 0, naive = 0, late = 0;
  double edge_bytes[3] = {0, 0, 0}, edge_messages[3] = {0, 0, 0};
  double retransmits = 0, undelivered = 0;

  // The first kCountedEpochs timed epochs: the deterministic counts.
  uint64_t counted = 0, counted_answered = 0;
  double bytes = 0, sa_bytes = 0, sa_messages = 0;
  double coverage = 0, answers = 0, verified = 0;

  // Pass-through epochs (all timed epochs of an untraced run).
  std::vector<EpochSample> samples;
  std::vector<double> host_scale;
  /// Cache counter deltas from one pass-through epoch's start to the
  /// next epoch's start, so each covers the epoch and the t+1 prefetch
  /// it launched, and none covers a recorded epoch's own derivation.
  CacheCounters caches{};
  uint64_t cache_epochs = 0;

  // Recorded epochs of a traced run.
  uint64_t traced = 0;
  std::vector<double> traced_latency_ms;
  EpochTotals layers{};
  double report_source_s = 0, report_merge_s = 0, report_evaluate_s = 0;

  void Add(const EpochRecord& rec, double period_ms) {
    if (!rec.timed) return;
    ++timed;
    const net::EpochReport& r = rec.report;
    start_lag_ms.push_back(rec.start_lag_ms);
    control_ops += rec.control_ops;
    wire += rec.wire_channels;
    naive += rec.naive_channels;
    if (period_ms > 0 && rec.latency_ms > period_ms) ++late;
    const net::EdgeTraffic* edges[3] = {&r.source_to_aggregator,
                                        &r.aggregator_to_aggregator,
                                        &r.aggregator_to_querier};
    for (int e = 0; e < 3; ++e) {
      edge_bytes[e] += static_cast<double>(edges[e]->bytes);
      edge_messages[e] += static_cast<double>(edges[e]->messages);
      undelivered += static_cast<double>(edges[e]->undelivered);
    }
    retransmits += static_cast<double>(r.retransmits);

    if (counted < kCountedEpochs) {
      ++counted;
      for (const net::EdgeTraffic* edge : edges) bytes += static_cast<double>(edge->bytes);
      sa_bytes += static_cast<double>(r.source_to_aggregator.bytes);
      sa_messages += static_cast<double>(r.source_to_aggregator.messages);
      answers += static_cast<double>(rec.live.size());
      if (r.answered) {
        ++counted_answered;
        coverage += r.coverage;
        for (const engine::QueryEpochOutcome& o : rec.outcomes) {
          verified += o.outcome.verified ? 1 : 0;
        }
      }
    }

    const double s = rec.host_scale;
    if (rec.traced) {
      ++traced;
      traced_latency_ms.push_back(rec.latency_ms * s);
      for (size_t l = 0; l < kLayerCount; ++l) {
        layers[l].calls += rec.layers[l].calls;
        layers[l].busy_s += rec.layers[l].busy_s;
        layers[l].max_s = std::max(layers[l].max_s, rec.layers[l].max_s);
      }
      report_source_s += r.source_cpu.total_seconds();
      report_merge_s += r.aggregator_cpu.total_seconds();
      report_evaluate_s += r.querier_cpu.total_seconds();
      return;
    }
    host_scale.push_back(s);
    samples.push_back({rec.latency_ms * s, r.source_cpu.MeanSeconds() * 1e6 * s,
                       r.aggregator_cpu.MeanSeconds() * 1e6 * s,
                       r.answered ? r.querier_cpu.total_seconds() * 1e3 * s : std::nan("")});
  }

  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const EpochSample& s : samples) out.push_back(s.latency_ms);
    return out;
  }

  void AddCacheDelta(const CacheCounters& from, const CacheCounters& to) {
    AddDelta(caches.querier, from.querier, to.querier);
    AddDelta(caches.source, from.source, to.source);
    ++cache_epochs;
  }
};

// ---------------------------------------------------------------------------
// The epoch loop
// ---------------------------------------------------------------------------

using Answers =
    std::vector<std::pair<uint64_t, std::vector<engine::QueryEpochOutcome>>>;

struct Run {
  std::vector<double> setup_s;  ///< scaled to the reference host
  HostReference host;
  Tally tally;
  CryptoCosts crypto;
  uint32_t initial_channels = 0;
  size_t initial_queries = 0;
  SpanRecorder recorder;
  AnswerCheck check;
  Answers answers;  ///< every answered epoch, with keep_answers
};

/// One burst of timed set-ups, each torn down before the next; returns
/// the last deployment. Fixed-epoch runs (--check, --smoke) measure
/// nothing and skip the burst's time floor.
StatusOr<std::unique_ptr<Deployment>> SetUpBurst(const WorkloadSpec& spec,
                                                 const RunConfig& cfg,
                                                 SpanRecorder* recorder, Run& run) {
  std::unique_ptr<Deployment> d;
  const double floor_ms = cfg.max_epochs > 0 ? 0.0 : kSetupBurstSeconds * 1e3;
  const Clock::time_point begin = Clock::now();
  for (int r = 0; r < kSetupRepeats || Ms(Clock::now() - begin) < floor_ms; ++r) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    auto made = SetUp(spec, cfg, recorder);
    const double seconds = Ms(Clock::now() - t0) / 1e3;
    if (!made.ok()) return made.status();
    d = std::move(made).value();
    run.setup_s.push_back(seconds * run.host.Scale());
  }
  return d;
}

StatusOr<std::unique_ptr<Run>> RunWorkload(const WorkloadSpec& spec,
                                           const RunConfig& cfg) {
  auto run = std::make_unique<Run>();
  SpanRecorder* recorder = cfg.traced ? &run->recorder : nullptr;
  auto made = SetUpBurst(spec, cfg, recorder, *run);
  if (!made.ok()) return made.status();
  std::unique_ptr<Deployment> d = std::move(made).value();
  run->initial_channels = d->engine->registry().plan().Count();
  run->initial_queries = d->engine->registry().active().size();
  if (cfg.traced) run->crypto = MeasureCrypto(d->engine->params());
  auto checker = ReferenceChecker::Make(spec, cfg, d->network->topology());
  if (!checker.ok()) return checker.status();

  TimedProtocol timed_protocol(*d->scheduler, run->recorder);
  Tally& tally = run->tally;
  const bool open_loop = spec.period_ms > 0.0;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(spec.period_ms));
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.seconds));
  const Clock::time_point origin = Clock::now();
  Clock::time_point timed_start{}, prev_end = origin;
  uint32_t traced_epochs = 0;
  // The previous epoch's start counters, when it was a timed
  // pass-through epoch.
  bool after_pass_through = false;
  CacheCounters pass_through{};

  for (uint64_t epoch = 1;; ++epoch) {
    EpochRecord rec;
    rec.epoch = epoch;
    rec.timed = epoch > kWarmupEpochs;
    const Clock::time_point due =
        open_loop ? origin + period * static_cast<int64_t>(epoch - 1)
                  : Clock::now();
    if (cfg.max_epochs > 0) {
      if (epoch > cfg.max_epochs) break;
    } else if (tally.timed >= kCountedEpochs && due - timed_start >= budget) {
      break;
    }
    if (open_loop) std::this_thread::sleep_until(due);
    const Clock::time_point start = Clock::now();
    if (epoch == kWarmupEpochs + 1) timed_start = open_loop ? due : start;
    rec.start_lag_ms = open_loop ? Ms(start - due) : Ms(start - prev_end);
    // Traced runs alternate recorded and pass-through epochs, so the
    // tracing overhead is measured under the same conditions.
    rec.traced = cfg.traced && rec.timed && epoch % 2 == 0;
    if (rec.traced) {
      run->recorder.BeginEpoch(epoch, traced_epochs++ < kSpanEpochs);
    } else {
      run->recorder.Pause();
    }

    StatusOr<net::EpochReport> report = Status::Internal("epoch not run");
    {
      ScopedLayer epoch_span(run->recorder, Layer::kEpoch);
      ChurnOps ops = ChurnAt(spec, cfg.seed, epoch);
      if (ops.admit) d->scheduler->QueueAdmit(*ops.admit);
      if (ops.teardown) d->scheduler->QueueTeardown(*ops.teardown);
      rec.control_ops = (ops.admit ? 1 : 0) + (ops.teardown ? 1 : 0);
      {
        ScopedLayer span(run->recorder, Layer::kApplyPending);
        // ApplyPending joins the t+1 prefetch first anyway; joining here
        // reads the cache counters with no derivation in flight.
        d->scheduler->JoinPrefetch();
        const CacheCounters counters = ReadCaches(*d->engine);
        if (after_pass_through) tally.AddCacheDelta(pass_through, counters);
        after_pass_through = rec.timed && !rec.traced;
        pass_through = counters;
        SIES_RETURN_IF_ERROR(d->scheduler->ApplyPending(epoch));
      }
      if (!d->engine->HasLiveChannels()) {
        return Status::FailedPrecondition("workload left no live query");
      }
      const engine::QueryRegistry& registry = d->engine->registry();
      rec.wire_channels = registry.plan().Count();
      for (const engine::ActiveQuery& aq : registry.active()) {
        rec.live.push_back(aq.query);
        auto slots = registry.plan().ChannelsOf(aq.query);
        if (!slots.ok()) return slots.status();
        rec.naive_channels += static_cast<uint32_t>(slots.value().size());
      }
      ScopedLayer span(run->recorder, Layer::kRunEpoch);
      report = rec.traced ? d->network->RunEpoch(timed_protocol, epoch)
                          : d->network->RunEpoch(*d->scheduler, epoch);
    }
    const Clock::time_point end = Clock::now();
    if (!report.ok()) return report.status();
    rec.latency_ms = Ms(end - due);
    rec.host_scale = run->host.Scale();
    prev_end = end;

    rec.report = std::move(report).value();
    if (rec.report.answered) rec.outcomes = d->scheduler->last_outcomes();
    if (rec.traced) {
      rec.layers = run->recorder.totals();
      rec.sent = d->timed_transport->TakeLog();
    }
    tally.Add(rec, spec.period_ms);
    checker.value()->Check(rec, run->check);
    if (cfg.keep_answers && rec.report.answered) {
      run->answers.emplace_back(epoch, std::move(rec.outcomes));
    }
  }
  run->recorder.Pause();
  d->scheduler->JoinPrefetch();
  if (after_pass_through) tally.AddCacheDelta(pass_through, ReadCaches(*d->engine));
  d.reset();
  auto last = SetUpBurst(spec, cfg, recorder, *run);
  if (!last.ok()) return last.status();
  return run;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Peak resident set of this process, from VmHWM. getrusage's ru_maxrss
/// would carry the harness's peak over the exec that started the binary.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

/// The mean of one timing over a run's pass-through epochs, unanswered
/// epochs (NaN) left out.
double MeanOf(const Tally& t, double EpochSample::*field) {
  double sum = 0.0, n = 0.0;
  for (const EpochSample& s : t.samples) {
    if (std::isnan(s.*field)) continue;
    sum += s.*field;
    n += 1.0;
  }
  return Ratio(sum, n);
}

/// End-to-end metrics, from every timed epoch of an untraced run. Times
/// are means over epochs, each epoch scaled to the reference host
/// (HostReference). A mean, not a median, so that paced_churn's
/// admission epochs, one in five, count.
std::vector<Metric> EndToEndMetrics(const Run& run) {
  const Tally& t = run.tally;
  return {
      {"epoch_ms", MeanOf(t, &EpochSample::latency_ms), "ms"},
      {"source_us", MeanOf(t, &EpochSample::source_us), "us"},
      {"aggregator_us", MeanOf(t, &EpochSample::aggregator_us), "us"},
      {"querier_ms", MeanOf(t, &EpochSample::querier_ms), "ms"},
      {"bytes_per_epoch", Ratio(t.bytes, static_cast<double>(t.counted)), "B"},
      {"sa_msg_bytes", Ratio(t.sa_bytes, t.sa_messages), "B"},
      {"coverage_mean", Ratio(t.coverage, static_cast<double>(t.counted_answered)),
       "ratio"},
      {"answered_ratio", Ratio(t.verified, t.answers), "ratio"},
      {"setup_s", Percentile(run.setup_s, 50), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metrics of a traced run: span totals from the recorded
/// epochs, program counters from the pass-through epochs between them.
std::vector<Metric> LayerMetrics(const Run& run) {
  const Tally& t = run.tally;
  auto busy = [&t](Layer layer) { return t.layers[static_cast<size_t>(layer)].busy_s; };
  const double traced = static_cast<double>(t.traced);
  const double timed = static_cast<double>(t.timed);
  const double cache_epochs = static_cast<double>(t.cache_epochs);
  const double source = busy(Layer::kSourceInit), merge = busy(Layer::kMerge);
  const double evaluate = busy(Layer::kEvaluate), derive = busy(Layer::kKeyDerive);
  const double apply = busy(Layer::kApplyPending), transport = busy(Layer::kTransport);
  const double run_self = busy(Layer::kRunEpoch) - source - merge - evaluate - transport;
  const double transport_calls =
      static_cast<double>(t.layers[static_cast<size_t>(Layer::kTransport)].calls);
  auto dev = [](double bench, double report) {
    return report == 0.0 ? 0.0 : std::fabs(bench - report) / report * 100.0;
  };
  auto lookups = [](const core::EpochKeyCache::Stats& s) {
    return static_cast<double>(s.global_hits + s.global_misses + s.source_hits +
                               s.source_misses);
  };
  auto hits = [](const core::EpochKeyCache::Stats& s) {
    return static_cast<double>(s.global_hits + s.source_hits);
  };
  const core::EpochKeyCache::Stats& qc = t.caches.querier;
  const core::EpochKeyCache::Stats& sc = t.caches.source;
  const auto& calls = run.recorder;
  return {
      {"engine.source_init.busy_ms", Ratio(source, traced) * 1e3, "ms"},
      {"engine.source_init.call_us_p50", Percentile(calls.call_us(Layer::kSourceInit), 50), "us"},
      {"engine.merge.busy_ms", Ratio(merge, traced) * 1e3, "ms"},
      {"engine.merge.call_us_p50", Percentile(calls.call_us(Layer::kMerge), 50), "us"},
      {"engine.evaluate.busy_ms", Ratio(evaluate, traced) * 1e3, "ms"},
      {"sies.key_derive_ms", Ratio(derive, traced) * 1e3, "ms"},
      {"sies.verify_ms", Ratio(evaluate - derive, traced) * 1e3, "ms"},
      {"sies.querier_cache.hit_ratio", Ratio(hits(qc), lookups(qc)), "ratio"},
      {"sies.querier_cache.lookups", Ratio(lookups(qc), cache_epochs), "count"},
      {"sies.querier_cache.evictions",
       Ratio(static_cast<double>(qc.evictions), cache_epochs), "count"},
      {"sies.source_cache.hit_ratio", Ratio(hits(sc), lookups(sc)), "ratio"},
      {"sies.source_cache.lookups", Ratio(lookups(sc), cache_epochs), "count"},
      {"engine.apply_pending_ms", Ratio(apply, traced) * 1e3, "ms"},
      {"engine.control_ops", Ratio(t.control_ops, timed), "count"},
      {"engine.wire_channels", Ratio(t.wire, timed), "count"},
      {"engine.dedup_ratio", Ratio(t.wire, t.naive), "ratio"},
      {"net.transport.calls", Ratio(transport_calls, traced), "count"},
      {"net.transport.busy_ms", Ratio(transport, traced) * 1e3, "ms"},
      {"net.transport.call_us_p50", Percentile(calls.call_us(Layer::kTransport), 50), "us"},
      {"net.transport.call_us_p99", Percentile(calls.call_us(Layer::kTransport), 99), "us"},
      {"net.transport.retransmits", Ratio(t.retransmits, timed), "count"},
      {"net.transport.undelivered", Ratio(t.undelivered, timed), "count"},
      {"net.run_epoch.self_ms", Ratio(run_self, traced) * 1e3, "ms"},
      {"net.bytes.sa", Ratio(t.edge_bytes[0], t.edge_messages[0]), "B"},
      {"net.bytes.aa", Ratio(t.edge_bytes[1], t.edge_messages[1]), "B"},
      {"net.bytes.aq", Ratio(t.edge_bytes[2], t.edge_messages[2]), "B"},
      {"crypto.hmac_ns", run.crypto.hmac_ns, "ns"},
      {"crypto.hmac_batch_ns", run.crypto.hmac_batch_ns, "ns"},
      {"crypto.fp_mul_ns", run.crypto.fp_mul_ns, "ns"},
      {"bench.epoch_ms_p90", Percentile(t.latencies_ms(), 90), "ms"},
      {"bench.start_lag_ms_p90", Percentile(t.start_lag_ms, 90), "ms"},
      {"bench.late_ratio", Ratio(t.late, timed), "ratio"},
      {"bench.timed_epochs", timed, "count"},
      {"bench.traced_epochs", traced, "count"},
      {"bench.host_factor", Percentile(t.host_scale, 50), "ratio"},
      {"trace.overhead_pct",
       (Ratio(Percentile(t.traced_latency_ms, 50), Percentile(t.latencies_ms(), 50)) - 1.0) *
           100.0,
       "%"},
      {"trace.attributed_share",
       Ratio(apply + source + merge + evaluate + transport, busy(Layer::kEpoch)), "ratio"},
      {"trace.reconcile_dev_pct",
       std::max({dev(source, t.report_source_s), dev(merge, t.report_merge_s),
                 dev(evaluate, t.report_evaluate_s)}),
       "%"},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(const WorkloadSpec& spec, const RunConfig& cfg, const Run& run,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"workload\": " + JsonString(spec.name);
  out += ", \"traced\": " + std::string(cfg.traced ? "true" : "false");
  out += ", \"correct\": " + std::string(run.check.failed == 0 ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(run.check.attempted);
  out += ", \"failed\": " + std::to_string(run.check.failed);
  if (!run.check.first_failure.empty()) {
    out += ", \"first_failure\": " + JsonString(run.check.first_failure);
  }
  out += ", \"config\": {\"num_sources\": " + std::to_string(spec.num_sources) +
         ", \"fanout\": " + std::to_string(kFanout) +
         ", \"transport\": " + JsonString(spec.udp ? "udp" : "sim") +
         ", \"loss_rate\": " + JsonNumber(spec.loss_rate) +
         ", \"max_retries\": " + std::to_string(spec.max_retries) +
         ", \"pipeline\": " + (spec.pipeline ? "true" : "false") +
         ", \"period_ms\": " + JsonNumber(spec.period_ms) +
         ", \"churn_every\": " + std::to_string(spec.churn_every) +
         ", \"initial_queries\": " + std::to_string(run.initial_queries) +
         ", \"initial_wire_channels\": " + std::to_string(run.initial_channels) +
         ", \"seed\": " + std::to_string(cfg.seed) +
         ", \"key_seed\": " + std::to_string(cfg.key_seed) +
         ", \"loss_seed\": " + std::to_string(cfg.loss_seed) +
         ", \"seconds\": " + JsonNumber(cfg.seconds) +
         ", \"timed_epochs\": " + std::to_string(run.tally.timed) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"kernel\": " + JsonString(crypto::Cpu().avx2 ? "avx2" : "scalar") + "}";
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// --check: the benchmark runs the program users run
// ---------------------------------------------------------------------------

bool SameAnswers(const Answers& a, const Answers& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second.size() != b[i].second.size()) {
      return false;
    }
    for (size_t k = 0; k < a[i].second.size(); ++k) {
      if (a[i].second[k].query_id != b[i].second[k].query_id ||
          !SameOutcome(a[i].second[k].outcome, b[i].second[k].outcome)) {
        return false;
      }
    }
  }
  return true;
}

/// The same workload through runner::RunEngineExperiment.
StatusOr<Answers> RunnerAnswers(const WorkloadSpec& spec, uint64_t seed,
                                uint32_t epochs) {
  runner::EngineExperimentConfig rc;
  auto initial = spec.initial_queries(seed);
  if (!initial.ok()) return initial.status();
  for (const core::Query& q : initial.value()) rc.queries.push_back({q, 1, 0});
  for (uint64_t e = 2; e <= epochs; ++e) {
    ChurnOps ops = ChurnAt(spec, seed, e);
    if (ops.admit) rc.queries.push_back({*ops.admit, e, 0});
    for (runner::EngineQuerySchedule& s : rc.queries) {
      if (ops.teardown && s.query.query_id == *ops.teardown) s.teardown_epoch = e;
    }
  }
  rc.num_sources = spec.num_sources;
  rc.fanout = kFanout;
  rc.epochs = epochs;
  rc.seed = seed;
  rc.threads = 1;
  rc.loss_rate = spec.loss_rate;
  rc.max_retries = spec.max_retries;
  rc.transport = spec.udp ? runner::EngineTransport::kUdp
                          : runner::EngineTransport::kSim;
  rc.pipeline = spec.pipeline;
  Answers out;
  rc.on_epoch_outcomes = [&out](uint64_t epoch, bool answered,
                                const std::vector<engine::QueryEpochOutcome>& o) {
    if (answered) out.emplace_back(epoch, o);
  };
  auto result = runner::RunEngineExperiment(rc);
  if (!result.ok()) return result.status();
  return out;
}

int RunCheck() {
  constexpr uint64_t kSeed = 3;
  constexpr uint32_t kEpochs = 12;
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const WorkloadSpec& spec : Workloads(/*smoke=*/true)) {
    RunConfig cfg;
    // The runner uses one seed for readings, keys and loss.
    cfg.seed = cfg.key_seed = cfg.loss_seed = kSeed;
    cfg.max_epochs = kEpochs;
    cfg.keep_answers = true;
    auto mine = RunWorkload(spec, cfg);
    if (!mine.ok()) {
      expect(false, spec.name + ": " + mine.status().ToString());
      continue;
    }
    const Run& run = *mine.value();
    expect(run.check.failed == 0 && run.check.attempted > 0,
           spec.name + ": " + std::to_string(run.check.attempted) +
               " answers match the reference " + run.check.first_failure);
    const Answers& answers = run.answers;
    auto runner_answers = RunnerAnswers(spec, kSeed, kEpochs);
    expect(runner_answers.ok() && SameAnswers(answers, runner_answers.value()),
           spec.name + ": outcomes equal runner::RunEngineExperiment's");
    cfg.traced = true;
    auto traced = RunWorkload(spec, cfg);
    expect(traced.ok() && traced.value()->check.failed == 0 &&
               SameAnswers(answers, traced.value()->answers),
           spec.name + ": the traced run gives the same outcomes");
    if (spec.udp) {
      bool partial = false;
      for (const auto& [epoch, outcomes] : answers) {
        for (const engine::QueryEpochOutcome& o : outcomes) {
          partial = partial || (o.outcome.verified && o.outcome.coverage < 1.0);
        }
      }
      expect(partial, spec.name + ": loss leaves verified partial epochs");
      WorkloadSpec sim = spec;
      sim.udp = false;
      cfg.traced = false;
      auto on_sim = RunWorkload(sim, cfg);
      expect(on_sim.ok() && SameAnswers(answers, on_sim.value()->answers),
             spec.name + ": outcomes equal the simulator transport's");
    }
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "epoch_e2e: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  // One socket per tree node under UDP: lift the soft descriptor limit.
  rlimit files{};
  if (getrlimit(RLIMIT_NOFILE, &files) == 0) {
    files.rlim_cur = files.rlim_max;
    setrlimit(RLIMIT_NOFILE, &files);
  }
  // Every thread the run starts (UDP receiver, key prefetch) inherits
  // one CPU with the run thread: a stop-and-wait handoff becomes a local
  // context switch and the SCHED_IDLE prefetch takes only the idle
  // gaps, as designed. Unpinned, where the kernel placed those threads
  // moved whole runs by 15-18% on a shared 4-CPU host.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  if (flags.Has("check")) return RunCheck();

  const std::string name = flags.GetString("workload", "");
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  auto seconds = flags.GetDouble("seconds", 10.0);
  auto epochs = flags.GetIntInRange("epochs", 0, 0, 1000000);
  auto traced = flags.GetBool("traced", false);
  auto smoke = flags.GetBool("smoke", false);
  RunConfig cfg;
  cfg.trace_out = flags.GetString("trace-out", "");
  for (const Status& s : {seed.status(), seconds.status(), epochs.status(),
                          traced.status(), smoke.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "epoch_e2e: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  if (!flags.UnusedFlags().empty()) {
    std::fprintf(stderr, "epoch_e2e: unknown flag --%s\n",
                 flags.UnusedFlags().front().c_str());
    return 2;
  }
  cfg.seed = static_cast<uint64_t>(seed.value());
  cfg.seconds = seconds.value();
  cfg.max_epochs = static_cast<uint32_t>(epochs.value());
  cfg.traced = traced.value();

  const std::vector<WorkloadSpec> specs = Workloads(smoke.value());
  auto spec = std::find_if(specs.begin(), specs.end(),
                           [&](const WorkloadSpec& s) { return s.name == name; });
  if (spec == specs.end()) {
    std::fprintf(stderr, "epoch_e2e: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  auto run = RunWorkload(*spec, cfg);
  if (!run.ok()) {
    std::fprintf(stderr, "epoch_e2e: %s\n", run.status().ToString().c_str());
    return 1;
  }
  if (cfg.traced && !cfg.trace_out.empty() &&
      !run.value()->recorder.WriteChromeTrace(cfg.trace_out)) {
    std::fprintf(stderr, "epoch_e2e: cannot write %s\n", cfg.trace_out.c_str());
    return 1;
  }
  const Run& r = *run.value();
  PrintResult(*spec, cfg, r, cfg.traced ? LayerMetrics(r) : EndToEndMetrics(r));
  if (r.check.failed != 0) {
    std::fprintf(stderr, "epoch_e2e: %llu wrong answers, first: %s\n",
                 static_cast<unsigned long long>(r.check.failed),
                 r.check.first_failure.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sies::bench_e2e

int main(int argc, char** argv) { return sies::bench_e2e::Main(argc, argv); }
