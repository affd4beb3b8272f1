#include "engine/engine.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/timer.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/trace.h"

namespace sies::engine {

using core::Channel;

namespace {

// The engine's parameters with the fixed-width context already built,
// so the aggregator, the querier and all N sources copy one shared
// context (Params::Fp) instead of each building its own.
core::Params WithFpContext(core::Params params) {
  params.Fp();
  return params;
}

// The N sources, sharing one K_t cache; each holds copies of the
// schedules of K and of its own k_i.
std::vector<core::Source> MakeSources(
    const core::Params& params, const crypto::PrfKey& global_key,
    const std::vector<crypto::PrfKey>& source_keys,
    const std::shared_ptr<core::EpochKeyCache>& cache) {
  std::vector<core::Source> sources;
  sources.reserve(params.num_sources);
  for (uint32_t i = 0; i < params.num_sources; ++i) {
    sources.emplace_back(params, i, global_key, source_keys[i]);
    sources.back().SetEpochKeyCache(cache);
  }
  return sources;
}

const char* ChannelKindName(Channel kind) {
  switch (kind) {
    case Channel::kSum:
      return "sum";
    case Channel::kSumSquares:
      return "sum_squares";
    case Channel::kCount:
      return "count";
  }
  return "?";
}

}  // namespace

MultiQueryEngine::MultiQueryEngine(core::Params params,
                                   core::QuerierKeys keys)
    : MultiQueryEngine(WithFpContext(std::move(params)),
                       crypto::PrfKey(keys.global_key),
                       crypto::ScheduleKeys(keys.source_keys)) {
  SecureWipe(keys.global_key);
  for (Bytes& key : keys.source_keys) SecureWipe(key);
}

MultiQueryEngine::MultiQueryEngine(core::Params params,
                                   const crypto::PrfKey& global_key,
                                   std::vector<crypto::PrfKey> source_keys)
    : params_(std::move(params)),
      source_cache_(std::make_shared<core::EpochKeyCache>()),
      sources_(MakeSources(params_, global_key, source_keys, source_cache_)),
      aggregator_(params_),
      querier_(params_, global_key, std::move(source_keys)) {}

MultiQueryEngine::~MultiQueryEngine() {
  // A teardown frees the engine's two big allocations at once: the
  // querier's key tables and the N sources. glibc keeps freed memory
  // resident in two places: below an arena's highest live chunk (key
  // tables a prefetch thread derived sit in that thread's arena, and
  // where its highest chunk lands differs from run to run: up to 1.2 MB
  // at N=512), and at the top of the main heap up to twice the largest
  // block it recently unmapped, which is typically the sources' own
  // block. So the engine frees both here and returns the free pages;
  // unlike free(), malloc_trim also releases whole pages below an
  // arena's highest live chunk.
  querier_.ClearEpochKeyCache();
  std::vector<core::Source>().swap(sources_);
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void MultiQueryEngine::ReserveCaches() {
  // Plan-driven sizing (re-derived on every admit/teardown): each
  // physical channel touches ONE salted epoch per table per real epoch,
  // and with pipelined prefetch the FIFO tables momentarily hold THREE
  // real epochs' working sets at once — epoch t-1's entries have not
  // aged out yet when the prefetch thread derives t+1 while t is live.
  // Eviction is strict FIFO and the prefetched t+1 entries sit at the
  // deque front, so a two-epoch budget evicts exactly the entries the
  // next evaluation needs and the cache degenerates into pure thrash
  // (zero hits). The fixed "assume a few channels per query" prefactor
  // this replaced was fine for 1-3-channel queries but collapsed on
  // compiled range queries, whose dyadic covers put up to 2⌈log₂ D⌉
  // buckets *per kind* in the plan; Count() is the compiled channel
  // total, so the bound scales with whatever the predicate compiler
  // emits. +2 keeps headroom for a query admitted mid-epoch, whose
  // first salted epochs land while the outgoing set is still pinned.
  // The regression test (tests/engine/predicate_cache_test) asserts
  // zero premature evictions for a dyadic range mix under exactly this
  // bound, prefetch included.
  const size_t want = 3 * static_cast<size_t>(registry_.plan().Count()) + 2;
  source_cache_->Reserve(want);
  querier_.ReserveEpochKeyCapacity(want);
}

Status MultiQueryEngine::Admit(const core::Query& query, uint64_t epoch) {
  SIES_RETURN_IF_ERROR(registry_.Admit(query, epoch));
  ReserveCaches();
  return Status::OK();
}

Status MultiQueryEngine::Teardown(uint32_t query_id, uint64_t epoch) {
  return registry_.Teardown(query_id, epoch);
}

size_t MultiQueryEngine::WireBytes() const {
  return core::WireEnvelopeBytes(params_, registry_.plan().Count());
}

void MultiQueryEngine::SetThreadPool(common::ThreadPool* pool) {
  pool_ = pool;
  querier_.SetThreadPool(pool);
}

std::vector<uint64_t> MultiQueryEngine::SaltedEpochsFor(
    uint64_t epoch) const {
  const auto& channels = registry_.plan().channels();
  std::vector<uint64_t> salted;
  salted.reserve(channels.size());
  for (const PhysicalChannel& ch : channels) {
    salted.push_back(ch.SaltedEpochFor(epoch));
  }
  return salted;
}

void MultiQueryEngine::WarmSaltedEpochs(
    const std::vector<uint64_t>& salted) const {
  for (uint64_t s : salted) querier_.WarmEpoch(s, /*use_pool=*/false);
}

void MultiQueryEngine::PrefetchEpochKeys(uint64_t epoch) const {
  WarmSaltedEpochs(SaltedEpochsFor(epoch));
}

StatusOr<Bytes> MultiQueryEngine::CreateSourcePayload(
    uint32_t index, const core::SensorReading& reading,
    uint64_t epoch) const {
  if (index >= sources_.size()) {
    return Status::InvalidArgument("source index out of range");
  }
  const auto& channels = registry_.plan().channels();
  if (channels.empty()) {
    return Status::FailedPrecondition("no live queries to serve");
  }
  const size_t width = params_.PsrBytes();
  Bytes body(channels.size() * width);
  for (size_t i = 0; i < channels.size(); ++i) {
    const PhysicalChannel& ch = channels[i];
    auto value = ch.spec.ValueFor(reading);
    if (!value.ok()) return value.status();
    // Straight into the body at the channel's offset — one allocation
    // for the whole multi-channel payload instead of one per channel.
    SIES_RETURN_IF_ERROR(sources_[index].CreatePsrInto(
        value.value(), ch.SaltedEpochFor(epoch), body.data() + i * width));
  }
  return body;
}

StatusOr<Bytes> MultiQueryEngine::Merge(
    std::span<const net::SourceRange> child_ranges,
    const std::vector<Bytes>& children) const {
  return aggregator_.MergeWire(child_ranges, children,
                               registry_.plan().Count());
}

StatusOr<std::vector<QueryEpochOutcome>> MultiQueryEngine::Evaluate(
    const Bytes& final_payload, uint64_t epoch) const {
  // Times the four querier sub-phases only the engine can see; its
  // caller (Network::RunEpoch) times the whole call.
  auto& timeline = telemetry::EpochTimeline::Global();
  const bool attribute = timeline.enabled();
  std::optional<Stopwatch> phase_watch = StartIf(attribute);
  const auto& channels = registry_.plan().channels();
  auto parsed = core::ParseWireEnvelope(
      params_, {0, params_.num_sources}, final_payload, channels.size());
  if (attribute) {
    timeline.RecordPhase(telemetry::EpochPhase::kWireParse,
                         phase_watch->ElapsedSeconds());
  }
  if (!parsed.ok()) return parsed.status();
  const Bytes& body = parsed.value().body;
  const std::vector<uint32_t> participating =
      parsed.value().contributors.Indices();
  const size_t width = params_.PsrBytes();

  // Decrypt + verify every physical channel exactly once; a channel
  // shared by M queries is paid for once, not M times. Each lane writes
  // its own slot, so the fan-out is bit-identical for any thread count
  // (nested pool use inside Querier::Evaluate runs inline).
  struct ChannelEval {
    Status status;
    uint64_t sum = 0;
    bool verified = false;
  };
  std::vector<ChannelEval> evals(channels.size());
  auto eval_one = [&](size_t i) {
    const std::optional<Stopwatch> verify_watch = StartIf(attribute);
    auto eval =
        querier_.EvaluateSlice(body.data() + i * width, width,
                               channels[i].SaltedEpochFor(epoch),
                               participating);
    if (!eval.ok()) {
      evals[i].status = eval.status();
      return;
    }
    evals[i].sum = eval.value().sum;
    evals[i].verified = eval.value().verified;
    if (attribute) {
      // Per-channel verify attribution: slot + salt + kind identify the
      // wire slot, tid shows which pool lane paid for it.
      telemetry::ChannelVerifySample sample;
      sample.slot = static_cast<uint32_t>(i);
      sample.salt_id = channels[i].salt_id;
      sample.kind = ChannelKindName(channels[i].spec.kind);
      if (channels[i].spec.bucket.has_value()) {
        sample.bucket_level = static_cast<int32_t>(
            channels[i].spec.bucket->interval.level);
        sample.bucket_index = channels[i].spec.bucket->interval.index;
      }
      sample.seconds = verify_watch->ElapsedSeconds();
      sample.verified = evals[i].verified;
      sample.tid = telemetry::Tracer::CurrentThreadId();
      timeline.RecordChannelVerify(sample);
    }
  };
  // Warm every channel's epoch material from this thread first, so the
  // cold N-way derivations run their group fan-out over the full pool.
  // Reached cold from inside a lane below, they would run inline on that
  // single lane instead (ThreadPool nesting serializes). Key derivation
  // thereby lands in its own phase instead of inflating the first
  // channel's verify sample, whether or not the timeline records.
  phase_watch = StartIf(attribute);
  for (size_t i = 0; i < channels.size(); ++i) {
    querier_.WarmEpoch(channels[i].SaltedEpochFor(epoch));
  }
  if (attribute) {
    timeline.RecordPhase(telemetry::EpochPhase::kKeyDerive,
                         phase_watch->ElapsedSeconds());
  }
  if (pool_ != nullptr) {
    pool_->ParallelFor(channels.size(), eval_one);
  } else {
    for (size_t i = 0; i < channels.size(); ++i) eval_one(i);
  }
  for (const ChannelEval& eval : evals) {
    if (!eval.status.ok()) return eval.status;
  }

  // Assemble per-query outcomes from the shared channel sums. A
  // corrupted channel poisons only the queries whose plan includes it.
  phase_watch = StartIf(attribute);
  std::vector<QueryEpochOutcome> outcomes;
  outcomes.reserve(registry_.active().size());
  for (const ActiveQuery& aq : registry_.active()) {
    auto slots = registry_.plan().ChannelsOf(aq.query);
    if (!slots.ok()) return slots.status();
    // Accumulate per kind: a plain query reads exactly one slot per
    // kind (the += degenerates to the old assignment), a compiled band
    // query sums its kind's dyadic buckets — the cover partitions the
    // band, so the accumulated sums equal the direct band evaluation's
    // channel sums bit for bit.
    uint64_t sum = 0, sum_squares = 0, count = 0;
    bool verified = true;
    for (size_t slot : slots.value()) {
      const ChannelEval& eval = evals[slot];
      verified = verified && eval.verified;
      switch (channels[slot].spec.kind) {
        case Channel::kSum:
          sum += eval.sum;
          break;
        case Channel::kSumSquares:
          sum_squares += eval.sum;
          break;
        case Channel::kCount:
          count += eval.sum;
          break;
      }
    }
    auto outcome =
        core::AssembleOutcome(aq.query, params_.num_sources, sum,
                              sum_squares, count, verified, participating);
    if (!outcome.ok()) return outcome.status();
    outcomes.push_back(
        QueryEpochOutcome{aq.query.query_id, std::move(outcome).value()});
  }
  if (attribute) {
    timeline.RecordPhase(telemetry::EpochPhase::kAssemble,
                         phase_watch->ElapsedSeconds());
  }
  return outcomes;
}

}  // namespace sies::engine
