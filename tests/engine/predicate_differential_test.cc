// Differential test for compiled range queries: the engine's dyadic
// bucket channels must produce answers BIT-IDENTICAL to (a) one direct
// band QuerierSession evaluating the predicate at the source, and (b)
// brute-force per-bucket independent QuerierSessions whose outcomes are
// summed — across full participation, loss, tampering, and live
// admission — while using at most 2 * ceil(log2 D) channels per kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "engine/engine.h"
#include "oracle/session.h"
#include "predicate/answer.h"
#include "predicate/compiler.h"
#include "predicate/dyadic.h"
#include "workload/workload.h"

namespace sies::engine {
namespace {

constexpr uint32_t kN = 16;
constexpr uint64_t kSeed = 23;

core::Query BandQuery(core::Aggregate aggregate, uint32_t id, double lo,
                      double hi, uint32_t scale = 2,
                      core::Field field = core::Field::kTemperature) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = field;
  q.scale_pow10 = scale;
  q.query_id = id;
  core::Band band;
  band.field = field;
  band.lo = lo;
  band.hi = hi;
  q.band = band;
  return q;
}

core::Query PlainQuery(core::Aggregate aggregate, uint32_t id) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = core::Field::kTemperature;
  q.scale_pow10 = 2;
  q.query_id = id;
  return q;
}

class Fixture {
 public:
  Fixture() {
    params_ = core::MakeParams(kN, kSeed, /*value_bytes=*/8).value();
    keys_ = core::GenerateKeys(params_, EncodeUint64(kSeed));
    workload::TraceConfig tc;
    tc.num_sources = kN;
    tc.seed = kSeed;
    trace_ = std::make_unique<workload::TraceGenerator>(tc);
    // Every round merges at one root with the kN sources as children.
    for (uint32_t i = 0; i < kN; ++i) star_.push_back({i, i + 1});
  }

  MultiQueryEngine MakeEngine() const {
    return MultiQueryEngine(params_, keys_);
  }

  StatusOr<Bytes> EngineRound(const MultiQueryEngine& eng,
                              const std::vector<uint32_t>& participants,
                              uint64_t epoch) {
    std::vector<Bytes> payloads(kN);  // empty slot: did not transmit
    for (uint32_t i : participants) {
      auto p = eng.CreateSourcePayload(i, trace_->ReadingAt(i, epoch), epoch);
      if (!p.ok()) return p.status();
      payloads[i] = std::move(p).value();
    }
    return eng.Merge(star_, payloads);
  }

  /// The same epoch through ONE independent session (the direct band
  /// path: sources gate their transmission on band membership).
  StatusOr<core::EpochOutcome> SessionEpoch(
      const core::Query& query, const std::vector<uint32_t>& participants,
      uint64_t epoch) {
    std::vector<Bytes> payloads(kN);
    for (uint32_t i : participants) {
      core::SourceSession source(query, params_, i,
                                 core::KeysForSource(keys_, i).value());
      auto p = source.CreatePayload(trace_->ReadingAt(i, epoch), epoch);
      if (!p.ok()) return p.status();
      payloads[i] = std::move(p).value();
    }
    core::AggregatorSession aggregator(query, params_);
    auto merged = aggregator.Merge(star_, payloads);
    if (!merged.ok()) return merged.status();
    core::QuerierSession querier(query, params_, keys_);
    return querier.Evaluate(merged.value(), epoch);
  }

  /// Brute force: one fully independent session PER DYADIC BUCKET of
  /// the band, summing counts and (integer-valued) sums across the
  /// buckets. Exact because the cover partitions the band.
  struct BucketedTruth {
    uint64_t count = 0;
    double value_sum = 0.0;  ///< Σ per-bucket values (exact integers)
    bool verified = true;
    size_t buckets = 0;
  };
  StatusOr<BucketedTruth> PerBucketSessions(
      const core::Query& query, const std::vector<uint32_t>& participants,
      uint64_t epoch) {
    auto scaled = predicate::QuantizeBand(*query.band, query.scale_pow10);
    if (!scaled.ok()) return scaled.status();
    auto cover =
        predicate::DyadicDecompose(scaled.value().lo, scaled.value().hi);
    if (!cover.ok()) return cover.status();
    const double descale = std::pow(10.0, query.scale_pow10);
    BucketedTruth truth;
    truth.buckets = cover.value().size();
    for (const predicate::DyadicInterval& iv : cover.value()) {
      core::Query bucket = query;
      bucket.band->lo = static_cast<double>(iv.Lo()) / descale;
      bucket.band->hi = static_cast<double>(iv.Hi()) / descale;
      auto outcome = SessionEpoch(bucket, participants, epoch);
      if (!outcome.ok()) return outcome.status();
      truth.count += outcome.value().result.count;
      truth.value_sum += outcome.value().result.value;
      truth.verified = truth.verified && outcome.value().verified;
    }
    return truth;
  }

  core::Params params_{};
  core::QuerierKeys keys_;
  std::unique_ptr<workload::TraceGenerator> trace_;
  std::vector<net::SourceRange> star_;
};

std::vector<uint32_t> AllSources() {
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < kN; ++i) all.push_back(i);
  return all;
}

std::vector<uint32_t> EveryOtherSource() {
  std::vector<uint32_t> some;
  for (uint32_t i = 0; i < kN; i += 2) some.push_back(i);
  return some;
}

// The matrix core: a COUNT band query through the engine vs both
// ground truths, at several epochs and participation sets.
void ExpectBandCountMatches(Fixture& f, const core::Query& band_query,
                            const std::vector<uint32_t>& participants,
                            uint64_t epoch) {
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(band_query, 1).ok());

  // Channel-cost acceptance: the compiled slots stay within the
  // 2 * ceil(log2 D) per-kind ceiling.
  auto slots = eng.registry().plan().ChannelsOf(band_query);
  ASSERT_TRUE(slots.ok());
  EXPECT_LE(slots.value().size(), predicate::MaxChannelsFor(band_query));

  auto merged = f.EngineRound(eng, participants, epoch);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto outcomes = eng.Evaluate(merged.value(), epoch);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), 1u);
  const core::EpochOutcome& got = outcomes.value()[0].outcome;

  // Ground truth (a): the direct band session.
  auto direct = f.SessionEpoch(band_query, participants, epoch);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(got.result.value, direct.value().result.value);
  EXPECT_EQ(got.result.count, direct.value().result.count);
  EXPECT_EQ(got.verified, direct.value().verified);
  EXPECT_EQ(got.contributors, direct.value().contributors);
  EXPECT_EQ(got.coverage, direct.value().coverage);

  // Ground truth (b): independent per-bucket sessions, summed.
  auto truth = f.PerBucketSessions(band_query, participants, epoch);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_TRUE(truth.value().verified);
  EXPECT_EQ(got.result.count, truth.value().count);
  EXPECT_EQ(got.result.value, static_cast<double>(truth.value().count));
  EXPECT_EQ(slots.value().size(), truth.value().buckets)
      << "engine must use exactly the dyadic cover, one channel each";
}

TEST(PredicateDifferentialTest, CountBandFullParticipation) {
  Fixture f;
  for (uint64_t epoch : {1u, 3u}) {
    ExpectBandCountMatches(
        f, BandQuery(core::Aggregate::kCount, 0, 20.0, 30.0), AllSources(),
        epoch);
  }
}

TEST(PredicateDifferentialTest, CountBandUnderLoss) {
  Fixture f;
  ExpectBandCountMatches(f,
                         BandQuery(core::Aggregate::kCount, 0, 20.0, 30.0),
                         EveryOtherSource(), 2);
  ExpectBandCountMatches(f,
                         BandQuery(core::Aggregate::kCount, 0, 33.3, 47.1),
                         EveryOtherSource(), 5);
}

TEST(PredicateDifferentialTest, SumBandMatchesPerBucketSessions) {
  // Scale 0: every per-bucket SUM is integer-valued, so the summed
  // session values are exact and the comparison is bit-identical.
  Fixture f;
  core::Query q = BandQuery(core::Aggregate::kSum, 0, 20.0, 40.0,
                            /*scale=*/0);
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(q, 1).ok());
  auto merged = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(merged.ok());
  auto outcomes = eng.Evaluate(merged.value(), 1);
  ASSERT_TRUE(outcomes.ok());
  const core::EpochOutcome& got = outcomes.value()[0].outcome;

  auto truth = f.PerBucketSessions(q, AllSources(), 1);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(got.result.value, truth.value().value_sum);
  EXPECT_EQ(got.result.count, truth.value().count);

  auto direct = f.SessionEpoch(q, AllSources(), 1);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(got.result.value, direct.value().result.value);
  EXPECT_EQ(got.verified, direct.value().verified);
}

TEST(PredicateDifferentialTest, AvgAndVarianceBandsMatchDirectSession) {
  // Multi-kind band queries (SUM+COUNT, +SUMSQ): assembled from bucket
  // sums per kind, bit-identical to the direct band session.
  Fixture f;
  for (auto aggregate : {core::Aggregate::kAvg, core::Aggregate::kVariance}) {
    core::Query q = BandQuery(aggregate, 0, 22.0, 41.5);
    MultiQueryEngine eng = f.MakeEngine();
    ASSERT_TRUE(eng.Admit(q, 1).ok());
    auto merged = f.EngineRound(eng, AllSources(), 1);
    ASSERT_TRUE(merged.ok());
    auto outcomes = eng.Evaluate(merged.value(), 1);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    auto direct = f.SessionEpoch(q, AllSources(), 1);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(outcomes.value()[0].outcome.result.value,
              direct.value().result.value)
        << q.ToSql();
    EXPECT_EQ(outcomes.value()[0].outcome.result.count,
              direct.value().result.count);
    EXPECT_EQ(outcomes.value()[0].outcome.verified,
              direct.value().verified);
  }
}

TEST(PredicateDifferentialTest, TamperFailsBandButIsolatesCoBatched) {
  // Corrupting the envelope's final byte lands in the LAST bucket
  // channel (bucket salts allocate from the top of the salt space, so
  // the band's buckets sit at the end of the wire order). The band
  // query must fail verification; the co-batched plain query on clean
  // low-salt channels must still verify.
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  ASSERT_TRUE(eng.Admit(PlainQuery(core::Aggregate::kSum, 0), 1).ok());
  ASSERT_TRUE(
      eng.Admit(BandQuery(core::Aggregate::kCount, 1, 20.0, 30.0), 1).ok());
  auto merged = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(merged.ok());
  Bytes tampered = merged.value();
  tampered.back() ^= 0x01;
  auto outcomes = eng.Evaluate(tampered, 1);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes.value().size(), 2u);
  EXPECT_TRUE(outcomes.value()[0].outcome.verified)
      << "plain SUM does not read the corrupted bucket channel";
  EXPECT_FALSE(outcomes.value()[1].outcome.verified)
      << "band COUNT reads the corrupted bucket channel";
}

TEST(PredicateDifferentialTest, LiveAdmissionAndTeardownOfBandQuery) {
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  core::Query plain = PlainQuery(core::Aggregate::kAvg, 0);
  core::Query band = BandQuery(core::Aggregate::kCount, 1, 20.0, 30.0);
  ASSERT_TRUE(eng.Admit(plain, 1).ok());

  // Epoch 1: plain only.
  auto m1 = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(m1.ok());
  auto o1 = eng.Evaluate(m1.value(), 1);
  ASSERT_TRUE(o1.ok());
  ASSERT_EQ(o1.value().size(), 1u);

  // Epoch 2: the band query joins live and must match its direct
  // session immediately.
  ASSERT_TRUE(eng.Admit(band, 2).ok());
  auto m2 = f.EngineRound(eng, AllSources(), 2);
  ASSERT_TRUE(m2.ok());
  auto o2 = eng.Evaluate(m2.value(), 2);
  ASSERT_TRUE(o2.ok());
  ASSERT_EQ(o2.value().size(), 2u);
  auto direct = f.SessionEpoch(band, AllSources(), 2);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(o2.value()[1].outcome.result.value,
            direct.value().result.value);
  EXPECT_TRUE(o2.value()[1].outcome.verified);

  // Epoch 3: torn down — its bucket channels leave the wire.
  const size_t width_with_band = eng.WireBytes();
  ASSERT_TRUE(eng.Teardown(band.query_id, 3).ok());
  EXPECT_LT(eng.WireBytes(), width_with_band);
  auto m3 = f.EngineRound(eng, AllSources(), 3);
  ASSERT_TRUE(m3.ok());
  auto o3 = eng.Evaluate(m3.value(), 3);
  ASSERT_TRUE(o3.ok());
  ASSERT_EQ(o3.value().size(), 1u);
  auto plain_direct = f.SessionEpoch(plain, AllSources(), 3);
  ASSERT_TRUE(plain_direct.ok());
  EXPECT_EQ(o3.value()[0].outcome.result.value,
            plain_direct.value().result.value);
}

TEST(PredicateDifferentialTest, OverlappingBandsDedupSharedBuckets) {
  // Two overlapping ranges share canonical dyadic nodes, so the plan
  // must hold FEWER slots than the sum of their compiled channels.
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  core::Query a = BandQuery(core::Aggregate::kCount, 0, 20.0, 30.0);
  core::Query b = BandQuery(core::Aggregate::kCount, 1, 20.0, 35.0);
  ASSERT_TRUE(eng.Admit(a, 1).ok());
  ASSERT_TRUE(eng.Admit(b, 1).ok());
  auto sa = eng.registry().plan().ChannelsOf(a);
  auto sb = eng.registry().plan().ChannelsOf(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_LT(eng.registry().plan().Count(),
            sa.value().size() + sb.value().size())
      << "shared dyadic nodes must dedup";
  // And both still answer exactly.
  auto merged = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(merged.ok());
  auto outcomes = eng.Evaluate(merged.value(), 1);
  ASSERT_TRUE(outcomes.ok());
  for (size_t i = 0; i < 2; ++i) {
    const core::Query& q = i == 0 ? a : b;
    auto direct = f.SessionEpoch(q, AllSources(), 1);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(outcomes.value()[i].outcome.result.value,
              direct.value().result.value);
    EXPECT_TRUE(outcomes.value()[i].outcome.verified);
  }
}

TEST(PredicateDifferentialTest, HistogramCellsThroughTheEngine) {
  // A compiled histogram end to end: each cell's verified COUNT equals a
  // brute-force count over the readings of the sources that took part
  // (with and without a WHERE filter on every cell); a flipped bit fails
  // exactly the cells reading the corrupted wire channel; a replayed
  // envelope fails every cell.
  Fixture f;
  predicate::HistogramSpec spec;
  spec.lo = 18.0;
  spec.hi = 50.0;
  spec.buckets = 8;
  auto cells = predicate::CompileHistogram(spec, /*first_query_id=*/0);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  auto bounds = predicate::PartitionBands(spec.lo, spec.hi, spec.buckets,
                                          spec.scale_pow10);
  ASSERT_TRUE(bounds.ok());
  auto assemble = [&](const std::vector<QueryEpochOutcome>& outcomes) {
    std::vector<core::EpochOutcome> cell_outcomes;
    for (const QueryEpochOutcome& qo : outcomes) {
      cell_outcomes.push_back(qo.outcome);
    }
    return predicate::AssembleCells(spec.lo, spec.hi, spec.buckets,
                                    spec.scale_pow10, cell_outcomes)
        .value();
  };

  const core::Predicate below_30{core::Field::kTemperature,
                                 core::CompareOp::kLess, 30.0};
  for (const std::optional<core::Predicate>& where :
       {std::optional<core::Predicate>(), std::optional(below_30)}) {
    MultiQueryEngine eng = f.MakeEngine();
    for (core::Query cell : cells.value()) {
      cell.where = where;
      ASSERT_TRUE(eng.Admit(cell, 1).ok());
    }
    for (const auto& [participants, epoch] :
         {std::pair{AllSources(), uint64_t{1}},
          std::pair{EveryOtherSource(), uint64_t{4}}}) {
      auto merged = f.EngineRound(eng, participants, epoch);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      auto outcomes = eng.Evaluate(merged.value(), epoch);
      ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
      const predicate::ShapeAnswer histogram = assemble(outcomes.value());
      EXPECT_TRUE(histogram.all_verified);
      uint64_t total = 0;
      for (size_t c = 0; c < histogram.cells.size(); ++c) {
        uint64_t brute = 0;
        for (uint32_t i : participants) {
          const core::SensorReading r = f.trace_->ReadingAt(i, epoch);
          const uint64_t v =
              core::ScaledFieldValue(r, spec.field, spec.scale_pow10)
                  .value();
          if (v >= bounds.value()[c].scaled_lo &&
              v <= bounds.value()[c].scaled_hi &&
              (!where.has_value() || where->Matches(r))) {
            ++brute;
          }
        }
        EXPECT_EQ(histogram.cells[c].count, brute)
            << "cell " << c << " epoch " << epoch;
        total += brute;
      }
      EXPECT_EQ(histogram.total_count, total);
      if (!where.has_value()) {
        EXPECT_EQ(total, participants.size());
      }
    }
  }

  MultiQueryEngine eng = f.MakeEngine();
  for (const core::Query& cell : cells.value()) {
    ASSERT_TRUE(eng.Admit(cell, 1).ok());
  }

  // Tamper: flip the low bit of one channel's PSR at a time. A lossless
  // root envelope has an empty contributor field, so slot s is bytes
  // [s * width, (s + 1) * width) of the payload.
  auto merged = f.EngineRound(eng, AllSources(), 2);
  ASSERT_TRUE(merged.ok());
  const size_t width = f.params_.PsrBytes();
  const uint32_t slots = eng.registry().plan().Count();
  ASSERT_EQ(merged.value().size(), slots * width);
  for (uint32_t slot = 0; slot < slots; ++slot) {
    Bytes tampered = merged.value();
    tampered[(slot + 1) * width - 1] ^= 0x01;
    auto outcomes = eng.Evaluate(tampered, 2);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    size_t failed = 0;
    for (size_t c = 0; c < cells.value().size(); ++c) {
      auto read = eng.registry().plan().ChannelsOf(cells.value()[c]);
      ASSERT_TRUE(read.ok());
      const bool reads_slot = std::find(read.value().begin(),
                                        read.value().end(),
                                        slot) != read.value().end();
      EXPECT_EQ(outcomes.value()[c].outcome.verified, !reads_slot)
          << "cell " << c << " slot " << slot;
      if (reads_slot) ++failed;
    }
    EXPECT_GE(failed, 1u) << "slot " << slot << " is read by no cell";
    EXPECT_FALSE(assemble(outcomes.value()).all_verified);
  }

  // Replay: epoch 2's envelope presented as epoch 3's.
  auto replayed = eng.Evaluate(merged.value(), 3);
  ASSERT_TRUE(replayed.ok());
  for (const QueryEpochOutcome& qo : replayed.value()) {
    EXPECT_FALSE(qo.outcome.verified) << "cell q" << qo.query_id;
  }
}

}  // namespace
}  // namespace sies::engine
