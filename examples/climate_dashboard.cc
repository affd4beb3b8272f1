// Building-climate dashboard: ties the operational layers together —
// wall-clock epochs (EpochClock), a verified temperature histogram per
// epoch (HistogramQuerier), quantile tracking, a smooth random-walk
// workload, and the querier's ResultLog with its under-attack alarm.
#include <cstdio>

#include "net/adversary.h"
#include "net/network.h"
#include "sies/epoch_clock.h"
#include "sies/histogram.h"
#include "sies/result_log.h"
#include "workload/workload.h"

using namespace sies;

namespace {

// Binds the histogram sessions to the simulator.
class HistogramProtocol : public net::AggregationProtocol {
 public:
  HistogramProtocol(core::HistogramQuery query, core::Params params,
                    core::QuerierKeys keys, const net::Topology& topology,
                    workload::TraceGenerator* trace)
      : query_(query),
        aggregator_(query, params),
        querier_(query, params, keys),
        trace_(trace) {
    for (net::NodeId node : topology.sources()) {
      uint32_t index = static_cast<uint32_t>(sources_.size());
      source_index_[node] = index;
      sources_.emplace_back(query, params, index,
                            core::KeysForSource(keys, index).value());
    }
  }

  std::string Name() const override { return "SIES/histogram"; }

  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    uint32_t index = source_index_.at(id);
    return sources_[index].CreatePayload(trace_->ReadingAt(index, epoch),
                                         epoch);
  }

  StatusOr<Bytes> AggregatorMerge(
      net::NodeId, uint64_t, const std::vector<Bytes>& children) override {
    return aggregator_.Merge(net::ArrivedPayloads(children));
  }

  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override {
    std::vector<uint32_t> indices;
    for (net::NodeId node : participating) {
      indices.push_back(source_index_.at(node));
    }
    auto histogram = querier_.Evaluate(final_payload, epoch, indices);
    if (!histogram.ok()) return histogram.status();
    last_histogram_ = histogram.value();
    net::EvalOutcome outcome;
    outcome.verified = last_histogram_.verified;
    auto median = last_histogram_.Quantile(query_, 0.5);
    outcome.value = median.ok() ? median.value() : 0.0;
    return outcome;
  }

  const core::Histogram& last_histogram() const { return last_histogram_; }

 private:
  core::HistogramQuery query_;
  core::HistogramAggregator aggregator_;
  core::HistogramQuerier querier_;
  workload::TraceGenerator* trace_;
  std::map<net::NodeId, uint32_t> source_index_;
  std::vector<core::HistogramSource> sources_;
  core::Histogram last_histogram_;
};

void PrintBar(uint64_t count, uint64_t total) {
  int width = total == 0 ? 0 : static_cast<int>(40.0 * count / total);
  for (int i = 0; i < width; ++i) std::putchar('#');
  std::putchar('\n');
}

}  // namespace

int main() {
  constexpr uint32_t kN = 48;
  constexpr uint64_t kSeed = 11;

  // Wall-clock epochs: 1 s period, genesis at t=0.
  auto clock = core::EpochClock::Create(1000, 0).value();

  core::HistogramQuery query;
  query.attribute = core::Field::kTemperature;
  query.lower = 18.0;
  query.upper = 50.0;
  query.buckets = 8;

  auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
  net::Network network(topology);
  auto params = core::MakeParams(kN, kSeed).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  tc.temporal_model = workload::TemporalModel::kRandomWalk;
  workload::TraceGenerator trace(tc);
  HistogramProtocol protocol(query, params, keys, topology, &trace);
  core::ResultLog log(/*window=*/16);

  std::printf("building climate dashboard: %u sensors, verified %u-bucket "
              "histogram of temperature per 1 s epoch\n\n",
              kN, query.buckets);

  uint64_t now_ms = 1000;  // simulation wall clock
  for (int tick = 0; tick < 6; ++tick, now_ms += 1000) {
    uint64_t epoch = clock.EpochAt(now_ms);
    // Epoch 4 is attacked in flight.
    net::BitFlipAdversary adversary(topology.root(), 17);
    if (epoch == 4) network.SetAdversary(&adversary);
    auto report = network.RunEpoch(protocol, epoch);
    network.SetAdversary(nullptr);
    if (!report.ok()) continue;
    bool verified = report.value().outcome.verified;
    if (!log.Record(epoch, report.value().outcome.value, verified).ok()) {
      return 1;
    }
    std::printf("epoch %llu (t=%llums) %s\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(now_ms),
                verified ? "[verified]" : "[REJECTED - tampering]");
    if (verified) {
      const core::Histogram& h = protocol.last_histogram();
      double width = (query.upper - query.lower) / query.buckets;
      for (uint32_t b = 0; b < query.buckets; ++b) {
        std::printf("  [%4.1f,%4.1f) %2llu ", query.lower + b * width,
                    query.lower + (b + 1) * width,
                    static_cast<unsigned long long>(h.counts[b]));
        PrintBar(h.counts[b], h.Total());
      }
      std::printf("  median ~ %.1f C, p90 ~ %.1f C\n\n",
                  h.Quantile(query, 0.5).value(),
                  h.Quantile(query, 0.9).value());
    } else {
      std::printf("  (result discarded)\n\n");
    }
  }

  core::RollingStats stats = log.Stats();
  std::printf("log: %llu epochs, %llu rejected, %llu missed; median of "
              "medians %.1f C; under attack: %s\n",
              static_cast<unsigned long long>(log.recorded_epochs()),
              static_cast<unsigned long long>(log.rejected_epochs()),
              static_cast<unsigned long long>(log.missed_epochs()),
              stats.mean, log.UnderAttack() ? "YES" : "no");
  // Exactly one epoch (the attacked one) must have been rejected.
  return log.rejected_epochs() == 1 ? 0 : 1;
}
