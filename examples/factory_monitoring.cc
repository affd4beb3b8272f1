// Factory monitoring (one of the paper's motivating applications):
// a 64-sensor plant floor answering a continuous filtered-AVG query
//
//   SELECT AVG(temperature) FROM Sensors
//   WHERE temperature >= 30.0 EPOCH DURATION 1000ms
//
// over the full simulated network, using the session API (two parallel
// SIES channels: SUM + COUNT) and μTesla to authenticate the query
// dissemination.
#include <cstdio>

#include <cmath>
#include <map>

#include "mutesla/mutesla.h"
#include "net/network.h"
#include "sies/session.h"
#include "workload/workload.h"

namespace {

using namespace sies;

// Binds the session API to the simulator.
class QueryProtocol : public net::AggregationProtocol {
 public:
  QueryProtocol(core::Query query, core::Params params,
                core::QuerierKeys keys, const net::Topology& topology,
                workload::TraceGenerator* trace)
      : topology_(topology),
        aggregator_(query, params),
        querier_(query, params, keys),
        trace_(trace) {
    for (net::NodeId node : topology.sources()) {
      uint32_t index = static_cast<uint32_t>(sources_.size());
      source_index_[node] = index;
      source_nodes_.push_back(node);
      sources_.emplace_back(query, params, index,
                            core::KeysForSource(keys, index).value());
    }
  }

  std::string Name() const override { return "SIES/session"; }

  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    uint32_t index = source_index_.at(id);
    return sources_[index].CreatePayload(trace_->ReadingAt(index, epoch),
                                         epoch);
  }

  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t, const std::vector<Bytes>& children) override {
    // Slot i is child i's envelope (empty if lost); the merge needs each
    // child's source range to report what went missing.
    return aggregator_.Merge(topology_.child_ranges(id), children);
  }

  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& /*participating*/) override {
    // The participating set rides in the payload's contributor field.
    auto outcome = querier_.Evaluate(final_payload, epoch);
    if (!outcome.ok()) return outcome.status();
    last_count_ = outcome.value().result.count;
    net::EvalOutcome out;
    out.value = outcome.value().result.value;
    out.verified = outcome.value().verified;
    out.has_contributors = true;
    for (uint32_t index : outcome.value().contributors) {
      out.contributors.push_back(source_nodes_[index]);
    }
    return out;
  }

  uint64_t last_count() const { return last_count_; }

 private:
  net::Topology topology_;
  core::AggregatorSession aggregator_;
  core::QuerierSession querier_;
  workload::TraceGenerator* trace_;
  std::map<net::NodeId, uint32_t> source_index_;
  std::vector<net::NodeId> source_nodes_;
  std::vector<core::SourceSession> sources_;
  uint64_t last_count_ = 0;
};

}  // namespace

int main() {
  constexpr uint32_t kN = 64;
  constexpr uint64_t kSeed = 99;

  // The continuous query (paper Section III-B template).
  core::Query query;
  query.aggregate = core::Aggregate::kAvg;
  query.attribute = core::Field::kTemperature;
  query.where =
      core::Predicate{core::Field::kTemperature,
                      core::CompareOp::kGreaterEqual, 30.0};
  query.scale_pow10 = 2;
  std::printf("registering query: %s\n", query.ToSql().c_str());

  // Authenticated dissemination via μTesla (Theorem 3).
  auto broadcaster =
      mutesla::Broadcaster::Create({9, 8, 7}, /*chain_length=*/64,
                                   /*disclosure_delay=*/1)
          .value();
  std::string sql = query.ToSql();
  Bytes query_bytes(sql.begin(), sql.end());
  auto packet = broadcaster.Broadcast(1, query_bytes).value();
  mutesla::Receiver receiver(broadcaster.commitment(), 1);
  if (!receiver.Accept(packet, 1).ok() ||
      receiver.OnDisclosure(broadcaster.Disclose(1).value())
          .value()
          .empty()) {
    std::printf("query dissemination failed authentication!\n");
    return 1;
  }
  std::printf("query authenticated at the sources via muTesla\n\n");

  // Build the network and run 5 epochs.
  auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
  net::Network network(topology);
  auto params = core::MakeParams(kN, kSeed).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  workload::TraceGenerator trace(tc);
  QueryProtocol protocol(query, params, keys, topology, &trace);

  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    auto report = network.RunEpoch(protocol, epoch).value();
    // Independent ground truth.
    double truth_sum = 0;
    uint64_t truth_count = 0;
    for (uint32_t i = 0; i < kN; ++i) {
      core::SensorReading r = trace.ReadingAt(i, epoch);
      if (query.where->Matches(r)) {
        truth_sum += std::trunc(r.temperature * 100.0);
        ++truth_count;
      }
    }
    double truth =
        truth_count == 0 ? 0.0 : truth_sum / 100.0 / truth_count;
    std::printf(
        "epoch %llu: AVG(temp | temp>=30) = %.4f degC over %llu sensors "
        "(truth %.4f), verified=%s, per-edge payload = %zu bytes\n",
        static_cast<unsigned long long>(epoch), report.outcome.value,
        static_cast<unsigned long long>(protocol.last_count()), truth,
        report.outcome.verified ? "yes" : "NO",
        static_cast<size_t>(report.source_to_aggregator.MeanBytes()));
    if (!report.outcome.verified) return 1;
  }
  return 0;
}
