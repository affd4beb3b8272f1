// Factory monitoring (one of the paper's motivating applications):
// a 64-sensor plant floor answering a continuous filtered-AVG query
//
//   SELECT AVG(temperature) FROM Sensors
//   WHERE temperature >= 30.0 EPOCH DURATION 1000ms
//
// over the full simulated network: ContinuousDeployment authenticates
// the query dissemination with μTesla at every source, then runs the
// query's two parallel SIES channels (SUM + COUNT) each epoch.
#include <cstdio>

#include <cmath>

#include "runner/deployment.h"

int main() {
  using namespace sies;
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

  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  auto deployment = runner::ContinuousDeployment::Create(
      net::Topology::BuildCompleteTree(kN, 4).value(), kSeed, tc);
  if (!deployment.ok()) return 1;

  // Authenticated dissemination via μTesla (Theorem 3).
  Status registered = deployment.value().RegisterQuery(query);
  if (!registered.ok()) {
    std::printf("query dissemination failed authentication: %s\n",
                registered.ToString().c_str());
    return 1;
  }
  std::printf("query authenticated at all %u sources via muTesla\n\n", kN);

  // Independent ground truth from a second copy of the same trace.
  workload::TraceGenerator trace(tc);
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    auto out = deployment.value().RunEpoch(epoch);
    if (!out.ok()) return 1;
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
        "(truth %.4f), verified=%s\n",
        static_cast<unsigned long long>(epoch), out.value().result.value,
        static_cast<unsigned long long>(out.value().result.count), truth,
        out.value().verified ? "yes" : "NO");
    if (!out.value().verified) return 1;
  }
  return 0;
}
