// Battlefield deployment (the paper's hostile-environment motivation):
// a COUNT query over 32 sensors ("how many posts detect movement?")
// while an active adversary tampers, replays, and drops traffic.
// Demonstrates that every attack from the threat model (Section III-C)
// is detected, while reported node failures are handled gracefully.
#include <cstdio>

#include "net/adversary.h"
#include "runner/runner.h"

using namespace sies;

namespace {

// Movement detection: source i "detects" movement when its light channel
// dips below a threshold; the COUNT query sums 0/1 indicators.
struct Scenario {
  static constexpr uint32_t kN = 32;

  Scenario()
      : topology(net::Topology::BuildCompleteTree(kN, 4).value()),
        network(topology),
        params(core::MakeParams(kN, 17).value()),
        keys(core::GenerateKeys(params, {1, 7})),
        trace([] {
          workload::TraceConfig c;
          c.num_sources = kN;
          c.seed = 17;
          return workload::TraceGenerator(c);
        }()),
        protocol(params, keys, topology, [this](uint32_t i, uint64_t e) {
          return trace.ReadingAt(i, e).light < 400.0 ? 1ull : 0ull;
        }) {}

  uint64_t TrueCount(uint64_t epoch) {
    uint64_t count = 0;
    for (uint32_t i = 0; i < kN; ++i) {
      if (trace.ReadingAt(i, epoch).light < 400.0) ++count;
    }
    return count;
  }

  net::Topology topology;
  net::Network network;
  core::Params params;
  core::QuerierKeys keys;
  workload::TraceGenerator trace;
  runner::SiesProtocol protocol;
};

}  // namespace

int main() {
  Scenario scenario;
  std::printf("SELECT COUNT(*) FROM Sensors WHERE movement EPOCH 1000ms\n");
  std::printf("32 posts, fanout-4 aggregation tree, epoch-by-epoch:\n\n");
  int failures = 0;

  // Epoch 1-2: quiet network.
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    auto report = scenario.network.RunEpoch(scenario.protocol, epoch).value();
    bool exact = report.outcome.value ==
                 static_cast<double>(scenario.TrueCount(epoch));
    std::printf("epoch %llu (quiet)     : count=%2.0f verified=%-3s exact=%s\n",
                static_cast<unsigned long long>(epoch), report.outcome.value,
                report.outcome.verified ? "yes" : "NO",
                exact ? "yes" : "NO");
    if (!report.outcome.verified || !exact) ++failures;
  }

  // Epoch 3: an enemy transmitter flips bits on the sink uplink.
  {
    net::BitFlipAdversary adversary(scenario.topology.root(), 42);
    scenario.network.SetAdversary(&adversary);
    auto report = scenario.network.RunEpoch(scenario.protocol, 3);
    bool detected = !report.ok() || !report.value().outcome.verified;
    std::printf("epoch 3 (bit-flip)  : attack detected=%s\n",
                detected ? "yes" : "NO -- SECURITY FAILURE");
    if (!detected) ++failures;
    scenario.network.SetAdversary(nullptr);
  }

  // Epoch 4-5: replay of epoch-4 traffic at epoch 5.
  {
    net::ReplayAdversary adversary(4);
    scenario.network.SetAdversary(&adversary);
    auto ok_report = scenario.network.RunEpoch(scenario.protocol, 4).value();
    auto replayed = scenario.network.RunEpoch(scenario.protocol, 5).value();
    std::printf("epoch 4 (captured)  : verified=%s\n",
                ok_report.outcome.verified ? "yes" : "NO");
    std::printf("epoch 5 (replayed)  : attack detected=%s (%llu payloads "
                "replayed)\n",
                !replayed.outcome.verified ? "yes" : "NO -- SECURITY FAILURE",
                static_cast<unsigned long long>(adversary.replayed_count()));
    if (!ok_report.outcome.verified || replayed.outcome.verified) ++failures;
    scenario.network.SetAdversary(nullptr);
  }

  // Epoch 6: a compromised aggregator silently drops a subtree. The
  // contributor set exposes the suppression: the sum is accepted
  // only as an explicit partial over the surviving posts, never as the
  // full count.
  {
    net::NodeId victim = scenario.topology.children(
        scenario.topology.root())[0];
    net::DropAdversary adversary(victim);
    scenario.network.SetAdversary(&adversary);
    auto report = scenario.network.RunEpoch(scenario.protocol, 6).value();
    bool exposed = report.outcome.verified && report.coverage < 1.0;
    std::printf("epoch 6 (drop)      : suppression exposed=%s "
                "(%u of %u posts reported)\n",
                exposed ? "yes" : "NO -- SECURITY FAILURE",
                report.contributing_sources, report.expected_contributors);
    if (!exposed) ++failures;
    scenario.network.SetAdversary(nullptr);
  }

  // Epoch 7: two posts legitimately fail and are reported; the querier
  // verifies against the reduced participant set.
  {
    scenario.network.FailSource(scenario.topology.sources()[3]);
    scenario.network.FailSource(scenario.topology.sources()[19]);
    auto report = scenario.network.RunEpoch(scenario.protocol, 7).value();
    std::printf("epoch 7 (2 failures): verified=%s (reported failures are "
                "not attacks)\n",
                report.outcome.verified ? "yes" : "NO");
    if (!report.outcome.verified) ++failures;
    scenario.network.HealAllSources();
  }

  std::printf("\n%s\n", failures == 0
                            ? "all attacks detected; honest traffic verified"
                            : "SECURITY FAILURES PRESENT");
  return failures == 0 ? 0 : 1;
}
