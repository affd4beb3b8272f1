// Ablation: network lifetime under the first-order radio model.
//
// The paper's introduction motivates in-network aggregation with battery
// depletion near the sink. This bench runs all three schemes over the
// same topology and reports per-epoch radio energy and the "first node
// death" lifetime on a 2 x AA battery budget (~18.7 kJ usable).
#include <cstdio>

#include "net/energy.h"
#include "runner/runner.h"

int main() {
  using namespace sies;
  constexpr uint32_t kN = 64;
  constexpr double kBatteryJoules = 18700.0;  // ~2 AA cells

  std::printf(
      "=== Ablation: radio energy & lifetime (N=%u, F=4, J=300, first-"
      "order radio, 30 m hops) ===\n",
      kN);
  std::printf("%-10s %18s %18s %20s\n", "scheme", "net J/epoch",
              "hottest node J", "lifetime (epochs)");

  for (runner::Scheme scheme :
       {runner::Scheme::kSies, runner::Scheme::kCmt,
        runner::Scheme::kSecoa}) {
    // Bind the scheme exactly as the runner does, but keep the epoch
    // report to feed the energy model.
    runner::ExperimentConfig config;
    config.scheme = scheme;
    config.num_sources = kN;
    config.fanout = 4;
    config.secoa_j = 300;
    config.rsa_modulus_bits = 1024;

    auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
    net::Network network(topology);
    auto binding = runner::BindScheme(config, topology);
    if (!binding.ok()) {
      std::fprintf(stderr, "binding failed: %s\n",
                   binding.status().ToString().c_str());
      return 1;
    }
    engine::EpochScheduler* scheduler = binding.value().scheduler;
    if (scheduler != nullptr) {
      for (const runner::QuerySchedule& sched :
           runner::SiesSchedule(config)) {
        if (!scheduler->Admit(sched.query, 1).ok()) return 1;
      }
    }
    if (scheme == runner::Scheme::kSecoa) {
      std::fprintf(stderr, "running SECOA_S epoch (N=%u, J=300)...\n", kN);
    }
    net::AggregationProtocol& protocol = *binding.value().protocol;
    auto report = network.RunEpoch(protocol, 1);
    if (!report.ok()) {
      std::fprintf(stderr, "epoch failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    net::RadioParams radio;
    auto joules = net::EpochEnergyJoules(report.value(), radio);
    net::EnergySummary summary = net::Summarize(joules);
    double lifetime = net::LifetimeEpochs(summary, kBatteryJoules);
    std::printf("%-10s %15.3e J %15.3e J %17.3e\n",
                protocol.Name().c_str(), summary.total_joules,
                summary.max_node_joules, lifetime);
  }
  std::printf(
      "\nshape check: SECOA_S burns ~3 orders of magnitude more radio "
      "energy per epoch than SIES, so SIES-secured networks live ~1000x "
      "longer on the same batteries.\n");
  return 0;
}
