// Ablation: network lifetime under the first-order radio model.
//
// The paper's introduction motivates in-network aggregation with battery
// depletion near the sink. This bench runs all three schemes over the
// same topology and reports per-epoch radio energy and the "first node
// death" lifetime on a 2 x AA battery budget (~18.7 kJ usable).
#include <cstdio>

#include <memory>

#include "engine/epoch_scheduler.h"
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
    // Build the protocol exactly as the runner does, but keep the epoch
    // report to feed the energy model.
    runner::ExperimentConfig config;
    config.scheme = scheme;
    config.num_sources = kN;
    config.fanout = 4;
    config.epochs = 1;
    config.secoa_j = 300;
    config.rsa_modulus_bits = 1024;

    auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
    net::Network network(topology);
    workload::TraceConfig tc;
    tc.num_sources = kN;
    tc.seed = config.seed;
    auto trace = std::make_shared<workload::TraceGenerator>(tc);
    runner::ValueFn values = [trace](uint32_t i, uint64_t e) {
      return trace->ValueAt(i, e);
    };
    Bytes master_seed = EncodeUint64(config.seed);
    std::unique_ptr<net::AggregationProtocol> protocol;
    switch (scheme) {
      case runner::Scheme::kSies: {
        auto params = core::MakeParams(kN, config.seed).value();
        auto scheduler = std::make_unique<engine::EpochScheduler>(
            std::make_shared<engine::MultiQueryEngine>(
                params, core::GenerateKeys(params, master_seed)),
            topology, [trace](uint32_t i, uint64_t e) {
              return trace->ReadingAt(i, e);
            });
        if (!scheduler->Admit(core::Query{}, 1).ok()) return 1;  // SUM
        protocol = std::move(scheduler);
        break;
      }
      case runner::Scheme::kCmt: {
        auto params = cmt::MakeParams(kN, config.seed).value();
        protocol = std::make_unique<runner::CmtProtocol>(
            params, cmt::GenerateKeys(params, master_seed), topology,
            values);
        break;
      }
      case runner::Scheme::kSecoa: {
        Xoshiro256 rng(config.seed);
        auto kp = crypto::GenerateRsaKeyPair(1024, rng, 3).value();
        secoa::SealOps ops(kp.public_key);
        secoa::SumParams params{kN, 300, config.seed};
        protocol = std::make_unique<runner::SecoaProtocol>(
            ops, params, secoa::GenerateKeys(kN, master_seed), topology,
            values);
        std::fprintf(stderr, "running SECOA_S epoch (N=%u, J=300)...\n",
                     kN);
        break;
      }
    }
    auto report = network.RunEpoch(*protocol, 1);
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
                protocol->Name().c_str(), summary.total_joules,
                summary.max_node_joules, lifetime);
  }
  std::printf(
      "\nshape check: SECOA_S burns ~3 orders of magnitude more radio "
      "energy per epoch than SIES, so SIES-secured networks live ~1000x "
      "longer on the same batteries.\n");
  return 0;
}
