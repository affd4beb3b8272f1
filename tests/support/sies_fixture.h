// SiesFixture: a ready-to-run SIES network for tests — one
// SUM(temperature) query (id 0, admitted at epoch 1) through the
// multi-query engine's EpochScheduler over a simulated net::Network,
// the same binding RunExperiment and ContinuousDeployment use.
//
// The engine answers in attribute units (sum / 10^k,
// core::CombineChannels); ExactSum gives the trace's truth in the same
// units, computed by the same expression, so an exact answer compares
// with ==.
#ifndef SIES_TESTS_SUPPORT_SIES_FIXTURE_H_
#define SIES_TESTS_SUPPORT_SIES_FIXTURE_H_

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "net/network.h"
#include "workload/workload.h"

namespace sies::testutil {

struct SiesFixture {
  /// N sources on a complete `fanout`-ary tree; params, keys and the
  /// i.i.d. trace all derive from `seed`.
  explicit SiesFixture(uint32_t n = 16, uint32_t fanout = 4,
                       uint64_t seed = 21)
      : SiesFixture(net::Topology::BuildCompleteTree(n, fanout).value(),
                    core::MakeParams(n, seed).value(), Trace(n, seed),
                    seed) {}

  /// Any topology, params and trace; `key_seed` seeds the key material.
  /// The query's scale is the trace's.
  SiesFixture(net::Topology topology, core::Params p,
              workload::TraceConfig trace_config, uint64_t key_seed)
      : network(std::move(topology)),
        params(std::move(p)),
        keys(core::GenerateKeys(params, EncodeUint64(key_seed))),
        trace(trace_config),
        scheduler(std::make_shared<engine::MultiQueryEngine>(params, keys),
                  network.topology(), [this](uint32_t i, uint64_t e) {
                    return trace.ReadingAt(i, e);
                  }) {
    query.scale_pow10 = trace_config.scale_pow10;
    Status admitted = scheduler.Admit(query, 1);
    EXPECT_TRUE(admitted.ok()) << admitted.ToString();
  }

  static workload::TraceConfig Trace(uint32_t n, uint64_t seed) {
    workload::TraceConfig c;
    c.num_sources = n;
    c.seed = seed;
    return c;
  }

  /// A scaled integer sum in the engine's units.
  double Units(uint64_t scaled) const {
    return static_cast<double>(scaled) / std::pow(10.0, query.scale_pow10);
  }

  /// The exact SUM over every source at `epoch`.
  double ExactSum(uint64_t epoch) {
    return Units(workload::Snapshot(trace, epoch).exact_sum);
  }

  /// The exact SUM over exactly `contributors` (topology node ids).
  double ExactSum(const std::vector<net::NodeId>& contributors,
                  uint64_t epoch) {
    uint64_t sum = 0;
    for (net::NodeId node : contributors) {
      sum += trace.ValueAt(network.topology().SourceIndex(node).value(),
                           epoch);
    }
    return Units(sum);
  }

  net::Network network;
  core::Params params;
  core::QuerierKeys keys;
  workload::TraceGenerator trace;
  core::Query query;  ///< SUM(temperature), id 0
  engine::EpochScheduler scheduler;
};

}  // namespace sies::testutil

#endif  // SIES_TESTS_SUPPORT_SIES_FIXTURE_H_
