#include "net/network.h"

#include <gtest/gtest.h>

#include "net/adversary.h"

namespace sies::net {
namespace {

// A trivial unsecured protocol: payloads are 8-byte big-endian partial
// sums. Isolates the simulator mechanics from any cryptography.
class PlainSumProtocol : public AggregationProtocol {
 public:
  std::string Name() const override { return "PlainSum"; }

  StatusOr<Bytes> SourceInitialize(NodeId id, uint64_t epoch) override {
    return EncodeUint64(Value(id, epoch));
  }

  StatusOr<Bytes> AggregatorMerge(NodeId, uint64_t,
                                  const std::vector<Bytes>& children) override {
    uint64_t sum = 0;
    for (const Bytes& child : children) {
      if (child.empty()) continue;  // nothing arrived from this child
      if (child.size() != 8) {
        return Status::InvalidArgument("bad payload");
      }
      sum += LoadBigEndian64(child.data());
    }
    return EncodeUint64(sum);
  }

  StatusOr<EvalOutcome> QuerierEvaluate(
      uint64_t, const Bytes& final_payload,
      const std::vector<NodeId>&) override {
    if (final_payload.size() != 8) {
      return Status::InvalidArgument("bad payload");
    }
    EvalOutcome outcome;
    outcome.value = static_cast<double>(LoadBigEndian64(final_payload.data()));
    outcome.verified = true;
    return outcome;
  }

  static uint64_t Value(NodeId id, uint64_t epoch) {
    return 100 * static_cast<uint64_t>(id) + epoch;
  }
};

uint64_t ExpectedSum(const Topology& t, uint64_t epoch) {
  uint64_t sum = 0;
  for (NodeId src : t.sources()) sum += PlainSumProtocol::Value(src, epoch);
  return sum;
}

TEST(NetworkTest, ComputesExactSum) {
  Network net(Topology::BuildCompleteTree(16, 4).value());
  PlainSumProtocol protocol;
  auto report = net.RunEpoch(protocol, 3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().outcome.value,
            static_cast<double>(ExpectedSum(net.topology(), 3)));
}

TEST(NetworkTest, CpuSamplesCounted) {
  Network net(Topology::BuildCompleteTree(16, 4).value());
  PlainSumProtocol protocol;
  auto report = net.RunEpoch(protocol, 1).value();
  EXPECT_EQ(report.source_cpu.samples(), 16u);
  EXPECT_EQ(report.aggregator_cpu.samples(),
            net.topology().num_aggregators());
  EXPECT_EQ(report.querier_cpu.samples(), 1u);
}

TEST(NetworkTest, TrafficAccounting) {
  Network net(Topology::BuildCompleteTree(16, 4).value());
  PlainSumProtocol protocol;
  auto report = net.RunEpoch(protocol, 1).value();
  // 16 sources each send one 8-byte payload to an aggregator.
  EXPECT_EQ(report.source_to_aggregator.messages, 16u);
  EXPECT_EQ(report.source_to_aggregator.bytes, 16u * 8);
  // 4 internal aggregators send to the root.
  EXPECT_EQ(report.aggregator_to_aggregator.messages, 4u);
  // The root sends exactly one message to the querier.
  EXPECT_EQ(report.aggregator_to_querier.messages, 1u);
  EXPECT_EQ(report.aggregator_to_querier.bytes, 8u);
  EXPECT_DOUBLE_EQ(report.source_to_aggregator.MeanBytes(), 8.0);
}

TEST(NetworkTest, FailedSourceExcludedFromSumAndParticipants) {
  Network net(Topology::BuildCompleteTree(8, 2).value());
  PlainSumProtocol protocol;
  NodeId victim = net.topology().sources()[0];
  net.FailSource(victim);
  auto report = net.RunEpoch(protocol, 5).value();
  EXPECT_EQ(report.outcome.value,
            static_cast<double>(ExpectedSum(net.topology(), 5) -
                                PlainSumProtocol::Value(victim, 5)));
  EXPECT_EQ(report.source_cpu.samples(), 7u);
}

TEST(NetworkTest, HealRestoresSources) {
  Network net(Topology::BuildCompleteTree(4, 2).value());
  PlainSumProtocol protocol;
  net.FailSource(net.topology().sources()[0]);
  net.HealAllSources();
  auto report = net.RunEpoch(protocol, 1).value();
  EXPECT_EQ(report.source_cpu.samples(), 4u);
}

TEST(NetworkTest, AllSourcesFailedMeansUnansweredEpoch) {
  Network net(Topology::BuildCompleteTree(2, 2).value());
  PlainSumProtocol protocol;
  for (NodeId src : net.topology().sources()) net.FailSource(src);
  auto report = net.RunEpoch(protocol, 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().answered);
  EXPECT_FALSE(report.value().outcome.verified);
  EXPECT_DOUBLE_EQ(report.value().coverage, 0.0);
}

TEST(NetworkTest, AdversaryCanMutatePayloads) {
  Network net(Topology::BuildCompleteTree(4, 2).value());
  PlainSumProtocol protocol;
  // Add 1000 to everything flowing into the querier.
  CallbackAdversary adv([&](Message& msg) {
    if (msg.to == kQuerierId) {
      uint64_t v = LoadBigEndian64(msg.payload.data());
      StoreBigEndian64(v + 1000, msg.payload.data());
    }
    return true;
  });
  net.SetAdversary(&adv);
  auto report = net.RunEpoch(protocol, 2).value();
  EXPECT_EQ(report.outcome.value,
            static_cast<double>(ExpectedSum(net.topology(), 2) + 1000));
}

TEST(NetworkTest, AdversaryCanDropSubtree) {
  Network net(Topology::BuildCompleteTree(4, 2).value());
  PlainSumProtocol protocol;
  NodeId victim = net.topology().sources()[0];
  DropAdversary adv(victim);
  net.SetAdversary(&adv);
  auto report = net.RunEpoch(protocol, 2).value();
  EXPECT_EQ(report.outcome.value,
            static_cast<double>(ExpectedSum(net.topology(), 2) -
                                PlainSumProtocol::Value(victim, 2)));
  EXPECT_EQ(adv.dropped_count(), 1u);
  // The drop happens in flight: the victim still radiates (tx counted),
  // but the frame never arrives (one undelivered message).
  EXPECT_EQ(report.source_to_aggregator.messages, 4u);
  EXPECT_EQ(report.source_to_aggregator.undelivered, 1u);
}

TEST(NetworkTest, MultipleEpochsIndependent) {
  Network net(Topology::BuildCompleteTree(9, 3).value());
  PlainSumProtocol protocol;
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    auto report = net.RunEpoch(protocol, epoch).value();
    EXPECT_EQ(report.outcome.value,
              static_cast<double>(ExpectedSum(net.topology(), epoch)));
    EXPECT_EQ(report.epoch, epoch);
  }
}

TEST(NetworkTest, LossRateValidation) {
  Network net(Topology::BuildCompleteTree(4, 2).value());
  EXPECT_FALSE(net.SetLossRate(-0.1, 1).ok());
  EXPECT_FALSE(net.SetLossRate(1.1, 1).ok());
  EXPECT_TRUE(net.SetLossRate(0.0, 1).ok());
  EXPECT_TRUE(net.SetLossRate(0.5, 1).ok());
  // A total blackout is a legitimate fault model.
  EXPECT_TRUE(net.SetLossRate(1.0, 1).ok());
}

TEST(NetworkTest, LossyChannelDropsMessages) {
  Network net(Topology::BuildCompleteTree(64, 4).value());
  PlainSumProtocol protocol;
  ASSERT_TRUE(net.SetLossRate(0.3, 42).ok());
  uint64_t delivered = 0;
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    auto report = net.RunEpoch(protocol, epoch);
    if (report.ok()) {
      delivered += report.value().source_to_aggregator.messages;
    }
  }
  EXPECT_GT(net.lost_messages(), 0u);
  // ~30% of ~640+ messages should be gone.
  EXPECT_GT(net.lost_messages(), 100u);
  EXPECT_LT(net.lost_messages(), 400u);
  (void)delivered;
}

TEST(NetworkTest, LossIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Network net(Topology::BuildCompleteTree(32, 4).value());
    PlainSumProtocol protocol;
    EXPECT_TRUE(net.SetLossRate(0.2, seed).ok());
    for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
      (void)net.RunEpoch(protocol, epoch);
    }
    return net.lost_messages();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(NetworkTest, UnreportedLossLooksLikeMissingData) {
  // With a lossy channel and no failure reporting, sums are silently
  // smaller than the truth — the operational reason SIES's share check
  // matters: it turns silent loss into a visible verification failure
  // (see SiesLossTest in security/attack_test.cc).
  Network net(Topology::BuildCompleteTree(32, 4).value());
  PlainSumProtocol protocol;
  ASSERT_TRUE(net.SetLossRate(0.25, 9).ok());
  bool any_loss_epoch = false;
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    uint64_t lost_before = net.lost_messages();
    auto report = net.RunEpoch(protocol, epoch);
    if (!report.ok()) continue;  // final message itself lost
    if (net.lost_messages() > lost_before) {
      any_loss_epoch = true;
      EXPECT_LT(report.value().outcome.value,
                static_cast<double>(ExpectedSum(net.topology(), epoch)));
    }
  }
  EXPECT_TRUE(any_loss_epoch);
}

TEST(NetworkTest, MergeSeesOneSlotPerChildEmptyWhereLost) {
  // Records every merge's slots, and which senders' messages survived
  // the loss model (the adversary hook sees exactly the delivered ones).
  class SlotProbe : public PlainSumProtocol {
   public:
    StatusOr<Bytes> AggregatorMerge(
        NodeId id, uint64_t epoch,
        const std::vector<Bytes>& children) override {
      std::vector<bool> filled;
      for (const Bytes& child : children) filled.push_back(!child.empty());
      calls.push_back({id, filled});
      return PlainSumProtocol::AggregatorMerge(id, epoch, children);
    }
    std::vector<std::pair<NodeId, std::vector<bool>>> calls;
  };
  class DeliveryLog : public Adversary {
   public:
    bool OnMessage(Message& msg) override {
      delivered.push_back(msg.from);
      return true;
    }
    std::vector<NodeId> delivered;
  };
  Xoshiro256 rng(31);
  Network net(Topology::BuildRandomTree(80, 4, rng).value());
  const Topology& t = net.topology();
  ASSERT_TRUE(net.SetLossRate(0.3, 5).ok());
  size_t empty_slots = 0;
  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    SlotProbe protocol;
    DeliveryLog log;
    net.SetAdversary(&log);
    ASSERT_TRUE(net.RunEpoch(protocol, epoch).ok());
    std::vector<bool> arrived(t.num_nodes(), false);
    for (NodeId from : log.delivered) arrived[from] = true;
    // Exactly the aggregators with at least one arrival merge, once.
    std::vector<bool> merged(t.num_nodes(), false);
    for (const auto& [agg, filled] : protocol.calls) {
      EXPECT_FALSE(merged[agg]);
      merged[agg] = true;
      const std::span<const NodeId> children = t.children(agg);
      ASSERT_EQ(filled.size(), children.size()) << "aggregator " << agg;
      for (size_t i = 0; i < children.size(); ++i) {
        EXPECT_EQ(filled[i], arrived[children[i]])
            << "aggregator " << agg << " slot " << i;
        if (!filled[i]) ++empty_slots;
      }
    }
    for (NodeId agg : t.aggregators_bottom_up()) {
      bool any = false;
      for (NodeId child : t.children(agg)) any = any || arrived[child];
      EXPECT_EQ(merged[agg], any) << "aggregator " << agg;
    }
  }
  net.SetAdversary(nullptr);
  EXPECT_GT(empty_slots, 0u) << "the loss model dropped nothing";
}

TEST(NetworkTest, SingleSourceTree) {
  Network net(Topology::BuildCompleteTree(1, 4).value());
  PlainSumProtocol protocol;
  auto report = net.RunEpoch(protocol, 7).value();
  EXPECT_EQ(report.outcome.value,
            static_cast<double>(ExpectedSum(net.topology(), 7)));
  EXPECT_EQ(report.aggregator_to_querier.messages, 1u);
}

}  // namespace
}  // namespace sies::net
