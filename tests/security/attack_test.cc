// Integration-level security tests: the four properties of Section I
// exercised through the full simulator with in-flight adversaries
// (Theorems 1-4), plus the negative control on CMT.
#include <gtest/gtest.h>

#include "mutesla/mutesla.h"
#include "net/adversary.h"
#include "runner/runner.h"
#include "sies/message_format.h"
#include "sies/query.h"
#include "support/sies_fixture.h"
#include "telemetry/audit.h"

namespace sies::runner {
namespace {

using testutil::SiesFixture;

// Width of an envelope's contributor field: everything before the
// trailing PSR (0 for a lossless envelope).
size_t FieldBytes(const core::Params& params, const Bytes& envelope) {
  return envelope.size() - params.PsrBytes();
}

TEST(SiesAttackTest, HonestRunsVerifyAndAreExact) {
  SiesFixture fx;
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    auto report = fx.network.RunEpoch(fx.scheduler, epoch).value();
    EXPECT_TRUE(report.outcome.verified) << "epoch " << epoch;
    EXPECT_EQ(report.outcome.value, fx.ExactSum(epoch));
  }
}

TEST(SiesAttackTest, BitFlipOnAnyEdgeDetected) {
  // Flip one bit of a different node's payload each epoch; the querier
  // must never verify.
  SiesFixture fx;
  for (net::NodeId target = 0; target < fx.network.topology().num_nodes();
       target += 3) {
    net::BitFlipAdversary adv(target, /*bit_index=*/100);
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 50 + target);
    if (!report.ok()) continue;  // non-residue PSR rejected: also detected
    if (adv.tampered_count() == 0) continue;
    EXPECT_FALSE(report.value().outcome.verified)
        << "tamper at node " << target << " slipped through";
  }
  fx.network.SetAdversary(nullptr);
}

TEST(SiesAttackTest, ReplayAttackDetected) {
  // Capture epoch 1 traffic, replay it from epoch 2 on (Theorem 4).
  SiesFixture fx;
  net::ReplayAdversary adv(/*capture_epoch=*/1);
  fx.network.SetAdversary(&adv);
  auto captured = fx.network.RunEpoch(fx.scheduler, 1).value();
  EXPECT_TRUE(captured.outcome.verified);
  auto replayed = fx.network.RunEpoch(fx.scheduler, 2).value();
  EXPECT_GT(adv.replayed_count(), 0u);
  EXPECT_FALSE(replayed.outcome.verified) << "replay accepted as fresh";
}

TEST(SiesAttackTest, DroppedContributionIsReportedNeverSilent) {
  // A compromised aggregator silently discards a subtree (Theorem 2's
  // "no PSR may be dropped"). With the contributor set the querier
  // cannot be fooled into accepting the shrunken sum as COMPLETE: the
  // missing source is listed, the result verifies only as an explicit
  // partial over the remaining 15 sources, and the value matches that
  // reduced set exactly.
  SiesFixture fx;
  net::NodeId victim = fx.network.topology().sources()[5];
  net::DropAdversary adv(victim);
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 3).value();
  EXPECT_EQ(adv.dropped_count(), 1u);
  EXPECT_TRUE(report.outcome.verified);
  EXPECT_LT(report.coverage, 1.0);
  EXPECT_EQ(report.contributing_sources, 15u);
  for (net::NodeId node : report.outcome.contributors) {
    EXPECT_NE(node, victim);
  }
  EXPECT_EQ(report.outcome.value, fx.ExactSum(report.outcome.contributors, 3));
}

TEST(SiesAttackTest, DropPlusContributorForgeryDetected) {
  // The stronger adversary: discard a subtree AND strip the root's
  // contributor field so the partial masquerades as a complete sum. The
  // querier then expects the victim's key shares, the ciphertext lacks
  // them, and verification fails (the set is reporting, not trusted).
  // Setting the victim's bit instead leaves an all-ones bitmap, which is
  // not canonical and is rejected outright.
  for (bool strip : {true, false}) {
    SiesFixture fx;
    net::NodeId victim = fx.network.topology().sources()[5];
    net::CallbackAdversary adv([&](net::Message& msg) {
      if (msg.from == victim) return false;  // drop the victim's PSR
      if (msg.to == net::kQuerierId) {
        EXPECT_EQ(FieldBytes(fx.params, msg.payload), 2u);  // N=16 bitmap
        if (strip) {
          msg.payload.erase(msg.payload.begin(), msg.payload.begin() + 2);
        } else {
          msg.payload[0] |= 1u << 5;  // source 5 is victim's index
        }
      }
      return true;
    });
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 3);
    if (strip) {
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report.value().outcome.verified);
    } else {
      EXPECT_FALSE(report.ok()) << "all-ones bitmap accepted";
    }
  }
}

TEST(SiesAttackTest, InjectedContributionDetected) {
  // The adversary homomorphically adds a spurious PSR in flight,
  // leaving the contributor set untouched (the precise attack).
  SiesFixture fx;
  const auto& params = fx.params;
  net::CallbackAdversary adv([&](net::Message& msg) {
    if (msg.to != net::kQuerierId) return true;
    size_t skip = FieldBytes(params, msg.payload);
    Bytes body(msg.payload.begin() + skip, msg.payload.end());
    auto c = crypto::BigUint::FromBytes(body);
    // Add E(v', 1, 0)-style garbage: any nonzero delta works.
    c = crypto::BigUint::ModAdd(c, crypto::BigUint(424242), params.prime)
            .value();
    body = c.ToBytes(body.size()).value();
    std::copy(body.begin(), body.end(), msg.payload.begin() + skip);
    return true;
  });
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 4).value();
  EXPECT_FALSE(report.outcome.verified);
}

TEST(SiesAttackTest, ValueShiftAttackDetected) {
  // The subtle attack: add v' << shift so only the value field changes.
  // Theorem 2: the multiplication by the secret K_t means the adversary
  // cannot target the value field without disturbing the share field.
  SiesFixture fx;
  const auto& params = fx.params;
  net::CallbackAdversary adv([&](net::Message& msg) {
    if (msg.to != net::kQuerierId) return true;
    size_t skip = FieldBytes(params, msg.payload);
    Bytes body(msg.payload.begin() + skip, msg.payload.end());
    auto c = crypto::BigUint::FromBytes(body);
    crypto::BigUint delta =
        crypto::BigUint::Shl(crypto::BigUint(1000), params.ValueShiftBits());
    c = crypto::BigUint::ModAdd(c, delta, params.prime).value();
    body = c.ToBytes(body.size()).value();
    std::copy(body.begin(), body.end(), msg.payload.begin() + skip);
    return true;
  });
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 5).value();
  EXPECT_FALSE(report.outcome.verified);
}

TEST(SiesAttackTest, ReportedFailureVerifiesWithoutVictim) {
  // Legitimate failure handling: source reported as failed, querier uses
  // the reduced participation list and verification succeeds.
  SiesFixture fx;
  net::NodeId victim = fx.network.topology().sources()[2];
  fx.network.FailSource(victim);
  auto report = fx.network.RunEpoch(fx.scheduler, 6).value();
  EXPECT_TRUE(report.outcome.verified);
}

TEST(SiesAttackTest, RandomizedTamperSweep) {
  // 40 random single-bit tampers on random nodes/epochs: zero sums
  // accepted. A lossless envelope is all ciphertext (its contributor
  // field is empty), so every flip must fail verification or be
  // rejected as a malformed PSR.
  SiesFixture fx;
  Xoshiro256 rng(99);
  int attacks = 0, detected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    net::NodeId target = static_cast<net::NodeId>(
        rng.NextBelow(fx.network.topology().num_nodes()));
    net::BitFlipAdversary adv(target, rng.NextBelow(256));
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 100 + trial);
    if (!report.ok()) {
      ++attacks;
      ++detected;  // malformed PSR rejected outright
      continue;
    }
    if (adv.tampered_count() == 0) continue;  // node idle this epoch
    ++attacks;
    if (!report.value().outcome.verified) ++detected;
  }
  EXPECT_GT(attacks, 0);
  EXPECT_EQ(detected, attacks);
  fx.network.SetAdversary(nullptr);
}

TEST(SiesAttackTest, AuditTrailRecordsExactlyTheInjectedTampering) {
  // Re-run the randomized tamper sweep with the security audit trail
  // enabled: the trail must attribute precisely as many in-flight
  // mutations as the adversary actually performed — no phantom events,
  // no silently missed ones.
  SiesFixture fx;
  auto& audit = telemetry::AuditTrail::Global();
  audit.Reset();
  audit.Enable();
  Xoshiro256 rng(77);
  uint64_t injected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    net::NodeId target = static_cast<net::NodeId>(
        rng.NextBelow(fx.network.topology().num_nodes()));
    net::BitFlipAdversary adv(target, rng.NextBelow(256));
    fx.network.SetAdversary(&adv);
    (void)fx.network.RunEpoch(fx.scheduler, 200 + trial);
    injected += adv.tampered_count();
  }
  fx.network.SetAdversary(nullptr);
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kTamper), injected);
  audit.Disable();
  audit.Reset();
}

TEST(SiesLossTest, RadioLossYieldsVerifiedPartialsNeverWrongSums) {
  // A lossy radio with no out-of-band failure reporting: the contributor
  // set is the in-band report. Every answered epoch must verify over EXACTLY
  // the contributor set it declares — loss shows up as reduced
  // coverage, never as a wrong sum presented as complete.
  SiesFixture fx;
  ASSERT_TRUE(fx.network.SetLossRate(0.15, 33).ok());
  int lossy_epochs = 0, clean_epochs = 0;
  for (uint64_t epoch = 1; epoch <= 25; ++epoch) {
    auto report = fx.network.RunEpoch(fx.scheduler, epoch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const auto& r = report.value();
    if (!r.answered) continue;  // the final payload itself was lost
    EXPECT_TRUE(r.outcome.verified)
        << "loss misread as tampering at epoch " << epoch;
    EXPECT_EQ(r.outcome.value, fx.ExactSum(r.outcome.contributors, epoch));
    if (r.coverage < 1.0) {
      ++lossy_epochs;
      EXPECT_LT(r.outcome.value, fx.ExactSum(epoch));
    } else {
      ++clean_epochs;
      EXPECT_EQ(r.outcome.value, fx.ExactSum(epoch));
    }
  }
  EXPECT_GT(lossy_epochs, 0) << "loss model produced no lossy epochs";
}

// The contributor set is reporting, not trust (DESIGN.md §9): any edit
// an adversary makes to it in flight either breaks the canonical
// encoding (a parse error: the epoch is rejected) or changes the share
// subset the querier verifies against (verification fails). Never an
// acceptance, never a crash.
enum class SetEdit { kNone, kRemoveRun, kAddRun, kShiftRun };

TEST(SiesContributorSetAttackTest, EditedAbsentListNeverVerifies) {
  // 300 sources: the root's field is an absent list (2-byte offsets)
  // while fewer than 10 runs are missing.
  for (SetEdit edit : {SetEdit::kNone, SetEdit::kRemoveRun,
                       SetEdit::kAddRun, SetEdit::kShiftRun}) {
    SiesFixture fx(/*n=*/300, /*fanout=*/4);
    const net::Topology& topo = fx.network.topology();
    // Lose one source and one aggregator's whole subtree.
    const net::NodeId lost_source = topo.sources()[17];
    const net::NodeId lost_subtree = topo.parent(topo.sources()[200]);
    bool edited = false;
    net::CallbackAdversary adv([&](net::Message& msg) {
      if (msg.from == lost_source || msg.from == lost_subtree) return false;
      if (msg.to != net::kQuerierId) return true;
      const size_t field = FieldBytes(fx.params, msg.payload);
      auto set = core::ContributorSet::Parse({0, 300}, msg.payload.data(),
                                             field);
      EXPECT_TRUE(set.ok()) << set.status().ToString();
      if (!set.ok()) return true;
      std::vector<net::SourceRange> runs = set.value().absent();
      EXPECT_EQ(runs.size(), 2u);
      switch (edit) {
        case SetEdit::kNone:
          break;
        case SetEdit::kRemoveRun:  // claim source 17 contributed
          runs.erase(runs.begin());
          break;
        case SetEdit::kAddRun:  // claim source 100 was lost
          runs.insert(runs.begin() + 1, net::SourceRange{100, 101});
          break;
        case SetEdit::kShiftRun:  // blame source 18 instead of 17
          runs[0] = {runs[0].lo + 1, runs[0].hi + 1};
          break;
      }
      core::ContributorSet forged({0, 300});
      for (net::SourceRange run : runs) {
        EXPECT_TRUE(forged.AddAbsent(run).ok());
      }
      Bytes payload;
      forged.AppendField(payload);
      payload.insert(payload.end(), msg.payload.begin() + field,
                     msg.payload.end());
      edited = payload != msg.payload;
      msg.payload = std::move(payload);
      return true;
    });
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 11);
    if (edit == SetEdit::kNone) {
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report.value().outcome.verified);
      EXPECT_EQ(report.value().contributing_sources,
                300u - 1u - topo.source_range(lost_subtree).size());
      continue;
    }
    EXPECT_TRUE(edited);
    EXPECT_TRUE(!report.ok() || !report.value().outcome.verified)
        << "edit " << static_cast<int>(edit) << " verified";
  }
}

TEST(SiesContributorSetAttackTest, FlippedBitmapBitNeverVerifies) {
  // 16 sources: the root's field is always the 2-byte bitmap. With
  // source 5 lost, flip each of the 16 source bits in turn: the lost
  // source's bit makes an all-ones (non-canonical) bitmap, any other
  // hides a genuine contributor.
  for (uint32_t bit = 0; bit < 16; ++bit) {
    SiesFixture fx;
    const net::NodeId lost = fx.network.topology().sources()[5];
    net::CallbackAdversary adv([&](net::Message& msg) {
      if (msg.from == lost) return false;
      if (msg.to == net::kQuerierId) {
        EXPECT_EQ(FieldBytes(fx.params, msg.payload), 2u);
        msg.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      return true;
    });
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 12);
    EXPECT_TRUE(!report.ok() || !report.value().outcome.verified)
        << "bit " << bit;
  }
}

TEST(SiesContributorSetAttackTest, SwappedChildPayloadsNeverVerify) {
  // Each of the root's 4 children covers 4 sources. Child 0 lost one
  // source, child 1 is complete. Delivered in swapped slots, child 0's
  // field is read against child 1's range and blames the wrong source.
  // (Swapping two complete children changes neither the sum nor the set
  // — there is nothing to detect.)
  SiesFixture fx;
  const net::Topology& topo = fx.network.topology();
  const uint64_t epoch = 13;
  auto subtree = [&](net::NodeId agg, int lose) {
    std::vector<Bytes> slots;
    for (size_t i = 0; i < topo.children(agg).size(); ++i) {
      slots.push_back(static_cast<int>(i) == lose
                          ? Bytes()
                          : fx.scheduler
                                .SourceInitialize(topo.children(agg)[i], epoch)
                                .value());
    }
    return fx.scheduler.AggregatorMerge(agg, epoch, slots).value();
  };
  const std::span<const net::NodeId> kids = topo.children(topo.root());
  ASSERT_EQ(kids.size(), 4u);
  std::vector<Bytes> slots;
  for (size_t i = 0; i < kids.size(); ++i) {
    slots.push_back(subtree(kids[i], i == 0 ? 1 : -1));
  }
  auto evaluate = [&](const std::vector<Bytes>& root_slots) {
    auto root = fx.scheduler.AggregatorMerge(topo.root(), epoch, root_slots);
    if (!root.ok()) return StatusOr<net::EvalOutcome>(root.status());
    return fx.scheduler.QuerierEvaluate(epoch, root.value(), {});
  };
  auto honest = evaluate(slots);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_TRUE(honest.value().verified);
  EXPECT_EQ(honest.value().contributors.size(), 15u);

  std::swap(slots[0], slots[1]);
  auto swapped = evaluate(slots);
  EXPECT_TRUE(!swapped.ok() || !swapped.value().verified);
}

// The threat-model boundary (paper Section III-C): a compromised SOURCE
// can arbitrarily alter its own reading and the querier accepts the
// (shifted) result as correct — "our scheme, as well as all the
// approaches in the literature, cannot tackle this situation".
TEST(SiesCompromisedSourceTest, OwnReadingLieIsAcceptedAsCorrect) {
  SiesFixture fx;
  // Source index 2 is compromised: it reports 99999 instead of its true
  // reading. From the protocol's perspective this is a VALID PSR — the
  // source holds its own keys — so verification must pass.
  auto topology = fx.network.topology();
  core::Params params = fx.params;
  core::Source lying_source(params, 2,
                            core::KeysForSource(fx.keys, 2).value());
  // Emulate via the in-flight adversary replacing source 2's honest PSR
  // with one the compromised node signed itself — under the epoch the
  // engine salts its SUM channel with, as a real source would.
  net::NodeId victim_node = topology.sources()[2];
  net::CallbackAdversary adv([&](net::Message& msg) {
    if (msg.from == victim_node) {
      msg.payload =
          lying_source
              .CreatePsr(99999, core::SaltedEpoch(msg.epoch, fx.query.query_id,
                                                  core::Channel::kSum))
              .value();
    }
    return true;
  });
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 9).value();
  EXPECT_TRUE(report.outcome.verified)
      << "a compromised source's own-value lie is undetectable by design";
  uint64_t honest_sum = Snapshot(fx.trace, 9).exact_sum;
  uint64_t honest_v2 = fx.trace.ValueAt(2, 9);
  EXPECT_EQ(report.outcome.value, fx.Units(honest_sum - honest_v2 + 99999));
}

// ...but the compromised source must NOT be able to break the rest of
// the system: it knows K (and thus K_t) yet still cannot decrypt an
// uncompromised source's PSR (Theorem 1's second scenario), nor forge a
// PSR on another source's behalf in a way the querier accepts twice.
TEST(SiesCompromisedSourceTest, CannotDecryptOtherSources) {
  SiesFixture fx;
  // The compromised party knows K_t and p, and sees source 5's PSR.
  core::Source honest(fx.params, 5, core::KeysForSource(fx.keys, 5).value());
  uint64_t secret_value = 3141;
  Bytes psr = honest.CreatePsr(secret_value, 1).value();
  const core::BigField field(fx.params);
  auto c = core::ParsePsr(field, psr.data(), psr.size()).value();
  const crypto::BigUint kt = core::DeriveEpochGlobalKey(
      field, crypto::PrfKey(fx.keys.global_key), 1);
  const crypto::BigUint kt_inv = field.Inverse(kt).value();
  // Without k_{5,1}, the best the adversary can do is guess it; every
  // guess yields a different "plaintext", so the PSR carries no
  // information. Spot-check: 100 random guesses never produce a
  // message whose value field matches the secret.
  Xoshiro256 rng(123);
  int hits = 0;
  for (int trial = 0; trial < 100; ++trial) {
    crypto::BigUint guess =
        crypto::BigUint::RandomBelow(fx.params.prime, rng);
    auto m = core::Decrypt(field, c, kt_inv, guess);
    auto unpacked = core::UnpackMessage(field, m);
    if (unpacked.ok() && unpacked.value().sum == secret_value) ++hits;
  }
  EXPECT_EQ(hits, 0);
}

TEST(SiesCompromisedSourceTest, CannotDoubleCountItself) {
  // A compromised source injects its PSR twice (once through a replayed
  // copy): the share sum then contains ss_{i,t} twice and verification
  // fails — a source cannot inflate its weight in the aggregate.
  SiesFixture fx;
  net::NodeId victim_node = fx.network.topology().sources()[2];
  Bytes captured;
  net::CallbackAdversary adv([&](net::Message& msg) {
    if (msg.from == victim_node) captured = msg.payload;  // a bare PSR
    if (msg.to == net::kQuerierId && !captured.empty()) {
      const size_t skip = FieldBytes(fx.params, msg.payload);
      Bytes body(msg.payload.begin() + skip, msg.payload.end());
      auto total = crypto::BigUint::FromBytes(body);
      auto extra = crypto::BigUint::FromBytes(captured);
      total =
          crypto::BigUint::ModAdd(total, extra, fx.params.prime).value();
      body = total.ToBytes(body.size()).value();
      std::copy(body.begin(), body.end(), msg.payload.begin() + skip);
    }
    return true;
  });
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 10).value();
  EXPECT_FALSE(report.outcome.verified);
}

// Negative control: an in-flight injection against CMT goes completely
// undetected at the network level — the weakness that motivates SIES.
TEST(CmtAttackTest, InjectionGoesUndetected) {
  uint32_t n = 16;
  auto topology = net::Topology::BuildCompleteTree(n, 4).value();
  net::Network network(topology);
  auto params = cmt::MakeParams(n, 5).value();
  auto keys = cmt::GenerateKeys(params, {5});
  workload::TraceConfig tc;
  tc.num_sources = n;
  tc.seed = 5;
  workload::TraceGenerator trace(tc);
  CmtProtocol protocol(params, keys, network.topology(),
                       [&](uint32_t index, uint64_t epoch) {
                         return trace.ValueAt(index, epoch);
                       });
  net::CallbackAdversary adv([&](net::Message& msg) {
    if (msg.to != net::kQuerierId) return true;
    auto c = crypto::BigUint::FromBytes(msg.payload);
    c = crypto::BigUint::ModAdd(c, crypto::BigUint(77777), params.modulus)
            .value();
    msg.payload = c.ToBytes(msg.payload.size()).value();
    return true;
  });
  network.SetAdversary(&adv);
  auto attacked = network.RunEpoch(protocol, 1).value();
  // CMT "verifies" everything: the falsified sum is reported as correct.
  EXPECT_TRUE(attacked.outcome.verified);
  EXPECT_EQ(attacked.outcome.value,
            static_cast<double>(Snapshot(trace, 1).exact_sum + 77777));
}

// The same replay attack SIES detects leaves the CMT querier with no
// verdict at all: decryption either silently yields garbage or fails as
// malformed, and nothing distinguishes attack from honest traffic.
TEST(CmtAttackTest, ReplayYieldsNoDetectionSignal) {
  uint32_t n = 16;
  auto topology = net::Topology::BuildCompleteTree(n, 4).value();
  net::Network network(topology);
  auto params = cmt::MakeParams(n, 5).value();
  auto keys = cmt::GenerateKeys(params, {5});
  workload::TraceConfig tc;
  tc.num_sources = n;
  tc.seed = 5;
  workload::TraceGenerator trace(tc);
  CmtProtocol protocol(params, keys, network.topology(),
                       [&](uint32_t index, uint64_t epoch) {
                         return trace.ValueAt(index, epoch);
                       });
  net::ReplayAdversary adv(1);
  network.SetAdversary(&adv);
  auto first = network.RunEpoch(protocol, 1).value();
  EXPECT_EQ(first.outcome.value,
            static_cast<double>(Snapshot(trace, 1).exact_sum));
  auto replayed = network.RunEpoch(protocol, 2);
  EXPECT_GT(adv.replayed_count(), 0u);
  if (replayed.ok()) {
    // Garbage decrypted "successfully": reported verified, wrong value.
    EXPECT_TRUE(replayed.value().outcome.verified);
    EXPECT_NE(replayed.value().outcome.value,
              static_cast<double>(Snapshot(trace, 2).exact_sum));
  }
  // (else: the 160-bit garbage did not fit 64 bits — still no integrity
  // verdict, just a decode failure indistinguishable from corruption.)
}

TEST(MuTeslaIntegrationTest, QueryDisseminationAuthenticated) {
  // The querier broadcasts the continuous query via μTesla before the
  // aggregation starts (paper setup phase); sources verify origin.
  Bytes seed = {9, 9, 9};
  auto broadcaster =
      mutesla::Broadcaster::Create(seed, /*chain_length=*/10,
                                   /*disclosure_delay=*/1)
          .value();
  core::Query query;
  query.aggregate = core::Aggregate::kSum;
  std::string sql = query.ToSql();
  Bytes query_bytes(sql.begin(), sql.end());
  auto packet = broadcaster.Broadcast(1, query_bytes).value();

  // 16 sources each verify independently.
  for (int s = 0; s < 16; ++s) {
    mutesla::Receiver receiver(broadcaster.commitment(), 1);
    ASSERT_TRUE(receiver.Accept(packet, 1).ok());
    auto payloads =
        receiver.OnDisclosure(broadcaster.Disclose(1).value()).value();
    ASSERT_EQ(payloads.size(), 1u);
    EXPECT_EQ(payloads[0], query_bytes);
  }

  // An impersonator without the chain key cannot produce a packet that
  // any source accepts.
  mutesla::BroadcastPacket forged = packet;
  forged.payload = Bytes{'e', 'v', 'i', 'l'};
  mutesla::Receiver receiver(broadcaster.commitment(), 1);
  ASSERT_TRUE(receiver.Accept(forged, 1).ok());
  auto payloads =
      receiver.OnDisclosure(broadcaster.Disclose(1).value()).value();
  EXPECT_TRUE(payloads.empty());
}

}  // namespace
}  // namespace sies::runner
