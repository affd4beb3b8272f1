// Outsourced aggregation (the paper's second motivation, Section I):
// the aggregation network is operated by an untrusted third-party
// provider (a SenseWeb-style service). This example demonstrates,
// against a live simulated provider:
//
//   1. confidentiality — the provider relays only 32-byte PSRs that are
//      indistinguishable from noise: the same sensor reading produces
//      unrelated ciphertexts across epochs;
//   2. integrity — a greedy provider that inflates the result (e.g. to
//      bill for more "observed events") is caught immediately;
//   3. the customer's querier does a few milliseconds of work per epoch
//      while the heavy lifting stays inside the provider's network.
#include <cstdio>
#include <memory>

#include "engine/epoch_scheduler.h"
#include "net/adversary.h"
#include "workload/workload.h"

using namespace sies;

int main() {
  constexpr uint32_t kN = 128;
  constexpr uint64_t kSeed = 77;

  auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
  net::Network provider_network(topology);
  auto params = core::MakeParams(kN, kSeed).value();
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  workload::TraceGenerator trace(tc);
  // A constant reading for sensor 0 makes the unlinkability visible.
  engine::EpochScheduler protocol(
      std::make_shared<engine::MultiQueryEngine>(
          params, core::GenerateKeys(params, EncodeUint64(kSeed))),
      topology, [&trace](uint32_t i, uint64_t e) {
        core::SensorReading reading = trace.ReadingAt(i, e);
        if (i == 0) reading.temperature = 25.0;
        return reading;
      });
  if (!protocol.Admit(core::Query{}, 1).ok()) return 1;  // SUM(temperature)

  std::printf("scenario: %u sensors, aggregation outsourced to an\n"
              "untrusted provider; customer holds the keys.\n\n",
              kN);

  // --- 1. What the provider sees: capture sensor 0's PSR each epoch. ---
  std::printf("1) provider's view of sensor 0 (constant reading 25.00 C):\n");
  Bytes previous;
  net::CallbackAdversary observer([&](net::Message& msg) {
    if (msg.from == provider_network.topology().sources()[0]) {
      std::printf("   epoch %llu PSR: %s...\n",
                  static_cast<unsigned long long>(msg.epoch),
                  ToHex(msg.payload).substr(0, 32).c_str());
      if (!previous.empty() && previous == msg.payload) {
        std::printf("   !! ciphertext repeated -- confidentiality bug\n");
      }
      previous = msg.payload;
    }
    return true;
  });
  provider_network.SetAdversary(&observer);
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto report = provider_network.RunEpoch(protocol, epoch).value();
    if (!report.outcome.verified) return 1;
  }
  std::printf("   same plaintext, unlinkable ciphertexts: the provider\n"
              "   learns nothing (Theorem 1).\n\n");

  // --- 2. A greedy provider inflates the aggregate. ---
  std::printf("2) provider inflates the result by +10%% before billing:\n");
  const auto& p = params;
  // The provider guesses the global key; its schedule is built once.
  const crypto::PrfKey guessed_key(Bytes(20, 0));
  net::CallbackAdversary greedy([&](net::Message& msg) {
    if (msg.to != net::kQuerierId) return true;
    auto c = crypto::BigUint::FromBytes(msg.payload);
    // Homomorphically add a forged contribution of ~10% of the total.
    crypto::BigUint forged = crypto::BigUint::Shl(
        crypto::BigUint(kN * 250ull), p.ValueShiftBits());
    c = crypto::BigUint::ModAdd(
            c, crypto::BigUint::ModMul(
                   core::DeriveEpochGlobalKey(core::BigField(p), guessed_key,
                                              msg.epoch),
                   forged, p.prime)
                   .value(),
            p.prime)
            .value();
    msg.payload = c.ToBytes(msg.payload.size()).value();
    return true;
  });
  provider_network.SetAdversary(&greedy);
  auto attacked = provider_network.RunEpoch(protocol, 4).value();
  std::printf("   querier verdict: %s\n",
              attacked.outcome.verified
                  ? "ACCEPTED -- integrity failure!"
                  : "rejected (share sum mismatch, Theorem 2)");
  if (attacked.outcome.verified) return 1;

  // --- 3. Honest service resumes; customer-side cost is tiny. ---
  provider_network.SetAdversary(nullptr);
  auto honest = provider_network.RunEpoch(protocol, 5).value();
  std::printf("\n3) honest epoch 5: SUM=%.2f C verified=%s\n",
              honest.outcome.value,
              honest.outcome.verified ? "yes" : "NO");
  std::printf("   customer (querier) CPU: %.3f ms;"
              " provider edge payloads: %zu bytes each\n",
              honest.querier_cpu.total_seconds() * 1e3,
              static_cast<size_t>(honest.source_to_aggregator.MeanBytes()));
  return honest.outcome.verified ? 0 : 1;
}
