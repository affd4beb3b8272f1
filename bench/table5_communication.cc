// Table V reproduction: communication bytes per network-edge class
// (S-A, A-A, A-Q) for CMT, SECOA_S, and SIES at the paper's defaults
// (F=4, D=[1800,5000], J=300, RSA-1024).
//
// The measured rows come from a genuine full-network run (N=64: byte
// costs per edge are N-independent for all schemes; the SECOA source
// work at N=1024 would take ~40 s/epoch without changing a single byte
// on any edge), plus a SIES-only run at N=1024 that shows it. Model rows
// evaluate Eqs. 10-11 at N=1024.
//
// Note the documented deviation (DESIGN.md): our SECOA_S carries
// per-sketch winner ids and individual certificates in-network because
// the paper's every-edge XOR optimization is not implementable across
// winner re-selection; the paper-model rows show the paper's accounting.
#include <cstdio>

#include "costmodel/models.h"
#include "runner/runner.h"
#include "secoa/secoa_sum.h"

namespace {
std::string HumanBytes(double bytes) {
  char buf[64];
  if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f bytes", bytes);
  }
  return buf;
}
}  // namespace

int main() {
  using namespace sies;

  std::printf(
      "=== Table V: communication cost per edge (F=4, D=[1800,5000], "
      "J=300) ===\n\n");

  runner::ExperimentConfig base;
  base.num_sources = 64;  // see header comment
  base.fanout = 4;
  base.scale_pow10 = 2;
  base.epochs = 2;
  base.secoa_j = 300;
  base.rsa_modulus_bits = 1024;

  const char* edge_names[3] = {"S-A", "A-A", "A-Q"};
  double measured[3][3] = {};  // [scheme][edge]
  const runner::Scheme schemes[3] = {runner::Scheme::kCmt,
                                     runner::Scheme::kSecoa,
                                     runner::Scheme::kSies};
  const char* scheme_names[3] = {"CMT", "SECOA_S", "SIES"};

  for (int s = 0; s < 3; ++s) {
    runner::ExperimentConfig config = base;
    config.scheme = schemes[s];
    if (schemes[s] == runner::Scheme::kSecoa) {
      std::fprintf(stderr, "running SECOA_S network (N=64, J=300)...\n");
    }
    auto result = runner::RunExperiment(config);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    measured[s][0] = result.value().source_to_aggregator_bytes;
    measured[s][1] = result.value().aggregator_to_aggregator_bytes;
    measured[s][2] = result.value().aggregator_to_querier_bytes;
    if (!result.value().all_verified) {
      std::fprintf(stderr, "WARNING: %s run did not verify\n",
                   scheme_names[s]);
    }
  }

  // Exact-width prediction of our sound SECOA wire format (the measured
  // SECOA rows must equal these to the byte).
  {
    Xoshiro256 rng(base.seed);
    auto kp = crypto::GenerateRsaKeyPair(1024, rng, 3).value();
    secoa::SealOps ops(kp.public_key);
    secoa::SumParams sp{base.num_sources, base.secoa_j, base.seed};
    std::printf("sound-wire prediction: in-network %zu B; final (4 "
                "groups) %zu B\n\n",
                secoa::SoundWireEdgeBytes(sp, ops),
                secoa::SoundWireFinalBytes(sp, ops, 4));
  }

  std::printf("--- measured (full simulated network, N=64) ---\n");
  std::printf("%-10s %16s %16s %16s\n", "edge", "CMT", "SECOA_S", "SIES");
  for (int e = 0; e < 3; ++e) {
    std::printf("%-10s %16s %16s %16s\n", edge_names[e],
                HumanBytes(measured[0][e]).c_str(),
                HumanBytes(measured[1][e]).c_str(),
                HumanBytes(measured[2][e]).c_str());
  }

  // Paper model at N=1024 (Eqs. 10-11 via the cost-model library).
  costmodel::ModelInputs in;  // paper defaults: N=1024, J=300, F=4
  costmodel::SchemeCosts cmt =
      costmodel::CmtModel(costmodel::PaperPrimitives(), in);
  costmodel::SchemeCosts sies_model =
      costmodel::SiesModel(costmodel::PaperPrimitives(), in);
  costmodel::SecoaBounds secoa =
      costmodel::SecoaModel(costmodel::PaperPrimitives(), in);

  std::printf("\n--- paper cost-model bytes (N=1024) ---\n");
  std::printf("%-10s %16s %22s %16s\n", "edge", "CMT",
              "SECOA_S (min/max)", "SIES");
  std::printf("%-10s %16s %11s/%-10s %16s\n", "S-A",
              HumanBytes(cmt.source_to_aggregator_bytes).c_str(),
              HumanBytes(secoa.best.source_to_aggregator_bytes).c_str(),
              HumanBytes(secoa.worst.source_to_aggregator_bytes).c_str(),
              HumanBytes(sies_model.source_to_aggregator_bytes).c_str());
  std::printf("%-10s %16s %11s/%-10s %16s\n", "A-A",
              HumanBytes(cmt.aggregator_to_aggregator_bytes).c_str(),
              HumanBytes(secoa.best.aggregator_to_aggregator_bytes).c_str(),
              HumanBytes(secoa.worst.aggregator_to_aggregator_bytes).c_str(),
              HumanBytes(sies_model.aggregator_to_aggregator_bytes).c_str());
  std::printf("%-10s %16s %11s/%-10s %16s\n", "A-Q",
              HumanBytes(cmt.aggregator_to_querier_bytes).c_str(),
              HumanBytes(secoa.best.aggregator_to_querier_bytes).c_str(),
              HumanBytes(secoa.worst.aggregator_to_querier_bytes).c_str(),
              HumanBytes(sies_model.aggregator_to_querier_bytes).c_str());

  std::printf(
      "\npaper reference: CMT 20 B; SECOA_S 37.8 KiB (S-A/A-A), 832 B "
      "actual A-Q; SIES 32 B on every edge.\n");

  // SIES-only run at the paper's N=1024: SIES edges are the bare PSR
  // at every N (a lossless epoch's contributor fields are empty).
  runner::ExperimentConfig sies_1024 = base;
  sies_1024.scheme = runner::Scheme::kSies;
  sies_1024.num_sources = 1024;
  auto large = runner::RunExperiment(sies_1024);
  if (!large.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 large.status().ToString().c_str());
    return 1;
  }
  const double large_edges[3] = {
      large.value().source_to_aggregator_bytes,
      large.value().aggregator_to_aggregator_bytes,
      large.value().aggregator_to_querier_bytes};
  std::printf("\n--- measured SIES, N=1024 ---\n");
  for (int e = 0; e < 3; ++e) {
    std::printf("%-10s %16s\n", edge_names[e],
                HumanBytes(large_edges[e]).c_str());
  }

  // Shape check, asserted: SIES 32 B on every edge class at N=64 and
  // N=1024, CMT's 20-byte HM1 ciphertext at N=64.
  bool shape_ok = large.value().all_verified;
  for (int e = 0; e < 3; ++e) {
    shape_ok = shape_ok && measured[2][e] == 32.0 &&
               large_edges[e] == 32.0 && measured[0][e] == 20.0;
  }
  std::printf(
      "shape check: SIES 32 B on every edge at N=64 and N=1024; CMT 20 B "
      "on every edge: %s\n",
      shape_ok ? "OK" : "FAILED");
  return shape_ok ? 0 : 1;
}
