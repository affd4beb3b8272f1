// Microbenchmarks of the from-scratch crypto substrate (not a paper
// table; used to validate that the substrate's performance is in a sane
// range for the cost models to be meaningful).
//
// Besides the google-benchmark suite this binary runs a BigUint-vs-Fp256
// comparison of the SIES hot operations and writes the result to
// BENCH_micro_crypto.json (schema in docs/REPRODUCING.md).  The fixed
// target tracked across PRs: the Fp256 kernel must keep SIES
// Encrypt/Decrypt at >= 5x over the generic BigUint path.
//
//   ./build/bench/micro_crypto            # full run
//   ./build/bench/micro_crypto --smoke    # seconds-fast, JSON only
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "crypto/biguint.h"
#include "crypto/fp256.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/prime.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "sies/message_format.h"

namespace {

using sies::Bytes;
using sies::Xoshiro256;
using sies::crypto::BigUint;

void BM_Sha1_64B(benchmark::State& state) {
  Bytes msg(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha1::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha1_64B);

void BM_Sha256_64B(benchmark::State& state) {
  Bytes msg(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha256::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  Bytes msg(4096, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::Sha256::Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_HmacDrbg_20B(benchmark::State& state) {
  sies::crypto::HmacDrbg drbg({1, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.Generate(20));
  }
}
BENCHMARK(BM_HmacDrbg_20B);

void BM_BigUintMul(benchmark::State& state) {
  Xoshiro256 rng(1);
  BigUint a = BigUint::RandomWithBits(state.range(0), rng);
  BigUint b = BigUint::RandomWithBits(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::Mul(a, b));
  }
}
BENCHMARK(BM_BigUintMul)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigUintDivMod(benchmark::State& state) {
  Xoshiro256 rng(2);
  BigUint a = BigUint::RandomWithBits(2 * state.range(0), rng);
  BigUint b = BigUint::RandomWithBits(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::DivMod(a, b).value());
  }
}
BENCHMARK(BM_BigUintDivMod)->Arg(256)->Arg(1024);

void BM_ModExp(benchmark::State& state) {
  Xoshiro256 rng(3);
  BigUint m = sies::crypto::GeneratePrime(state.range(0), rng);
  BigUint a = BigUint::RandomBelow(m, rng);
  BigUint e = BigUint::RandomWithBits(state.range(0), rng);
  auto ctx = sies::crypto::MontgomeryCtx::Create(m).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModExp(a, e));
  }
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(1024);

void BM_MillerRabinPrime(benchmark::State& state) {
  Xoshiro256 rng(4);
  BigUint p = sies::crypto::GeneratePrime(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::IsProbablePrime(p, 5, rng));
  }
}
BENCHMARK(BM_MillerRabinPrime)->Arg(160)->Arg(256);

// --- BigUint vs Fp256 comparison -----------------------------------------
//
// Times each SIES hot operation on the generic BigUint path and on the
// fixed-width Fp256 kernel and reports the speedup.  The "sies_decrypt"
// pair intentionally compares the pre-cache querier inner loop (Decrypt
// runs ModInverse per call) against the current one (DecryptFp with the
// per-epoch cached inverse) — that is the code the EpochKeyCache + Fp256
// change actually replaced.  "sies_decrypt_cached_inverse" isolates the
// arithmetic-kernel share of that win.

using sies::Stopwatch;
using sies::crypto::Fp256;
using sies::crypto::U256;

// Best-of-3 batches; one warmup batch absorbs cache/page effects.
double NsPerOp(size_t iters, const std::function<void()>& op) {
  for (size_t i = 0; i < iters / 4 + 1; ++i) op();
  double best_us = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) op();
    best_us = std::min(best_us, watch.ElapsedMicros());
  }
  return best_us * 1e3 / static_cast<double>(iters);
}

int RunComparison(bool smoke) {
  using namespace sies::core;
  auto params = MakeParams(16, 7).value();
  QuerierKeys keys = GenerateKeys(params, sies::EncodeUint64(7));
  const Fp256* fp = params.Fp();
  if (fp == nullptr) {
    std::fprintf(stderr, "reference params lost the 256-bit fast path?\n");
    return 1;
  }
  const BigUint& p = params.prime;

  const sies::crypto::PrfKey global_key(keys.global_key);
  const sies::crypto::PrfKey source_key(keys.source_keys[0]);
  BigUint gk = DeriveEpochGlobalKey(params, global_key, 1);
  BigUint sk = DeriveEpochSourceKey(params, source_key, 1);
  BigUint ss = DeriveEpochShare(params, source_key, 1);
  BigUint msg = PackMessage(params, 2345, ss).value();
  BigUint ct = Encrypt(params, msg, gk, sk).value();
  BigUint gk_inv = BigUint::ModInverse(gk, p).value();

  U256 ugk = U256::FromBigUint(gk).value();
  U256 usk = U256::FromBigUint(sk).value();
  U256 umsg = U256::FromBigUint(msg).value();
  U256 uct = U256::FromBigUint(ct).value();
  U256 ugk_inv = U256::FromBigUint(gk_inv).value();
  BigUint wide = BigUint::Mul(gk, msg);
  uint64_t uwide[8];
  U256::Mul(ugk, umsg, uwide);

  // (name, generic op, fast op, iterations); iterations shrink 100x in
  // --smoke mode where only the JSON plumbing is under test.
  struct Pair {
    const char* name;
    std::function<void()> generic;
    std::function<void()> fast;
    size_t iters;
  };
  std::vector<Pair> pairs;
  pairs.push_back({"mod_add",
                   [&] {
                     benchmark::DoNotOptimize(
                         BigUint::ModAdd(gk, sk, p).value());
                   },
                   [&] { benchmark::DoNotOptimize(fp->Add(ugk, usk)); },
                   100000});
  pairs.push_back({"mod_mul",
                   [&] {
                     benchmark::DoNotOptimize(
                         BigUint::ModMul(gk, msg, p).value());
                   },
                   [&] { benchmark::DoNotOptimize(fp->Mul(ugk, umsg)); },
                   50000});
  pairs.push_back({"reduce_512",
                   [&] {
                     benchmark::DoNotOptimize(BigUint::Mod(wide, p).value());
                   },
                   [&] { benchmark::DoNotOptimize(fp->ReduceWide(uwide)); },
                   50000});
  pairs.push_back({"sies_encrypt",
                   [&] {
                     benchmark::DoNotOptimize(
                         Encrypt(params, msg, gk, sk).value());
                   },
                   [&] {
                     benchmark::DoNotOptimize(
                         EncryptFp(*fp, umsg, ugk, usk).value());
                   },
                   50000});
  pairs.push_back({"sies_decrypt",
                   [&] {
                     benchmark::DoNotOptimize(
                         Decrypt(params, ct, gk, sk).value());
                   },
                   [&] {
                     benchmark::DoNotOptimize(
                         DecryptFp(*fp, uct, ugk_inv, usk));
                   },
                   2000});
  pairs.push_back({"sies_decrypt_cached_inverse",
                   [&] {
                     benchmark::DoNotOptimize(
                         DecryptWithInverse(params, ct, gk_inv, sk).value());
                   },
                   [&] {
                     benchmark::DoNotOptimize(
                         DecryptFp(*fp, uct, ugk_inv, usk));
                   },
                   50000});

  sies::bench::BenchReport report("micro_crypto");
  report.config().Add("prime_bits", static_cast<uint64_t>(256));
  report.config().Add("smoke", smoke);
  report.config().Add("speedup_target", 5.0);

  std::printf("\n=== BigUint vs Fp256 (256-bit reference prime) ===\n");
  std::printf("%-28s %12s %12s %9s\n", "op", "biguint", "fp256", "speedup");
  double encrypt_speedup = 0.0, decrypt_speedup = 0.0;
  for (const Pair& pair : pairs) {
    size_t iters = smoke ? std::max<size_t>(pair.iters / 100, 20) : pair.iters;
    double generic_ns = NsPerOp(iters, pair.generic);
    double fast_ns = NsPerOp(iters, pair.fast);
    double speedup = generic_ns / fast_ns;
    if (std::strcmp(pair.name, "sies_encrypt") == 0) {
      encrypt_speedup = speedup;
    }
    if (std::strcmp(pair.name, "sies_decrypt") == 0) {
      decrypt_speedup = speedup;
    }
    std::printf("%-28s %9.1f ns %9.1f ns %8.1fx\n", pair.name, generic_ns,
                fast_ns, speedup);
    sies::bench::JsonObject row;
    row.Add("op", pair.name);
    row.Add("biguint_ns", generic_ns);
    row.Add("fp256_ns", fast_ns);
    row.Add("speedup", speedup);
    report.AddRow(std::move(row));
  }

  bool target_met = encrypt_speedup >= 5.0 && decrypt_speedup >= 5.0;
  report.config().Add("encrypt_speedup", encrypt_speedup);
  report.config().Add("decrypt_speedup", decrypt_speedup);
  report.config().Add("speedup_target_met", target_met);
  std::printf("encrypt %.1fx, decrypt %.1fx vs >=5x target: %s%s\n",
              encrypt_speedup, decrypt_speedup,
              target_met ? "MET" : "NOT MET",
              smoke ? " (smoke timings are indicative only)" : "");
  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> pass_through;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      pass_through.push_back(argv[i]);
    }
  }
  if (!smoke) {
    int pass_argc = static_cast<int>(pass_through.size());
    benchmark::Initialize(&pass_argc, pass_through.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               pass_through.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return RunComparison(smoke);
}
