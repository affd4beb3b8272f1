// Table II reproduction: the primitive operation costs on this host,
// printed side by side with the paper's reference values, plus
// google-benchmark timings for each primitive (and for the scheduled
// HM1 / HM256 the parties actually run).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "costmodel/primitives.h"
#include "crypto/biguint.h"
#include "crypto/hmac.h"
#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "sketch/ams_sketch.h"

namespace {

using sies::Bytes;
using sies::Xoshiro256;
using sies::crypto::BigUint;

// Shared fixtures (built once).
struct Fixtures {
  Xoshiro256 rng{0xbead};
  Bytes key20 = rng.NextBytes(20);
  BigUint p160 = sies::crypto::GeneratePrime(160, rng);
  BigUint p256 = sies::crypto::GeneratePrime(256, rng);
  BigUint a160 = BigUint::RandomBelow(p160, rng);
  BigUint b160 = BigUint::RandomBelow(p160, rng);
  BigUint a256 = BigUint::RandomBelow(p256, rng);
  BigUint b256 = BigUint::RandomBelow(p256, rng);
  // e=3: the cheap exponent SEAL chains use (see DESIGN.md).
  sies::crypto::RsaKeyPair rsa1024 =
      sies::crypto::GenerateRsaKeyPair(1024, rng, /*public_exponent=*/3)
          .value();
  BigUint x1024 = BigUint::RandomBelow(rsa1024.public_key.n(), rng);
  BigUint y1024 = BigUint::RandomBelow(rsa1024.public_key.n(), rng);
};

Fixtures& F() {
  static Fixtures f;
  return f;
}

void BM_SketchGeneration_Csk(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::sketch::UnitLevel(0x1234, i & 1023, i));
    ++i;
  }
}
BENCHMARK(BM_SketchGeneration_Csk);

void BM_RsaEncryption_Crsa(benchmark::State& state) {
  BigUint x = F().x1024;
  for (auto _ : state) {
    x = F().rsa1024.public_key.Apply(x).value();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_RsaEncryption_Crsa);

void BM_HmacSha1_Chm1(benchmark::State& state) {
  uint64_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sies::crypto::EpochPrfSha1(F().key20, epoch++));
  }
}
BENCHMARK(BM_HmacSha1_Chm1);

void BM_HmacSha256_Chm256(benchmark::State& state) {
  uint64_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sies::crypto::EpochPrfSha256(F().key20, epoch++));
  }
}
BENCHMARK(BM_HmacSha256_Chm256);

// The PRFs as the parties run them: heap-free, from the key's schedule
// (crypto::PrfKey, built once per long-term key) — two compressions each
// instead of the one-shot rows' four. The paper's C_HM1 / C_HM256 above
// stay one-shot.
void BM_HmacSha1_Scheduled(benchmark::State& state) {
  const sies::crypto::PrfKey key(F().key20);
  uint8_t tag[20];
  uint64_t epoch = 0;
  for (auto _ : state) {
    sies::crypto::EpochPrfSha1Into(key, epoch++, tag);  // lint:allow(zeroize)
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacSha1_Scheduled);

void BM_HmacSha256_Scheduled(benchmark::State& state) {
  const sies::crypto::PrfKey key(F().key20);
  uint8_t tag[32];
  uint64_t epoch = 0;
  for (auto _ : state) {
    sies::crypto::EpochPrfSha256Into(key, epoch++, tag);  // lint:allow(zeroize)
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacSha256_Scheduled);

void BM_ModAdd20_Ca20(benchmark::State& state) {
  BigUint a = F().a160;
  for (auto _ : state) {
    a = BigUint::ModAdd(a, F().b160, F().p160).value();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModAdd20_Ca20);

void BM_ModAdd32_Ca32(benchmark::State& state) {
  BigUint a = F().a256;
  for (auto _ : state) {
    a = BigUint::ModAdd(a, F().b256, F().p256).value();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModAdd32_Ca32);

void BM_ModMul32_Cm32(benchmark::State& state) {
  BigUint a = F().a256;
  for (auto _ : state) {
    a = BigUint::ModMul(a, F().b256, F().p256).value();
    if (a.IsZero()) a = F().b256;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModMul32_Cm32);

void BM_ModMul128_Cm128(benchmark::State& state) {
  BigUint x = F().x1024;
  for (auto _ : state) {
    x = F().rsa1024.public_key.MulMod(x, F().y1024).value();
    if (x.IsZero()) x = F().y1024;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModMul128_Cm128);

void BM_ModInverse32_Cmi32(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigUint::ModInverse(F().b256, F().p256).value());
  }
}
BENCHMARK(BM_ModInverse32_Cmi32);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Table II: primitive costs ===\n");
  sies::costmodel::PrimitiveCosts measured =
      sies::costmodel::MeasurePrimitives();
  sies::costmodel::PrimitiveCosts paper =
      sies::costmodel::PaperPrimitives();
  std::printf("measured (this host): %s\n", measured.ToString().c_str());
  std::printf("paper (2.66GHz i7)  : %s\n\n", paper.ToString().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
