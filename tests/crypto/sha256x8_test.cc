// Differential tests pinning the 8-lane batch kernel to the scalar
// one-shot implementations, bit for bit:
//
//   - HmacSha256Batch over >= 10^4 random (key, message) pairs with
//     ragged lane lengths, on every kernel the machine can run — the
//     batched epoch-key derivation inherits its correctness from here.
//   - Forced-kernel equality: scalar vs AVX2 vs SHA-NI over identical
//     inputs.
//   - EpochPrfSha256Batch over scheduled keys (crypto::PrfKey, the
//     derivation entry point EpochKeyCache actually uses) vs the
//     one-shot EpochPrfSha256 of the raw keys, under every kernel.
//   - Partial final groups (n not a multiple of 8) and n == 0.
//
// These run under check.sh --sanitize and --tsan; the KAT anchors (FIPS
// vectors + Python-generated ragged-lane digests) live in kat_test.cc.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256x8.h"

namespace sies::crypto {
namespace {

std::vector<Sha256Kernel> AvailableKernels() {
  std::vector<Sha256Kernel> kernels = {Sha256Kernel::kScalar};
  for (Sha256Kernel k : {Sha256Kernel::kAvx2, Sha256Kernel::kShaNi}) {
    if (sha256x8_internal::KernelAvailable(k)) kernels.push_back(k);
  }
  return kernels;
}

TEST(Sha256x8, ScalarKernelAlwaysAvailable) {
  EXPECT_TRUE(sha256x8_internal::KernelAvailable(Sha256Kernel::kScalar));
  EXPECT_TRUE(sha256x8_internal::KernelAvailable(Sha256Kernel::kAuto));
}

TEST(Sha256x8, RandomMessagesMatchScalarHash) {
  Xoshiro256 rng(0x5135'0001);
  for (int round = 0; round < 200; ++round) {
    Bytes msgs[8];
    ByteView views[8];
    for (int i = 0; i < 8; ++i) {
      msgs[i] = rng.NextBytes(rng.NextBelow(300));
      views[i] = ByteView(msgs[i]);
    }
    for (Sha256Kernel kernel : AvailableKernels()) {
      uint8_t out[8][32];
      sha256x8_internal::Sha256x8WithKernel(kernel, views, out);
      for (int i = 0; i < 8; ++i) {
        Bytes ref = Sha256::Hash(msgs[i]);
        ASSERT_EQ(0, std::memcmp(out[i], ref.data(), 32))
            << "round=" << round << " kernel=" << static_cast<int>(kernel)
            << " lane=" << i << " len=" << msgs[i].size();
      }
    }
  }
}

// The acceptance-criteria differential: >= 10^4 random HMAC pairs with
// ragged lane lengths, batch == scalar bit-identically on every kernel.
TEST(HmacSha256Batch, TenThousandRandomPairsMatchScalar) {
  constexpr size_t kPairs = 10'016;  // 1252 full 8-lane groups
  constexpr size_t kChunk = 32;      // exercises the internal grouping
  Xoshiro256 rng(0x5135'0002);
  size_t done = 0;
  while (done < kPairs) {
    const size_t n = std::min(kChunk, kPairs - done);
    std::vector<Bytes> keys(n), msgs(n);
    std::vector<ByteView> kviews(n), mviews(n);
    for (size_t i = 0; i < n; ++i) {
      // Ragged on purpose: keys 0..130 bytes (crossing the hash-the-key
      // branch at 65+), messages 0..199 bytes (multi-block at 56+).
      keys[i] = rng.NextBytes(rng.NextBelow(131));
      msgs[i] = rng.NextBytes(rng.NextBelow(200));
      kviews[i] = ByteView(keys[i]);
      mviews[i] = ByteView(msgs[i]);
    }
    std::vector<uint8_t> out(32 * n);
    for (Sha256Kernel kernel : AvailableKernels()) {
      sha256x8_internal::HmacSha256BatchWithKernel(kernel, n, kviews.data(),
                                                   mviews.data(), out.data());
      for (size_t i = 0; i < n; ++i) {
        Bytes ref = HmacSha256(keys[i], msgs[i]);
        ASSERT_EQ(0, std::memcmp(out.data() + 32 * i, ref.data(), 32))
            << "pair=" << done + i << " kernel=" << static_cast<int>(kernel)
            << " klen=" << keys[i].size() << " mlen=" << msgs[i].size();
      }
    }
    done += n;
  }
}

// Every forced kernel must agree with the scalar one directly (not only
// via the one-shot reference): same inputs through each.
TEST(HmacSha256Batch, ForcedKernelsAgree) {
  const std::vector<Sha256Kernel> kernels = AvailableKernels();
  if (kernels.size() == 1) {
    GTEST_SKIP() << "no AVX2 or SHA-NI on this CPU; scalar-only build";
  }
  Xoshiro256 rng(0x5135'0003);
  constexpr size_t kN = 64;
  std::vector<Bytes> keys(kN), msgs(kN);
  std::vector<ByteView> kviews(kN), mviews(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = rng.NextBytes(rng.NextBelow(80));
    msgs[i] = rng.NextBytes(rng.NextBelow(300));
    kviews[i] = ByteView(keys[i]);
    mviews[i] = ByteView(msgs[i]);
  }
  std::vector<uint8_t> scalar_out(32 * kN), forced_out(32 * kN);
  sha256x8_internal::HmacSha256BatchWithKernel(
      Sha256Kernel::kScalar, kN, kviews.data(), mviews.data(),
      scalar_out.data());
  for (Sha256Kernel kernel : kernels) {
    sha256x8_internal::HmacSha256BatchWithKernel(kernel, kN, kviews.data(),
                                                 mviews.data(),
                                                 forced_out.data());
    EXPECT_EQ(scalar_out, forced_out) << "kernel=" << static_cast<int>(kernel);
  }
}

TEST(Sha256BatchKernel, AvailabilityFollowsCpuDetection) {
  EXPECT_EQ(sha256x8_internal::KernelAvailable(Sha256Kernel::kShaNi),
            CpuDetected().sha);
}

TEST(HmacSha256x8, MatchesBatchEntryPoint) {
  Xoshiro256 rng(0x5135'0004);
  Bytes keys[8], msgs[8];
  ByteView kviews[8], mviews[8];
  for (int i = 0; i < 8; ++i) {
    keys[i] = rng.NextBytes(20);
    msgs[i] = rng.NextBytes(rng.NextBelow(100));
    kviews[i] = ByteView(keys[i]);
    mviews[i] = ByteView(msgs[i]);
  }
  uint8_t a[8][32];
  uint8_t b[8 * 32];
  HmacSha256x8(kviews, mviews, a);
  HmacSha256Batch(8, kviews, mviews, b);
  EXPECT_EQ(0, std::memcmp(a, b, sizeof(b)));
}

// The schedule-keyed epoch PRF (what EpochKeyCache derives through)
// equals the one-shot scalar PRF of the raw key, for partial and full
// groups, through the dispatched entry point and under every forced
// kernel (the AVX2 lanes start from the schedules' chaining values).
TEST(EpochPrfSha256Batch, ScheduledKeysMatchScalarPrfUnderEveryKernel) {
  Xoshiro256 rng(0x5135'0005);
  for (size_t n : {1, 7, 8, 9, 64, 257}) {
    std::vector<Bytes> keys(n);
    std::vector<PrfKey> scheduled;
    scheduled.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Mostly the protocol's 20-byte width, sometimes past a block.
      keys[i] = rng.NextBytes(i % 5 == 4 ? 65 + rng.NextBelow(40) : 20);
      scheduled.emplace_back(keys[i]);
    }
    const uint64_t epoch = 0x0102'0304'0506'0708ull + n;
    Bytes ref;
    for (size_t i = 0; i < n; ++i) {
      const Bytes tag = EpochPrfSha256(keys[i], epoch);
      ref.insert(ref.end(), tag.begin(), tag.end());
    }
    Bytes out(32 * n);
    EpochPrfSha256Batch(n, scheduled.data(), epoch, out.data());
    EXPECT_EQ(out, ref) << "n=" << n << " dispatched";
    const Bytes t = EncodeUint64(epoch);
    for (Sha256Kernel kernel : AvailableKernels()) {
      std::fill(out.begin(), out.end(), 0);
      sha256x8_internal::PrfSha256BatchWithKernel(kernel, n, scheduled.data(),
                                                  t, out.data());
      EXPECT_EQ(out, ref) << "n=" << n
                          << " kernel=" << static_cast<int>(kernel);
    }
  }
}

// The shared-message form over a message longer than one block (the
// lanes' multi-block path) equals the one-shot HMAC too.
TEST(PrfSha256Batch, LongSharedMessageMatchesScalarHmac) {
  Xoshiro256 rng(0x5135'0006);
  constexpr size_t kN = 19;
  const Bytes msg = rng.NextBytes(150);
  std::vector<Bytes> keys(kN);
  std::vector<PrfKey> scheduled;
  for (Bytes& key : keys) {
    key = rng.NextBytes(20);
    scheduled.emplace_back(key);
  }
  for (Sha256Kernel kernel : AvailableKernels()) {
    Bytes out(32 * kN);
    sha256x8_internal::PrfSha256BatchWithKernel(kernel, kN, scheduled.data(),
                                                msg, out.data());
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(Bytes(out.begin() + 32 * i, out.begin() + 32 * (i + 1)),
                HmacSha256(keys[i], msg))
          << "kernel=" << static_cast<int>(kernel) << " i=" << i;
    }
  }
}

TEST(HmacSha256Batch, ZeroPairsIsANoOp) {
  uint8_t sentinel = 0xAB;
  HmacSha256Batch(0, nullptr, nullptr, &sentinel);
  EXPECT_EQ(sentinel, 0xAB);
}

}  // namespace
}  // namespace sies::crypto
