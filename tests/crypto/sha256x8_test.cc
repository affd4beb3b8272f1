// Differential tests pinning the SHA-256 batches (crypto/hmac.h) to one
// HMAC at a time, bit for bit. (The file and its ctest keep the name of
// the 8-lane SHA-256 kernel these cases were first written for.)
//
//   - HmacSha256Batch over >= 10^4 random (key, message) pairs with
//     ragged key and message lengths, against the portable HMAC of each
//     pair, and with zero pairs.
//   - EpochPrfSha256Batch and PrfSha256Batch over scheduled keys
//     (crypto::PrfKey, what EpochKeyCache derives through) against the
//     one-shot PRF of each raw key: dispatched, and under every body this
//     machine can run through hmac_internal::PrfSha256BatchWith, for
//     n in {0, 1, 2, 3, 64, 255, 256, 257} (a lone last lane, the 64-key
//     chunk boundaries) and for one shared message longer than 55 B.
//
// Also registered as a `_portable` twin under SIES_NATIVE=scalar; these
// run under check.sh --sanitize and --tsan. The KAT anchors (FIPS
// vectors, Python-generated ragged-pair digests) live in kat_test.cc.
#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sies::crypto {
namespace {

std::vector<md_internal::CompressFn> Bodies() {
  std::vector<md_internal::CompressFn> bodies = {
      sha256_internal::CompressPortable};
  if (CpuDetected().sha) bodies.push_back(sha256_internal::CompressShaNi);
  return bodies;
}

const char* BodyName(md_internal::CompressFn body) {
  return body == sha256_internal::CompressShaNi ? "sha_ni" : "portable";
}

// The acceptance-criteria differential: >= 10^4 random HMAC pairs with
// ragged lengths, batch == the portable HMAC of each pair.
TEST(HmacSha256Batch, TenThousandRandomPairsMatchScalar) {
  constexpr size_t kPairs = 10'016;
  constexpr size_t kChunk = 32;
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
    HmacSha256Batch(n, kviews.data(), mviews.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      uint8_t ref[32];
      hmac_internal::HmacSha256With(sha256_internal::CompressPortable,
                                    kviews[i], mviews[i], ref);
      ASSERT_EQ(0, std::memcmp(out.data() + 32 * i, ref, 32))
          << "pair=" << done + i << " klen=" << keys[i].size()
          << " mlen=" << msgs[i].size();
    }
    done += n;
  }
}

TEST(HmacSha256Batch, ZeroPairsIsANoOp) {
  uint8_t sentinel = 0xAB;
  HmacSha256Batch(0, nullptr, nullptr, &sentinel);
  EXPECT_EQ(sentinel, 0xAB);
}

// The schedule-keyed epoch PRF (what EpochKeyCache derives through)
// equals the one-shot PRF of the raw key, through the dispatched entry
// point and under every pinned body, writing nothing past the n-th tag.
TEST(EpochPrfSha256Batch, ScheduledKeysMatchOneShotPrfUnderEveryBody) {
  Xoshiro256 rng(0x5135'0005);
  for (size_t n : {0, 1, 2, 3, 64, 255, 256, 257}) {
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
    ref.push_back(0xEE);  // guard byte
    Bytes out(32 * n + 1, 0xEE);
    EpochPrfSha256Batch(n, scheduled.data(), epoch, out.data());
    EXPECT_EQ(out, ref) << "n=" << n << " dispatched";
    const Bytes t = EncodeUint64(epoch);
    for (md_internal::CompressFn body : Bodies()) {
      std::fill(out.begin(), out.end(), 0xEE);
      hmac_internal::PrfSha256BatchWith(body, n, scheduled.data(), t,
                                        out.data());
      EXPECT_EQ(out, ref) << "n=" << n << " body=" << BodyName(body);
    }
  }
}

// The shared-message form over a message longer than one block (the
// per-key generic path on every body) equals the one-shot HMAC too.
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
  Bytes out(32 * kN);
  PrfSha256Batch(kN, scheduled.data(), msg, out.data());
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(Bytes(out.begin() + 32 * i, out.begin() + 32 * (i + 1)),
              HmacSha256(keys[i], msg))
        << "dispatched i=" << i;
  }
  for (md_internal::CompressFn body : Bodies()) {
    std::fill(out.begin(), out.end(), 0);
    hmac_internal::PrfSha256BatchWith(body, kN, scheduled.data(), msg,
                                      out.data());
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(Bytes(out.begin() + 32 * i, out.begin() + 32 * (i + 1)),
                HmacSha256(keys[i], msg))
          << "body=" << BodyName(body) << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace sies::crypto
