// Pins the SHA-NI HMAC lane kernels (sha1_internal / sha256_internal::
// HmacShaNi and EpochHmacShaNi) and the PRF batches built on them to the
// portable HMAC, tag by tag:
//
//   - One lane and two lanes, both hashes, every message length 0-55
//     (the one-block range) and the epoch form, under random keys of 0,
//     20, 64, 65 and 131 bytes. The lanes of a call always carry
//     different keys and each tag is compared with its own key's
//     reference, so a swapped lane or a shared outer chain fails.
//   - The public entry points: lengths 0-130, so 56-130 run the generic
//     path through the same hooks.
//   - PrfSha256Batch, EpochPrfSha256Batch and EpochPrfSha1Batch for
//     n in {0, 1, 2, 3, 64, 255, 256, 257}, dispatched and under every
//     pinned body, writing nothing past the n-th tag.
//
// Also registered as a `_portable` twin under SIES_NATIVE=scalar: the
// dispatched entry points then run the portable body, and the forced
// SHA-NI cases still run wherever the CPU has the extensions.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sies::crypto {
namespace {

constexpr size_t kKeyLengths[] = {0, 20, 64, 65, 131};
constexpr uint64_t kEpochs[] = {0, 1, 0xFFFFFFFFull, 0x100000000ull,
                                0x0102030405060708ull, ~0ull};

// A PrfKey scheduled on the portable bodies: the kernels under test
// start from chaining values they did not compute.
PrfKey PortableSchedule(const Bytes& key) {
  return hmac_internal::ScheduleWith(sha1_internal::CompressPortable,
                                     sha256_internal::CompressPortable, key);
}

Bytes PortableHmac(size_t tag_len, const Bytes& key, const Bytes& msg) {
  Bytes tag(tag_len);
  if (tag_len == 20) {
    hmac_internal::HmacSha1With(sha1_internal::CompressPortable, key, msg,
                                tag.data());
  } else {
    hmac_internal::HmacSha256With(sha256_internal::CompressPortable, key,
                                  msg, tag.data());
  }
  return tag;
}

// Each hash's lane kernels, with its tag width and chain accessor.
struct Sha1Lanes {
  static constexpr size_t kTag = 20;
  static const HmacChain<5>* Chain(const PrfKey& k) { return &k.sha1(); }
  static void Mac(size_t n, const HmacChain<5>* const* c, const Bytes& m,
                  uint8_t* out) {
    sha1_internal::HmacShaNi(n, c, m.data(), m.size(), out);
  }
  static void Epoch(size_t n, const HmacChain<5>* const* c, uint64_t t,
                    uint8_t* out) {
    sha1_internal::EpochHmacShaNi(n, c, t, out);
  }
};

struct Sha256Lanes {
  static constexpr size_t kTag = 32;
  static const HmacChain<8>* Chain(const PrfKey& k) { return &k.sha256(); }
  static void Mac(size_t n, const HmacChain<8>* const* c, const Bytes& m,
                  uint8_t* out) {
    sha256_internal::HmacShaNi(n, c, m.data(), m.size(), out);
  }
  static void Epoch(size_t n, const HmacChain<8>* const* c, uint64_t t,
                    uint8_t* out) {
    sha256_internal::EpochHmacShaNi(n, c, t, out);
  }
};

template <typename H>
class HmacLanes : public ::testing::Test {};
using Hashes = ::testing::Types<Sha1Lanes, Sha256Lanes>;
TYPED_TEST_SUITE(HmacLanes, Hashes);

// n lanes (1, 2, or 3 for a pair plus a lone tail) under distinct
// random keys, the first lane's key of length `key_len`.
template <typename H>
void CheckLanes(size_t n, size_t key_len, const Bytes& msg,
                const uint64_t* epoch, Xoshiro256& rng) {
  using Chain = std::remove_pointer_t<decltype(H::Chain(
      std::declval<const PrfKey&>()))>;
  std::vector<Bytes> keys(n);
  std::vector<PrfKey> scheduled;
  std::vector<const Chain*> chains(n);
  for (size_t l = 0; l < n; ++l) {
    // Distinct keys per lane: the other lanes cycle through the widths.
    keys[l] = rng.NextBytes(
        l == 0 ? key_len : kKeyLengths[(l + key_len) % std::size(kKeyLengths)]);
    if (l > 0 && keys[l] == keys[0]) keys[l].push_back(0x5a);
    scheduled.push_back(PortableSchedule(keys[l]));
  }
  for (size_t l = 0; l < n; ++l) chains[l] = H::Chain(scheduled[l]);
  // One guard byte past the last tag must stay untouched.
  Bytes out(H::kTag * n + 1, 0xEE);
  if (epoch != nullptr) {
    H::Epoch(n, chains.data(), *epoch, out.data());
  } else {
    H::Mac(n, chains.data(), msg, out.data());
  }
  const Bytes message = epoch != nullptr ? EncodeUint64(*epoch) : msg;
  for (size_t l = 0; l < n; ++l) {
    EXPECT_EQ(Bytes(out.begin() + H::kTag * l, out.begin() + H::kTag * (l + 1)),
              PortableHmac(H::kTag, keys[l], message))
        << "lanes=" << n << " lane=" << l << " key_len=" << keys[l].size()
        << " msg_len=" << message.size();
  }
  EXPECT_EQ(out.back(), 0xEE) << "wrote past the last tag";
}

TYPED_TEST(HmacLanes, OneBlockMessagesMatchPortableHmac) {
  if (!CpuDetected().sha) GTEST_SKIP() << "no SHA extensions on this CPU";
  Xoshiro256 rng(0x1a9e'0001 + TypeParam::kTag);
  for (size_t n : {1, 2, 3}) {
    for (size_t key_len : kKeyLengths) {
      for (size_t len = 0; len <= md_internal::kMaxOneBlockTail; ++len) {
        CheckLanes<TypeParam>(n, key_len, rng.NextBytes(len), nullptr, rng);
      }
    }
  }
}

TYPED_TEST(HmacLanes, EpochBlockBuiltInRegistersMatchesPortableHmac) {
  if (!CpuDetected().sha) GTEST_SKIP() << "no SHA extensions on this CPU";
  Xoshiro256 rng(0x1a9e'0002 + TypeParam::kTag);
  for (size_t n : {1, 2, 3}) {
    for (size_t key_len : kKeyLengths) {
      for (uint64_t epoch : kEpochs) {
        CheckLanes<TypeParam>(n, key_len, {}, &epoch, rng);
      }
    }
  }
}

TYPED_TEST(HmacLanes, ZeroLanesWriteNothing) {
  if (!CpuDetected().sha) GTEST_SKIP() << "no SHA extensions on this CPU";
  uint8_t sentinel = 0xAB;
  TypeParam::Epoch(0, nullptr, 7, &sentinel);
  TypeParam::Mac(0, nullptr, Bytes{1, 2, 3}, &sentinel);
  EXPECT_EQ(sentinel, 0xAB);
}

// The public entry points route a one-block message to the lane kernel
// (dispatched, and through the pinned-body hooks) and anything longer
// to the generic path; every length 0-130 matches the portable HMAC,
// from the raw key and from its schedule.
TEST(HmacLanesRouting, PublicEntryPointsMatchPortableAcrossLengths) {
  std::vector<md_internal::CompressFn> sha1_bodies = {
      sha1_internal::Compress(), sha1_internal::CompressPortable};
  std::vector<md_internal::CompressFn> sha256_bodies = {
      sha256_internal::Compress(), sha256_internal::CompressPortable};
  if (CpuDetected().sha) {
    sha1_bodies.push_back(sha1_internal::CompressShaNi);
    sha256_bodies.push_back(sha256_internal::CompressShaNi);
  }
  Xoshiro256 rng(0x1a9e'0003);
  for (size_t len = 0; len <= 130; ++len) {
    const Bytes key = rng.NextBytes(kKeyLengths[len % std::size(kKeyLengths)]);
    const Bytes msg = rng.NextBytes(len);
    const PrfKey scheduled(key);
    const Bytes ref1 = PortableHmac(20, key, msg);
    const Bytes ref256 = PortableHmac(32, key, msg);
    uint8_t tag1[20], tag256[32];
    HmacSha1Into(scheduled, msg, tag1);
    EXPECT_EQ(Bytes(tag1, tag1 + 20), ref1) << "len=" << len;
    HmacSha256Into(scheduled, msg, tag256);
    EXPECT_EQ(Bytes(tag256, tag256 + 32), ref256) << "len=" << len;
    EXPECT_EQ(HmacSha1(key, msg), ref1) << "len=" << len;
    EXPECT_EQ(HmacSha256(key, msg), ref256) << "len=" << len;
    for (md_internal::CompressFn body : sha1_bodies) {
      hmac_internal::HmacSha1With(body, scheduled, msg, tag1);
      EXPECT_EQ(Bytes(tag1, tag1 + 20), ref1) << "len=" << len;
      hmac_internal::HmacSha1With(body, key, msg, tag1);
      EXPECT_EQ(Bytes(tag1, tag1 + 20), ref1) << "len=" << len;
    }
    for (md_internal::CompressFn body : sha256_bodies) {
      hmac_internal::HmacSha256With(body, scheduled, msg, tag256);
      EXPECT_EQ(Bytes(tag256, tag256 + 32), ref256) << "len=" << len;
      hmac_internal::HmacSha256With(body, key, msg, tag256);
      EXPECT_EQ(Bytes(tag256, tag256 + 32), ref256) << "len=" << len;
    }
  }
}

// --- the PRF batches --------------------------------------------------

constexpr size_t kBatchSizes[] = {0, 1, 2, 3, 64, 255, 256, 257};

struct BatchKeys {
  explicit BatchKeys(size_t n, Xoshiro256& rng) : raw(n), ptrs(n) {
    scheduled.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      raw[i] = rng.NextBytes(kKeyLengths[i % std::size(kKeyLengths)]);
      scheduled.emplace_back(raw[i]);
    }
    for (size_t i = 0; i < n; ++i) ptrs[i] = &scheduled[i];
  }
  std::vector<Bytes> raw;
  std::vector<PrfKey> scheduled;
  std::vector<const PrfKey*> ptrs;
};

// The n portable tags of `msg`, concatenated, then one guard byte.
Bytes Reference(size_t tag_len, const BatchKeys& keys, const Bytes& msg) {
  Bytes ref;
  for (const Bytes& key : keys.raw) {
    const Bytes tag = PortableHmac(tag_len, key, msg);
    ref.insert(ref.end(), tag.begin(), tag.end());
  }
  ref.push_back(0xEE);
  return ref;
}

TEST(PrfBatches, Sha256BatchesMatchPortableUnderEveryBody) {
  std::vector<md_internal::CompressFn> bodies = {
      sha256_internal::CompressPortable};
  if (CpuDetected().sha) bodies.push_back(sha256_internal::CompressShaNi);
  Xoshiro256 rng(0x1a9e'0004);
  for (size_t n : kBatchSizes) {
    const BatchKeys keys(n, rng);
    const uint64_t epoch = 0x0A0B0C0D00000000ull + n;
    const Bytes t = EncodeUint64(epoch);
    const Bytes msg = rng.NextBytes(13);
    const Bytes ref_epoch = Reference(32, keys, t);
    const Bytes ref_msg = Reference(32, keys, msg);

    Bytes out(32 * n + 1, 0xEE);
    EpochPrfSha256Batch(n, keys.scheduled.data(), epoch, out.data());
    EXPECT_EQ(out, ref_epoch) << "n=" << n << " dispatched epoch";
    std::fill(out.begin(), out.end(), 0xEE);
    PrfSha256Batch(n, keys.scheduled.data(), msg, out.data());
    EXPECT_EQ(out, ref_msg) << "n=" << n << " dispatched message";
    for (md_internal::CompressFn body : bodies) {
      const char* name =
          body == sha256_internal::CompressShaNi ? "sha_ni" : "portable";
      std::fill(out.begin(), out.end(), 0xEE);
      hmac_internal::PrfSha256BatchWith(body, n, keys.scheduled.data(), t,
                                        out.data());
      EXPECT_EQ(out, ref_epoch) << "n=" << n << " body=" << name;
      std::fill(out.begin(), out.end(), 0xEE);
      hmac_internal::PrfSha256BatchWith(body, n, keys.scheduled.data(), msg,
                                        out.data());
      EXPECT_EQ(out, ref_msg) << "n=" << n << " body=" << name;
    }
  }
}

TEST(PrfBatches, Sha1BatchMatchesPortableUnderEveryBody) {
  std::vector<md_internal::CompressFn> bodies = {
      sha1_internal::CompressPortable};
  if (CpuDetected().sha) bodies.push_back(sha1_internal::CompressShaNi);
  Xoshiro256 rng(0x1a9e'0005);
  for (size_t n : kBatchSizes) {
    const BatchKeys keys(n, rng);
    const uint64_t epoch = 0x0A0B0C0D00000000ull + n;
    const Bytes ref = Reference(20, keys, EncodeUint64(epoch));

    Bytes out(20 * n + 1, 0xEE);
    EpochPrfSha1Batch(n, keys.ptrs.data(), epoch, out.data());
    EXPECT_EQ(out, ref) << "n=" << n << " dispatched";
    for (md_internal::CompressFn body : bodies) {
      std::fill(out.begin(), out.end(), 0xEE);
      hmac_internal::EpochPrfSha1BatchWith(body, n, keys.ptrs.data(), epoch,
                                           out.data());
      EXPECT_EQ(out, ref) << "n=" << n << " body="
                          << (body == sha1_internal::CompressShaNi
                                  ? "sha_ni"
                                  : "portable");
    }
  }
}

// The HM1 batch takes key pointers: a gather in any order, repeats
// included, yields each key's own tag (CMT's querier batches its
// participants this way).
TEST(PrfBatches, Sha1BatchFollowsTheGather) {
  Xoshiro256 rng(0x1a9e'0006);
  const BatchKeys keys(9, rng);
  const std::vector<size_t> order = {8, 3, 3, 0, 5, 1, 7};
  std::vector<const PrfKey*> gathered;
  for (size_t i : order) gathered.push_back(keys.ptrs[i]);
  Bytes out(20 * order.size());
  EpochPrfSha1Batch(order.size(), gathered.data(), 42, out.data());
  for (size_t j = 0; j < order.size(); ++j) {
    EXPECT_EQ(Bytes(out.begin() + 20 * j, out.begin() + 20 * (j + 1)),
              EpochPrfSha1(keys.raw[order[j]], 42))
        << "j=" << j;
  }
}

}  // namespace
}  // namespace sies::crypto
