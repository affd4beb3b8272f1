#include "sies/params.h"

#include "sies/message_format.h"

#include <gtest/gtest.h>

#include <set>

namespace sies::core {
namespace {

TEST(MakeParamsTest, ReferenceConfiguration) {
  auto params = MakeParams(1024, /*seed=*/1).value();
  EXPECT_EQ(params.num_sources, 1024u);
  EXPECT_EQ(params.value_bytes, 4u);
  EXPECT_EQ(params.share_bytes, 20u);
  EXPECT_EQ(params.pad_bits, 10u);  // ceil(log2 1024)
  EXPECT_EQ(params.prime.BitLength(), 256u);
  EXPECT_EQ(params.PsrBytes(), 32u);  // the paper's 32-byte PSR
  EXPECT_TRUE(params.Validate().ok());
}

TEST(MakeParamsTest, PadBitsTracksN) {
  EXPECT_EQ(MakeParams(1, 1).value().pad_bits, 0u);
  EXPECT_EQ(MakeParams(2, 1).value().pad_bits, 1u);
  EXPECT_EQ(MakeParams(3, 1).value().pad_bits, 2u);
  EXPECT_EQ(MakeParams(1025, 1).value().pad_bits, 11u);
  EXPECT_EQ(MakeParams(16384, 1).value().pad_bits, 14u);
}

TEST(MakeParamsTest, ValueShift) {
  auto params = MakeParams(1024, 1).value();
  EXPECT_EQ(params.ValueShiftBits(), 160u + 10u);
}

TEST(MakeParamsTest, MaxSafeValue) {
  auto params = MakeParams(1024, 1).value();
  // 1024 sources each reporting MaxSafeValue must not overflow 2^32-1.
  EXPECT_LE(static_cast<uint64_t>(params.num_sources) *
                params.MaxSafeValue(),
            (uint64_t{1} << 32) - 1);
  EXPECT_GT(params.MaxSafeValue(), 0u);
}

TEST(MakeParamsTest, EightByteValueField) {
  auto params = MakeParams(1024, 1, /*value_bytes=*/8).value();
  EXPECT_TRUE(params.Validate().ok());
  EXPECT_GT(params.MaxSafeValue(), (uint64_t{1} << 32));
}

TEST(MakeParamsTest, LayoutMustFitUnderPrime) {
  // value 8 bytes + pad + shares 20 bytes: pad must stay small enough.
  // With a 256-bit prime (top bit set), 64 + pad + 160 + 1 <= 256 holds
  // up to pad = 31, i.e. N = 2^31 exactly fits...
  EXPECT_TRUE(MakeParams(1u << 31, 1, /*value_bytes=*/8).ok());
  // ...but one more source pushes pad to 32 bits and must be rejected.
  auto too_big = MakeParams((1u << 31) + 1, 1, /*value_bytes=*/8);
  EXPECT_FALSE(too_big.ok()) << "2^31+1 sources with 8-byte values must "
                                "not fit in a 256-bit prime";
  // A larger prime accommodates it.
  auto bigger_prime = MakeParams((1u << 31) + 1, 1, 8, /*prime_bits=*/320);
  EXPECT_TRUE(bigger_prime.ok());
}

TEST(MakeParamsTest, RejectsZeroSources) {
  EXPECT_FALSE(MakeParams(0, 1).ok());
}

TEST(ValidateTest, CatchesBadFieldSizes) {
  auto params = MakeParams(16, 1).value();
  params.value_bytes = 3;
  EXPECT_FALSE(params.Validate().ok());
  params.value_bytes = 4;
  params.share_bytes = 16;
  EXPECT_FALSE(params.Validate().ok());
  params.share_bytes = 20;
  params.prime = crypto::BigUint();
  EXPECT_FALSE(params.Validate().ok());
}

TEST(ValidateTest, CatchesUndersizedPad) {
  auto params = MakeParams(16, 1).value();
  params.pad_bits = 3;  // 2^3 < 16
  EXPECT_FALSE(params.Validate().ok());
}

TEST(GenerateKeysTest, SizesAndUniqueness) {
  auto params = MakeParams(64, 1).value();
  QuerierKeys keys = GenerateKeys(params, {1, 2, 3});
  EXPECT_EQ(keys.global_key.size(), 20u);
  EXPECT_EQ(keys.source_keys.size(), 64u);
  for (const Bytes& k : keys.source_keys) {
    EXPECT_EQ(k.size(), 20u);
    EXPECT_NE(k, keys.global_key);
  }
  // All pairwise distinct.
  std::set<Bytes> distinct(keys.source_keys.begin(), keys.source_keys.end());
  EXPECT_EQ(distinct.size(), 64u);
}

TEST(GenerateKeysTest, DeterministicPerSeed) {
  auto params = MakeParams(4, 1).value();
  QuerierKeys a = GenerateKeys(params, {9});
  QuerierKeys b = GenerateKeys(params, {9});
  QuerierKeys c = GenerateKeys(params, {10});
  EXPECT_EQ(a.global_key, b.global_key);
  EXPECT_EQ(a.source_keys, b.source_keys);
  EXPECT_NE(a.source_keys[0], c.source_keys[0]);
}

TEST(KeysForSourceTest, ExtractsAndBoundsChecks) {
  auto params = MakeParams(4, 1).value();
  QuerierKeys keys = GenerateKeys(params, {9});
  auto sk = KeysForSource(keys, 2);
  ASSERT_TRUE(sk.ok());
  EXPECT_EQ(sk.value().global_key, keys.global_key);
  EXPECT_EQ(sk.value().source_key, keys.source_keys[2]);
  EXPECT_FALSE(KeysForSource(keys, 4).ok());
}

TEST(TemporalKeysTest, ReducedIntoPrimeField) {
  auto params = MakeParams(16, 1).value();
  const crypto::PrfKey key(Bytes(20, 0x77));
  for (uint64_t epoch = 0; epoch < 20; ++epoch) {
    crypto::BigUint kt = DeriveEpochGlobalKey(params, key, epoch);
    EXPECT_FALSE(kt.IsZero()) << "K_t must be invertible";
    EXPECT_LT(kt, params.prime);
    EXPECT_LT(DeriveEpochSourceKey(params, key, epoch), params.prime);
  }
}

TEST(TemporalKeysTest, EpochSeparation) {
  auto params = MakeParams(16, 1).value();
  const crypto::PrfKey key(Bytes(20, 0x77));
  EXPECT_NE(DeriveEpochGlobalKey(params, key, 1),
            DeriveEpochGlobalKey(params, key, 2));
  EXPECT_NE(DeriveEpochSourceKey(params, key, 1),
            DeriveEpochSourceKey(params, key, 2));
  EXPECT_NE(DeriveEpochShare(key, 1), DeriveEpochShare(key, 2));
}

TEST(TemporalKeysTest, KeySeparation) {
  auto params = MakeParams(16, 1).value();
  const crypto::PrfKey k1(Bytes(20, 0x01)), k2(Bytes(20, 0x02));
  EXPECT_NE(DeriveEpochSourceKey(params, k1, 5),
            DeriveEpochSourceKey(params, k2, 5));
  EXPECT_NE(DeriveEpochShare(k1, 5), DeriveEpochShare(k2, 5));
}

TEST(TemporalKeysTest, ShareIsTwentyBytes) {
  const crypto::PrfKey key(Bytes(20, 0x33));
  crypto::BigUint share = DeriveEpochShare(key, 3);
  EXPECT_LE(share.BitLength(), 160u);
  EXPECT_FALSE(share.IsZero());  // 2^-160 chance; deterministic here
}

TEST(HardenedProfileTest, Sha256SharesWork) {
  // The hardened profile: 32-byte HMAC-SHA256 shares under a wider prime.
  auto params = MakeParams(64, 1, /*value_bytes=*/4, /*prime_bits=*/352,
                           SharePrf::kHmacSha256)
                    .value();
  EXPECT_EQ(params.share_bytes, 32u);
  EXPECT_EQ(params.PsrBytes(), 44u);
  EXPECT_TRUE(params.Validate().ok());
  const crypto::PrfKey key(Bytes(20, 0x33));
  crypto::BigUint share = DeriveEpochShare(params, key, 3);
  EXPECT_GT(share.BitLength(), 160u);
  EXPECT_LE(share.BitLength(), 256u);
  // Domain separation: the share differs from the epoch source key.
  EXPECT_NE(share, DeriveEpochSourceKey(params, key, 3));
}

TEST(HardenedProfileTest, Sha256SharesNeedWiderPrime) {
  // 32 + pad + 256 + 1 > 256: the default prime cannot host them.
  EXPECT_FALSE(MakeParams(64, 1, 4, 256, SharePrf::kHmacSha256).ok());
}

TEST(HardenedProfileTest, ValidateCatchesPrfSizeMismatch) {
  auto params = MakeParams(16, 1, 4, 352, SharePrf::kHmacSha256).value();
  params.share_bytes = 20;  // inconsistent with the PRF
  EXPECT_FALSE(params.Validate().ok());
}

TEST(HardenedProfileTest, EndToEndExactAndSecure) {
  auto params = MakeParams(8, 5, 4, 352, SharePrf::kHmacSha256).value();
  QuerierKeys keys = GenerateKeys(params, {7});
  // Full pipeline through Source/Querier (they use params.share_prf).
  const crypto::PrfKey global_key(keys.global_key);
  crypto::BigUint sum_cipher;
  uint64_t expected = 0;
  for (uint32_t i = 0; i < 8; ++i) {
    const crypto::PrfKey k_i(keys.source_keys[i]);
    uint64_t v = 100 + i;
    expected += v;
    auto m = PackMessage(params, v, DeriveEpochShare(params, k_i, 1))
                 .value();
    auto c = Encrypt(params, m, DeriveEpochGlobalKey(params, global_key, 1),
                     DeriveEpochSourceKey(params, k_i, 1))
                 .value();
    sum_cipher =
        crypto::BigUint::ModAdd(sum_cipher, c, params.prime).value();
  }
  // Decrypt + verify by hand (mirrors Querier::Evaluate).
  crypto::BigUint key_sum, share_sum;
  for (uint32_t i = 0; i < 8; ++i) {
    const crypto::PrfKey k_i(keys.source_keys[i]);
    key_sum = crypto::BigUint::ModAdd(key_sum,
                                      DeriveEpochSourceKey(params, k_i, 1),
                                      params.prime)
                  .value();
    share_sum =
        crypto::BigUint::Add(share_sum, DeriveEpochShare(params, k_i, 1));
  }
  auto m = Decrypt(params, sum_cipher,
                   DeriveEpochGlobalKey(params, global_key, 1), key_sum)
               .value();
  auto unpacked = UnpackMessage(params, m).value();
  EXPECT_EQ(unpacked.sum, expected);
  EXPECT_EQ(unpacked.share_sum, share_sum);
}

}  // namespace
}  // namespace sies::core
