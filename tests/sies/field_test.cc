// The two fields agree on one prime: every SIES template, run under
// FixedField and under BigField on the same 256-bit params, gives the
// same values, bytes and error messages. Two primes (two MakeParams
// seeds) so that no result hangs on one prime's shape.
#include "sies/field.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "sies/aggregator.h"
#include "sies/epoch_key_cache.h"
#include "sies/message_format.h"
#include "sies/querier.h"
#include "sies/source.h"

namespace sies::core {
namespace {

constexpr uint64_t kSeeds[] = {1, 2};

// One prime's params, both fields over it, and N scheduled keys.
struct OnePrime {
  OnePrime(uint64_t seed, uint32_t n)
      : params(MakeParams(n, seed).value()),
        fixed(params, *params.Fp()),
        big(params),
        raw(GenerateKeys(params, EncodeUint64(seed))),
        global_key(raw.global_key),
        source_keys(crypto::ScheduleKeys(raw.source_keys)) {}
  Params params;
  FixedField fixed;
  BigField big;
  QuerierKeys raw;
  crypto::PrfKey global_key;
  std::vector<crypto::PrfKey> source_keys;
};

// Same accept/reject decision and, on reject, the same Status.
template <typename A, typename B>
::testing::AssertionResult SameStatus(const StatusOr<A>& fixed,
                                      const StatusOr<B>& big) {
  if (fixed.status() == big.status()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "FixedField " << fixed.status().ToString() << ", BigField "
         << big.status().ToString();
}

TEST(FieldTest, WithFieldPicksOneFieldPerParams) {
  auto picked_fixed = [](const Params& params) {
    return WithField(params, [](const auto& field) {
      return std::is_same_v<std::decay_t<decltype(field)>, FixedField>;
    });
  };
  EXPECT_TRUE(picked_fixed(MakeParams(16, 1).value()));
  EXPECT_FALSE(picked_fixed(MakeParams(16, 1, 4, 320).value()));
  EXPECT_FALSE(picked_fixed(MakeParams(16, 1, 4, 224).value()));
  EXPECT_FALSE(
      picked_fixed(MakeParams(16, 1, 4, 352, SharePrf::kHmacSha256).value()));
  // The share PRF decides too: HM256 shares never run on FixedField, even
  // under a 256-bit prime (which Validate would reject anyway).
  Params hm256 = MakeParams(16, 1).value();
  hm256.share_prf = SharePrf::kHmacSha256;
  EXPECT_FALSE(picked_fixed(hm256));
}

TEST(FieldTest, GlobalKeyAndInverse) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    OnePrime s(seed, 4);
    for (uint64_t epoch : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                           uint64_t{1} << 40}) {
      const crypto::U256 kt_fixed =
          DeriveEpochGlobalKey(s.fixed, s.global_key, epoch);
      const crypto::BigUint kt_big =
          DeriveEpochGlobalKey(s.big, s.global_key, epoch);
      EXPECT_EQ(kt_fixed.ToBigUint(), kt_big);
      EXPECT_EQ(s.fixed.Inverse(kt_fixed).value().ToBigUint(),
                s.big.Inverse(kt_big).value());
    }
    // The zero element has no inverse in either field, with one message.
    ASSERT_TRUE(SameStatus(s.fixed.Inverse(crypto::U256()),
                           s.big.Inverse(crypto::BigUint())));
  }
}

TEST(FieldTest, SingleAndBatchedDerivations) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    OnePrime s(seed, 257);
    for (size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 257u}) {
      SCOPED_TRACE(n);
      std::vector<crypto::U256> keys_fixed(n), shares_fixed(n);
      std::vector<crypto::BigUint> keys_big(n), shares_big(n);
      DeriveEpochSourceKeysBatch(s.fixed, s.source_keys.data(), n, 5,
                                 keys_fixed.data());
      DeriveEpochSharesBatch(s.fixed, s.source_keys.data(), n, 5,
                             shares_fixed.data());
      DeriveEpochSourceKeysBatch(s.big, s.source_keys.data(), n, 5,
                                 keys_big.data());
      DeriveEpochSharesBatch(s.big, s.source_keys.data(), n, 5,
                             shares_big.data());
      for (size_t i = 0; i < n; ++i) {
        const crypto::BigUint key =
            DeriveEpochSourceKey(s.big, s.source_keys[i], 5);
        const crypto::BigUint share =
            DeriveEpochShare(s.big, s.source_keys[i], 5);
        EXPECT_EQ(
            DeriveEpochSourceKey(s.fixed, s.source_keys[i], 5).ToBigUint(),
            key)
            << "i=" << i;
        EXPECT_EQ(DeriveEpochShare(s.fixed, s.source_keys[i], 5).ToBigUint(),
                  share)
            << "i=" << i;
        EXPECT_EQ(keys_fixed[i].ToBigUint(), key) << "i=" << i;
        EXPECT_EQ(shares_fixed[i].ToBigUint(), share) << "i=" << i;
        EXPECT_EQ(keys_big[i], key) << "i=" << i;
        EXPECT_EQ(shares_big[i], share) << "i=" << i;
      }
    }
  }
}

TEST(FieldTest, PackUnpackEncryptDecrypt) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    OnePrime s(seed, 16);
    const crypto::PrfKey& key = s.source_keys[3];
    const crypto::BigUint kt = DeriveEpochGlobalKey(s.big, s.global_key, 9);
    const crypto::BigUint kt_inv = s.big.Inverse(kt).value();
    const crypto::BigUint ki = DeriveEpochSourceKey(s.big, key, 9);
    const crypto::BigUint share = DeriveEpochShare(s.big, key, 9);
    auto to_fixed = [](const crypto::BigUint& x) {
      return crypto::U256::FromBigUint(x).value();
    };
    for (uint64_t value : {0ull, 1ull, 4242ull, 0xffffffffull}) {
      SCOPED_TRACE(value);
      auto m_fixed = PackMessage(s.fixed, value, to_fixed(share));
      auto m_big = PackMessage(s.big, value, share);
      ASSERT_TRUE(SameStatus(m_fixed, m_big));
      EXPECT_EQ(m_fixed.value().ToBigUint(), m_big.value());

      auto c_fixed = Encrypt(s.fixed, m_fixed.value(), to_fixed(kt),
                             to_fixed(ki));
      auto c_big = Encrypt(s.big, m_big.value(), kt, ki);
      ASSERT_TRUE(SameStatus(c_fixed, c_big));
      EXPECT_EQ(c_fixed.value().ToBigUint(), c_big.value());

      const crypto::U256 d_fixed = Decrypt(s.fixed, c_fixed.value(),
                                           to_fixed(kt_inv), to_fixed(ki));
      const crypto::BigUint d_big = Decrypt(s.big, c_big.value(), kt_inv, ki);
      EXPECT_EQ(d_fixed.ToBigUint(), d_big);
      EXPECT_EQ(d_big, m_big.value());

      auto u_fixed = UnpackMessage(s.fixed, d_fixed);
      auto u_big = UnpackMessage(s.big, d_big);
      ASSERT_TRUE(SameStatus(u_fixed, u_big));
      EXPECT_EQ(u_fixed.value().sum, value);
      EXPECT_EQ(u_big.value().sum, value);
      EXPECT_EQ(u_fixed.value().share_sum.ToBigUint(), u_big.value().share_sum);
      EXPECT_EQ(u_big.value().share_sum, share);
    }

    // Every rejection, with the same message in both fields.
    const crypto::BigUint wide_share =
        crypto::BigUint::Shl(crypto::BigUint(1), 8 * s.params.share_bytes);
    ASSERT_TRUE(
        SameStatus(PackMessage(s.fixed, 1ull << 32, to_fixed(share)),
                   PackMessage(s.big, 1ull << 32, share)));
    ASSERT_TRUE(SameStatus(PackMessage(s.fixed, 1, to_fixed(wide_share)),
                           PackMessage(s.big, 1, wide_share)));
    EXPECT_FALSE(PackMessage(s.big, 1, wide_share).ok());
    const crypto::BigUint& p = s.params.prime;
    ASSERT_TRUE(SameStatus(
        Encrypt(s.fixed, to_fixed(p), to_fixed(kt), to_fixed(ki)),
        Encrypt(s.big, p, kt, ki)));
    EXPECT_FALSE(Encrypt(s.big, p, kt, ki).ok());
    const crypto::BigUint overflow = crypto::BigUint::Shl(
        crypto::BigUint(0x1ffffffffull), s.params.ValueShiftBits());
    ASSERT_TRUE(SameStatus(UnpackMessage(s.fixed, to_fixed(overflow)),
                           UnpackMessage(s.big, overflow)));
    EXPECT_FALSE(UnpackMessage(s.big, overflow).ok());
  }
}

TEST(FieldTest, ParseAndStorePsr) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    OnePrime s(seed, 16);
    const crypto::BigUint& p = s.params.prime;
    const size_t width = s.params.PsrBytes();
    ASSERT_EQ(s.fixed.PsrBytes(), width);
    ASSERT_EQ(s.big.PsrBytes(), width);
    // Accepted: 0, 1, p - 1 and a value below p with every byte set.
    const crypto::BigUint accepted[] = {
        crypto::BigUint(), crypto::BigUint(1),
        crypto::BigUint::Sub(p, crypto::BigUint(1)),
        crypto::BigUint::Shr(p, 1)};
    for (const crypto::BigUint& c : accepted) {
      const Bytes psr = c.ToBytes(width).value();
      auto fixed = ParsePsr(s.fixed, psr.data(), psr.size());
      auto big = ParsePsr(s.big, psr.data(), psr.size());
      ASSERT_TRUE(SameStatus(fixed, big));
      EXPECT_EQ(fixed.value().ToBigUint(), c);
      EXPECT_EQ(big.value(), c);
      Bytes stored_fixed(width), stored_big(width);
      s.fixed.Store(fixed.value(), stored_fixed.data());
      s.big.Store(big.value(), stored_big.data());
      EXPECT_EQ(stored_fixed, psr);
      EXPECT_EQ(stored_big, psr);
    }
    // Rejected: every wrong width, and values >= p.
    for (size_t size : {size_t{0}, width - 1, width + 1}) {
      const Bytes psr(size, 0);
      auto big = ParsePsr(s.big, psr.data(), psr.size());
      ASSERT_TRUE(
          SameStatus(ParsePsr(s.fixed, psr.data(), psr.size()), big));
      EXPECT_EQ(big.status().message(), "PSR has wrong width");
    }
    const crypto::BigUint rejected[] = {
        p, crypto::BigUint::Add(p, crypto::BigUint(1)),
        crypto::BigUint::Sub(crypto::BigUint::Shl(crypto::BigUint(1), 256),
                             crypto::BigUint(1))};
    for (const crypto::BigUint& c : rejected) {
      const Bytes psr = c.ToBytes(width).value();
      auto big = ParsePsr(s.big, psr.data(), psr.size());
      ASSERT_TRUE(
          SameStatus(ParsePsr(s.fixed, psr.data(), psr.size()), big));
      EXPECT_EQ(big.status().message(), "PSR is not a residue mod p");
    }
  }
}

// One epoch through the templates the parties run, in field F: every
// present source's PSR, their merge, and the querier's verdict over the
// participants (K_t^{-1} and the per-source tables from the cache).
struct Round {
  std::vector<Bytes> psrs;
  Bytes merged;
  uint64_t sum = 0;
  bool verified = false;
};

template <typename F>
Round RunRound(const F& field, const OnePrime& s, uint64_t epoch,
               const std::vector<uint32_t>& participating) {
  Round round;
  const size_t width = field.PsrBytes();
  const auto kt = DeriveEpochGlobalKey(field, s.global_key, epoch);
  typename F::Element sum{};
  for (uint32_t i : participating) {
    const auto& key = s.source_keys[i];
    auto m =
        PackMessage(field, 10 * i + 1, DeriveEpochShare(field, key, epoch));
    auto c = Encrypt(field, m.value(), kt,
                     DeriveEpochSourceKey(field, key, epoch));
    Bytes psr(width);
    field.Store(c.value(), psr.data());
    round.psrs.push_back(psr);
    sum = field.Add(sum, ParsePsr(field, psr.data(), psr.size()).value());
  }
  round.merged.resize(width);
  field.Store(sum, round.merged.data());

  EpochKeyCache cache;
  auto material =
      cache.Sources(field, s.global_key, s.source_keys, epoch, nullptr);
  typename F::Element key_sum{}, share_sum{};
  for (uint32_t i : participating) {
    key_sum = field.Add(key_sum, material->keys[i]);
    share_sum = F::IntAdd(share_sum, material->shares[i]);
  }
  const auto c = ParsePsr(field, round.merged.data(), width).value();
  auto unpacked =
      UnpackMessage(field, Decrypt(field, c, material->key_inv, key_sum));
  round.sum = unpacked.value().sum;
  round.verified = F::ConstantTimeEqual(unpacked.value().share_sum, share_sum);
  return round;
}

TEST(FieldTest, CreateMergeEvaluateRoundWithOneSourceAbsent) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    constexpr uint32_t kN = 37;
    OnePrime s(seed, kN);
    std::vector<uint32_t> participating;
    uint64_t expected = 0;
    for (uint32_t i = 0; i < kN; ++i) {
      if (i == 17) continue;  // the absent source
      participating.push_back(i);
      expected += 10 * i + 1;
    }
    const Round fixed = RunRound(s.fixed, s, 3, participating);
    const Round big = RunRound(s.big, s, 3, participating);
    EXPECT_EQ(fixed.psrs, big.psrs);
    EXPECT_EQ(fixed.merged, big.merged);
    EXPECT_TRUE(fixed.verified);
    EXPECT_TRUE(big.verified);
    EXPECT_EQ(fixed.sum, expected);
    EXPECT_EQ(big.sum, expected);

    // The parties, which WithField puts on FixedField here, produce the
    // same bytes and the same verdict.
    Aggregator aggregator(s.params);
    Querier querier(s.params, s.global_key, s.source_keys);
    for (size_t j = 0; j < participating.size(); ++j) {
      const uint32_t i = participating[j];
      Source source(s.params, i, s.global_key, s.source_keys[i]);
      EXPECT_EQ(source.CreatePsr(10 * i + 1, 3).value(), big.psrs[j]);
    }
    EXPECT_EQ(aggregator.Merge(big.psrs).value(), big.merged);
    auto eval = querier.Evaluate(big.merged, 3, participating).value();
    EXPECT_TRUE(eval.verified);
    EXPECT_EQ(eval.sum, expected);
  }
}

}  // namespace
}  // namespace sies::core
