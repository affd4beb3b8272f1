#include "sies/epoch_key_cache.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "sies/message_format.h"

namespace sies::core {
namespace {

// A querier's key material: the raw provisioning bytes and their
// schedules, which is what the cache derives from.
struct ScheduledKeys {
  explicit ScheduledKeys(const Params& params)
      : raw(GenerateKeys(params, EncodeUint64(42))),
        global_key(raw.global_key),
        source_keys(crypto::ScheduleKeys(raw.source_keys)) {}
  QuerierKeys raw;
  crypto::PrfKey global_key;
  std::vector<crypto::PrfKey> source_keys;
};

// The reference configuration: a 256-bit prime, so FixedField.
struct Fixture {
  Params params = MakeParams(8, 42).value();
  FixedField field{params, *params.Fp()};
  ScheduledKeys keys{params};
};

crypto::BigUint AsBigUint(const crypto::U256& x) { return x.ToBigUint(); }
const crypto::BigUint& AsBigUint(const crypto::BigUint& x) { return x; }

// The raw-key references: the one-shot HMACs of the raw key bytes,
// reduced as the derivations reduce them.
crypto::BigUint RawSourceKey(const Params& params, const Bytes& key,
                             uint64_t epoch) {
  return crypto::BigUint::Mod(
             crypto::BigUint::FromBytes(crypto::EpochPrfSha256(key, epoch)),
             params.prime)
      .value();
}

crypto::BigUint RawShare(const Params& params, const Bytes& key,
                         uint64_t epoch) {
  if (params.share_prf == SharePrf::kHmacSha1) {
    return crypto::BigUint::FromBytes(crypto::EpochPrfSha1(key, epoch));
  }
  Bytes input = {'s', 'h', 'a', 'r', 'e'};
  const Bytes t = EncodeUint64(epoch);
  input.insert(input.end(), t.begin(), t.end());
  return crypto::BigUint::FromBytes(crypto::HmacSha256(key, input));
}

TEST(EpochKeyCacheTest, ScheduledTablesEqualRawKeyDerivations) {
  // Every profile's tables, derived from schedules (through the batch
  // kernel, fanned out over a pool) in the field WithField picks, equal
  // the one-shot HMACs of the raw keys: the FixedField profile, a
  // 320-bit BigField one and the hardened HM256-share one. 70 sources
  // leave a partial final 64-key chunk.
  struct Profile {
    const char* name;
    Params params;
    bool fixed;
  };
  const Profile profiles[] = {
      {"fast", MakeParams(70, 42).value(), true},
      {"generic_320", MakeParams(70, 42, 4, 320).value(), false},
      {"hardened_hm256",
       MakeParams(70, 42, 4, 384, SharePrf::kHmacSha256).value(), false},
  };
  common::ThreadPool pool(2);
  for (const Profile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    const Params& params = profile.params;
    ScheduledKeys keys(params);
    EpochKeyCache cache;
    crypto::BigUint kt = RawSourceKey(params, keys.raw.global_key, 6);
    if (kt.IsZero()) kt = crypto::BigUint(1);
    WithField(params, [&](const auto& field) {
      using F = std::decay_t<decltype(field)>;
      EXPECT_EQ((std::is_same_v<F, FixedField>), profile.fixed);
      EXPECT_EQ(AsBigUint(cache.Global(field, keys.global_key, 6)->key), kt);

      auto sources =
          cache.Sources(field, keys.global_key, keys.source_keys, 6, &pool);
      EXPECT_EQ(AsBigUint(sources->key_inv),
                crypto::BigUint::ModInverse(kt, params.prime).value());
      ASSERT_EQ(sources->keys.size(), keys.raw.source_keys.size());
      ASSERT_EQ(sources->shares.size(), keys.raw.source_keys.size());
      for (size_t i = 0; i < keys.raw.source_keys.size(); ++i) {
        const Bytes& raw = keys.raw.source_keys[i];
        EXPECT_EQ(AsBigUint(sources->keys[i]), RawSourceKey(params, raw, 6))
            << "i=" << i;
        EXPECT_EQ(AsBigUint(sources->shares[i]), RawShare(params, raw, 6))
            << "i=" << i;
      }
    });
  }
}

TEST(EpochKeyCacheTest, GlobalMatchesDirectDerivationAndInverse) {
  // K_t comes straight from the FixedField derivation; the querier's
  // entry holds its inverse, equal to BigUint's extended Euclid.
  Fixture f;
  EpochKeyCache cache;
  auto entry = cache.Global(f.field, f.keys.global_key, 5);
  EXPECT_EQ(entry->key, DeriveEpochGlobalKey(f.field, f.keys.global_key, 5));
  const crypto::BigUint kt =
      DeriveEpochGlobalKey(BigField(f.params), f.keys.global_key, 5);
  EXPECT_EQ(entry->key.ToBigUint(), kt);
  auto material =
      cache.Sources(f.field, f.keys.global_key, f.keys.source_keys, 5,
                    nullptr);
  EXPECT_EQ(material->key_inv.ToBigUint(),
            crypto::BigUint::ModInverse(kt, f.params.prime).value());
}

TEST(EpochKeyCacheTest, GlobalIsMemoizedPerEpoch) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.field, f.keys.global_key, 7);
  auto b = cache.Global(f.field, f.keys.global_key, 7);
  EXPECT_EQ(a.get(), b.get()) << "same epoch must share one snapshot";
  auto c = cache.Global(f.field, f.keys.global_key, 8);
  EXPECT_NE(a.get(), c.get());
}

TEST(EpochKeyCacheTest, SourcesMatchDirectDerivation) {
  Fixture f;
  EpochKeyCache cache;
  auto entry =
      cache.Sources(f.field, f.keys.global_key, f.keys.source_keys, 3,
                    nullptr);
  ASSERT_EQ(entry->keys.size(), f.keys.source_keys.size());
  for (size_t i = 0; i < f.keys.source_keys.size(); ++i) {
    EXPECT_EQ(entry->keys[i],
              DeriveEpochSourceKey(f.field, f.keys.source_keys[i], 3));
    EXPECT_EQ(entry->shares[i],
              DeriveEpochShare(f.field, f.keys.source_keys[i], 3));
  }
}

TEST(EpochKeyCacheTest, SourcesIdenticalWithAndWithoutPool) {
  Fixture f;
  EpochKeyCache with_pool, without_pool;
  common::ThreadPool pool(3);
  auto a = with_pool.Sources(f.field, f.keys.global_key, f.keys.source_keys,
                             9, &pool);
  auto b = without_pool.Sources(f.field, f.keys.global_key,
                                f.keys.source_keys, 9, nullptr);
  EXPECT_EQ(a->key_inv, b->key_inv);
  ASSERT_EQ(a->keys.size(), b->keys.size());
  for (size_t i = 0; i < a->keys.size(); ++i) {
    EXPECT_EQ(a->keys[i], b->keys[i]);
    EXPECT_EQ(a->shares[i], b->shares[i]);
  }
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarAcrossGroups) {
  // 300 sources spans two 256-wide derivation groups and a partial
  // final 64-key chunk; every cached entry must equal the per-index
  // scalar derivation bit for bit, with and without a pool fanning the
  // groups out.
  Params params = MakeParams(300, 42).value();
  const FixedField field(params, *params.Fp());
  ScheduledKeys keys(params);
  common::ThreadPool pool(3);
  EpochKeyCache pooled, serial;
  auto a = pooled.Sources(field, keys.global_key, keys.source_keys, 11, &pool);
  auto b =
      serial.Sources(field, keys.global_key, keys.source_keys, 11, nullptr);
  ASSERT_EQ(a->keys.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(a->keys[i], DeriveEpochSourceKey(field, keys.source_keys[i], 11));
    EXPECT_EQ(a->shares[i], DeriveEpochShare(field, keys.source_keys[i], 11));
    EXPECT_EQ(a->keys[i], b->keys[i]);
    EXPECT_EQ(a->shares[i], b->shares[i]);
  }
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarHardenedProfile) {
  // The HM256-share profile needs a wider prime, so it runs BigField and
  // the share batch's HM256 branch.
  Params params =
      MakeParams(70, 42, 4, 384, SharePrf::kHmacSha256).value();
  const BigField field(params);
  ScheduledKeys keys(params);
  EpochKeyCache cache;
  auto entry =
      cache.Sources(field, keys.global_key, keys.source_keys, 6, nullptr);
  ASSERT_EQ(entry->keys.size(), 70u);
  for (size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(entry->keys[i],
              DeriveEpochSourceKey(field, keys.source_keys[i], 6));
    EXPECT_EQ(entry->shares[i],
              DeriveEpochShare(field, keys.source_keys[i], 6));
  }
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarGeneric320Profile) {
  // HM1 shares under a 320-bit prime run BigField through the share
  // batch's HM1 branch; over several 256-wide groups and a ragged final
  // pair every share equals the single-key DeriveEpochShare, with and
  // without a pool.
  Params params = MakeParams(301, 42, 4, 320).value();
  const BigField field(params);
  ScheduledKeys keys(params);
  common::ThreadPool pool(3);
  EpochKeyCache pooled, serial;
  auto a = pooled.Sources(field, keys.global_key, keys.source_keys, 9, &pool);
  auto b = serial.Sources(field, keys.global_key, keys.source_keys, 9, nullptr);
  ASSERT_EQ(a->shares.size(), 301u);
  for (size_t i = 0; i < 301; ++i) {
    EXPECT_EQ(a->shares[i], DeriveEpochShare(field, keys.source_keys[i], 9))
        << "i=" << i;
    EXPECT_EQ(a->shares[i], b->shares[i]) << "i=" << i;
    EXPECT_EQ(a->keys[i], DeriveEpochSourceKey(field, keys.source_keys[i], 9))
        << "i=" << i;
  }
}

TEST(EpochKeyCacheTest, GenericPathForNon256BitPrime) {
  // A 384-bit prime keeps every party on BigField.
  Params params = MakeParams(8, 42, 4, 384).value();
  EXPECT_TRUE(WithField(params, [](const auto& field) {
    return std::is_same_v<std::decay_t<decltype(field)>, BigField>;
  }));
  const BigField field(params);
  ScheduledKeys keys(params);
  EpochKeyCache cache;
  auto global = cache.Global(field, keys.global_key, 2);
  EXPECT_EQ(global->key, DeriveEpochGlobalKey(field, keys.global_key, 2));
  auto sources =
      cache.Sources(field, keys.global_key, keys.source_keys, 2, nullptr);
  ASSERT_EQ(sources->keys.size(), keys.source_keys.size());
  EXPECT_EQ(sources->keys[0],
            DeriveEpochSourceKey(field, keys.source_keys[0], 2));
}

TEST(EpochKeyCacheTest, EachTableCountsItsOwnLookups) {
  // Global (the sources' K_t) counts under global_*, Sources (the
  // querier's per-epoch entry) under source_*.
  Fixture f;
  EpochKeyCache cache;
  cache.Global(f.field, f.keys.global_key, 1);
  cache.Global(f.field, f.keys.global_key, 1);
  cache.Sources(f.field, f.keys.global_key, f.keys.source_keys, 1, nullptr);
  const EpochKeyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.global_misses, 1u);
  EXPECT_EQ(stats.global_hits, 1u);
  EXPECT_EQ(stats.source_misses, 1u);
  EXPECT_EQ(stats.source_hits, 0u);
}

TEST(EpochKeyCacheTest, EvictionBoundsRetainedEpochs) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  auto e1 = cache.Global(f.field, f.keys.global_key, 1);
  cache.Global(f.field, f.keys.global_key, 2);
  cache.Global(f.field, f.keys.global_key, 3);  // evicts epoch 1
  auto e1_again = cache.Global(f.field, f.keys.global_key, 1);
  EXPECT_NE(e1.get(), e1_again.get()) << "epoch 1 was evicted, re-derived";
  EXPECT_EQ(e1->key, e1_again->key) << "re-derivation is deterministic";
}

TEST(EpochKeyCacheTest, EvictionsAreCounted) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Global(f.field, f.keys.global_key, epoch);
  }
  // Capacity 2, 5 inserts: epochs 1-3 were pushed out.
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(EpochKeyCacheTest, ReserveGrowsAndNeverShrinks) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.Reserve(8);
  EXPECT_EQ(cache.capacity(), 8u);
  cache.Reserve(4);  // no shrink: readers may hold the larger set
  EXPECT_EQ(cache.capacity(), 8u);

  // With room for all 5 epochs, the same access pattern evicts nothing.
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Global(f.field, f.keys.global_key, epoch);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto early = cache.Global(f.field, f.keys.global_key, 1);
  EXPECT_EQ(cache.stats().global_hits, 1u) << "epoch 1 must still be held";
  EXPECT_EQ(early->key, DeriveEpochGlobalKey(f.field, f.keys.global_key, 1));
}

TEST(EpochKeyCacheTest, ClearDropsEverything) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.field, f.keys.global_key, 4);
  auto s = cache.Sources(f.field, f.keys.global_key, f.keys.source_keys, 4,
                         nullptr);
  cache.Clear();
  auto b = cache.Global(f.field, f.keys.global_key, 4);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->key, b->key);
  auto t = cache.Sources(f.field, f.keys.global_key, f.keys.source_keys, 4,
                         nullptr);
  EXPECT_NE(s.get(), t.get());
  EXPECT_EQ(s->key_inv, t->key_inv);
}

}  // namespace
}  // namespace sies::core
