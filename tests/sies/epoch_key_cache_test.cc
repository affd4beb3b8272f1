#include "sies/epoch_key_cache.h"

#include <gtest/gtest.h>

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

struct Fixture {
  Params params = MakeParams(8, 42).value();
  ScheduledKeys keys{params};
};

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
  // kernel, fanned out over a pool), equal the one-shot HMACs of the raw
  // keys: the fast Fp256 profile, a 320-bit generic one and the hardened
  // HM256-share one. 70 sources leave a ragged final 8-lane batch.
  struct Profile {
    const char* name;
    Params params;
  };
  const Profile profiles[] = {
      {"fast", MakeParams(70, 42).value()},
      {"generic_320", MakeParams(70, 42, 4, 320).value()},
      {"hardened_hm256",
       MakeParams(70, 42, 4, 384, SharePrf::kHmacSha256).value()},
  };
  common::ThreadPool pool(2);
  for (const Profile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    const Params& params = profile.params;
    ScheduledKeys keys(params);
    EpochKeyCache cache;
    auto global = cache.Global(params, keys.global_key, 6);
    crypto::BigUint kt = RawSourceKey(params, keys.raw.global_key, 6);
    if (kt.IsZero()) kt = crypto::BigUint(1);
    EXPECT_EQ(global->key, kt);

    auto sources = cache.Sources(params, keys.source_keys, 6, &pool);
    const bool fast = params.share_prf == SharePrf::kHmacSha1 &&
                      params.Fp() != nullptr;
    ASSERT_EQ(sources->fast, fast);
    for (size_t i = 0; i < keys.raw.source_keys.size(); ++i) {
      const Bytes& raw = keys.raw.source_keys[i];
      EXPECT_EQ(fast ? sources->keys_fp[i].ToBigUint() : sources->keys[i],
                RawSourceKey(params, raw, 6))
          << "i=" << i;
      EXPECT_EQ(fast ? sources->shares_fp[i].ToBigUint() : sources->shares[i],
                RawShare(params, raw, 6))
          << "i=" << i;
    }
  }
}

TEST(EpochKeyCacheTest, GlobalMatchesDirectDerivationAndInverse) {
  Fixture f;
  EpochKeyCache cache;
  auto entry = cache.Global(f.params, f.keys.global_key, 5);
  EXPECT_EQ(entry->key, DeriveEpochGlobalKey(f.params, f.keys.global_key, 5));
  EXPECT_EQ(entry->key_inv,
            crypto::BigUint::ModInverse(entry->key, f.params.prime).value());
  // The reference configuration has a 256-bit prime -> fast mirrors set.
  ASSERT_TRUE(entry->fast);
  EXPECT_EQ(entry->key_fp.ToBigUint(), entry->key);
  EXPECT_EQ(entry->key_inv_fp.ToBigUint(), entry->key_inv);
}

TEST(EpochKeyCacheTest, GlobalIsMemoizedPerEpoch) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.params, f.keys.global_key, 7);
  auto b = cache.Global(f.params, f.keys.global_key, 7);
  EXPECT_EQ(a.get(), b.get()) << "same epoch must share one snapshot";
  auto c = cache.Global(f.params, f.keys.global_key, 8);
  EXPECT_NE(a.get(), c.get());
}

TEST(EpochKeyCacheTest, SourcesMatchDirectDerivation) {
  Fixture f;
  EpochKeyCache cache;
  auto entry = cache.Sources(f.params, f.keys.source_keys, 3, nullptr);
  ASSERT_TRUE(entry->fast);
  ASSERT_EQ(entry->keys_fp.size(), f.keys.source_keys.size());
  for (size_t i = 0; i < f.keys.source_keys.size(); ++i) {
    EXPECT_EQ(entry->keys_fp[i].ToBigUint(),
              DeriveEpochSourceKey(f.params, f.keys.source_keys[i], 3));
    EXPECT_EQ(entry->shares_fp[i].ToBigUint(),
              DeriveEpochShare(f.params, f.keys.source_keys[i], 3));
  }
}

TEST(EpochKeyCacheTest, SourcesIdenticalWithAndWithoutPool) {
  Fixture f;
  EpochKeyCache with_pool, without_pool;
  common::ThreadPool pool(3);
  auto a = with_pool.Sources(f.params, f.keys.source_keys, 9, &pool);
  auto b = without_pool.Sources(f.params, f.keys.source_keys, 9, nullptr);
  ASSERT_EQ(a->keys_fp.size(), b->keys_fp.size());
  for (size_t i = 0; i < a->keys_fp.size(); ++i) {
    EXPECT_EQ(a->keys_fp[i], b->keys_fp[i]);
    EXPECT_EQ(a->shares_fp[i], b->shares_fp[i]);
  }
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarAcrossGroups) {
  // 300 sources spans multiple 256-wide derivation groups and a ragged
  // final 8-lane batch; every cached entry must equal the per-index
  // scalar derivation bit for bit, with and without a pool fanning the
  // groups out.
  Params params = MakeParams(300, 42).value();
  ScheduledKeys keys(params);
  common::ThreadPool pool(3);
  EpochKeyCache pooled, serial;
  auto a = pooled.Sources(params, keys.source_keys, 11, &pool);
  auto b = serial.Sources(params, keys.source_keys, 11, nullptr);
  ASSERT_TRUE(a->fast);
  ASSERT_EQ(a->keys_fp.size(), 300u);
  const crypto::Fp256* fp = params.Fp();
  ASSERT_NE(fp, nullptr);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(a->keys_fp[i],
              DeriveEpochSourceKeyFp(*fp, keys.source_keys[i], 11));
    EXPECT_EQ(a->shares_fp[i], DeriveEpochShareFp(keys.source_keys[i], 11));
    EXPECT_EQ(a->keys_fp[i], b->keys_fp[i]);
    EXPECT_EQ(a->shares_fp[i], b->shares_fp[i]);
  }
}

TEST(EpochKeyCacheTest, BatchedDerivationMatchesScalarHardenedProfile) {
  // The HM256-share profile needs a wider prime, so it runs the generic
  // BigUint batch (DeriveEpochSourceKeysBatch + DeriveEpochSharesHm256-
  // Batch) rather than the Fp256 one.
  Params params =
      MakeParams(70, 42, 4, 384, SharePrf::kHmacSha256).value();
  ScheduledKeys keys(params);
  EpochKeyCache cache;
  auto entry = cache.Sources(params, keys.source_keys, 6, nullptr);
  ASSERT_FALSE(entry->fast);
  ASSERT_EQ(entry->keys.size(), 70u);
  for (size_t i = 0; i < 70; ++i) {
    EXPECT_EQ(entry->keys[i],
              DeriveEpochSourceKey(params, keys.source_keys[i], 6));
    EXPECT_EQ(entry->shares[i],
              DeriveEpochShare(params, keys.source_keys[i], 6));
  }
}

TEST(EpochKeyCacheTest, GenericPathForNon256BitPrime) {
  // A 384-bit prime keeps every party on the BigUint path.
  Params params = MakeParams(8, 42, 4, 384).value();
  ScheduledKeys keys(params);
  EpochKeyCache cache;
  auto global = cache.Global(params, keys.global_key, 2);
  EXPECT_FALSE(global->fast);
  EXPECT_EQ(global->key, DeriveEpochGlobalKey(params, keys.global_key, 2));
  auto sources = cache.Sources(params, keys.source_keys, 2, nullptr);
  EXPECT_FALSE(sources->fast);
  ASSERT_EQ(sources->keys.size(), keys.source_keys.size());
  EXPECT_EQ(sources->keys[0],
            DeriveEpochSourceKey(params, keys.source_keys[0], 2));
}

TEST(EpochKeyCacheTest, EvictionBoundsRetainedEpochs) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  auto e1 = cache.Global(f.params, f.keys.global_key, 1);
  cache.Global(f.params, f.keys.global_key, 2);
  cache.Global(f.params, f.keys.global_key, 3);  // evicts epoch 1
  auto e1_again = cache.Global(f.params, f.keys.global_key, 1);
  EXPECT_NE(e1.get(), e1_again.get()) << "epoch 1 was evicted, re-derived";
  EXPECT_EQ(e1->key, e1_again->key) << "re-derivation is deterministic";
}

TEST(EpochKeyCacheTest, EvictionsAreCounted) {
  Fixture f;
  EpochKeyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Global(f.params, f.keys.global_key, epoch);
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
    cache.Global(f.params, f.keys.global_key, epoch);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto early = cache.Global(f.params, f.keys.global_key, 1);
  EXPECT_EQ(cache.stats().global_hits, 1u) << "epoch 1 must still be held";
  EXPECT_EQ(early->key, DeriveEpochGlobalKey(f.params, f.keys.global_key, 1));
}

TEST(EpochKeyCacheTest, ClearDropsEverything) {
  Fixture f;
  EpochKeyCache cache;
  auto a = cache.Global(f.params, f.keys.global_key, 4);
  cache.Clear();
  auto b = cache.Global(f.params, f.keys.global_key, 4);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->key, b->key);
}

}  // namespace
}  // namespace sies::core
