#include "sies/epoch_key_cache.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

namespace {
// One labeled counter per (table, event); registered once, then each
// hit/miss is a single relaxed fetch_add.
telemetry::Counter* CacheCounter(const char* table, const char* event) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "sies_epoch_key_cache_events_total",
      {{"table", table}, {"event", event}});
}

telemetry::Counter* EvictionCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_epoch_key_cache_evictions_total", {});
  return counter;
}
}  // namespace

EpochKeyCache::EpochKeyCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

template <typename Entry>
std::shared_ptr<const Entry> EpochKeyCache::Find(const Table<Entry>& table,
                                                 uint64_t epoch) {
  for (const auto& [e, entry] : table) {
    if (e == epoch) return entry;
  }
  return nullptr;
}

template <typename Entry>
void EpochKeyCache::Insert(Table<Entry>& table, uint64_t epoch,
                           std::shared_ptr<const Entry> entry) {
  // Salted keys carry the real epoch in their high 48 bits (SaltedEpoch
  // layout); the newest real epoch seen defines the live window.
  const uint64_t real = epoch >> 16;
  if (real > newest_real_epoch_) newest_real_epoch_ = real;
  while (table.size() >= capacity_) {
    const uint64_t dropped = table.front().first >> 16;
    table.pop_front();
    // Dropping an entry at least two real epochs old is *retirement* —
    // epochs advance monotonically, so it would never have been read
    // again. Dropping from the live window (the current epoch, or the
    // next one a pipeline prefetch already derived) is a premature
    // eviction: the entry will be re-derived within the same epoch,
    // which is the thrash the eviction counter exists to expose.
    // Unsalted epochs (single-party tests) all report real epoch 0 and
    // keep the pre-salt behaviour: every drop counts.
    if (dropped + 1 >= newest_real_epoch_) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      EvictionCounter()->Increment();
    }
  }
  table.emplace_back(epoch, std::move(entry));
}

void EpochKeyCache::Reserve(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity > capacity_) capacity_ = capacity;
}

size_t EpochKeyCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

template <typename F>
std::shared_ptr<const EpochKeyCache::GlobalEntry<F>> EpochKeyCache::Global(
    const F& field, const crypto::PrfKey& global_key, uint64_t epoch) {
  static telemetry::Counter* hits = CacheCounter("global", "hit");
  static telemetry::Counter* misses = CacheCounter("global", "miss");
  Table<GlobalEntry<F>>& table = TablesFor<F>().global;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = Find(table, epoch)) {
      hits->Increment();
      global_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }
  misses->Increment();
  global_misses_.fetch_add(1, std::memory_order_relaxed);
  telemetry::ScopedSpan span("key-derivation", "cache", epoch);

  auto entry = std::make_shared<GlobalEntry<F>>();
  entry->key = DeriveEpochGlobalKey(field, global_key, epoch);

  std::lock_guard<std::mutex> lock(mu_);
  // A racing thread may have derived the same epoch; keep the first so
  // every caller shares one snapshot.
  if (auto hit = Find(table, epoch)) return hit;
  Insert<GlobalEntry<F>>(table, epoch, entry);
  return entry;
}

template <typename F>
std::shared_ptr<const EpochKeyCache::SourceEntry<F>> EpochKeyCache::Sources(
    const F& field, const crypto::PrfKey& global_key,
    const std::vector<crypto::PrfKey>& keys, uint64_t epoch,
    common::ThreadPool* pool) {
  static telemetry::Counter* hits = CacheCounter("sources", "hit");
  static telemetry::Counter* misses = CacheCounter("sources", "miss");
  Table<SourceEntry<F>>& table = TablesFor<F>().sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = Find(table, epoch)) {
      hits->Increment();
      source_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }
  misses->Increment();
  source_misses_.fetch_add(1, std::memory_order_relaxed);
  // The cold-epoch N-way k_{i,t}/ss_{i,t} derivation — the querier's
  // "share-recompute" phase in the paper's cost model.
  telemetry::ScopedSpan span("share-recompute", "cache", epoch);

  auto entry = std::make_shared<SourceEntry<F>>();
  typename F::Element key = DeriveEpochGlobalKey(field, global_key, epoch);
  // K_t is in [1, p) and p is prime (MakeParams draws a prime, and
  // provisioning rejects a composite modulus), so the inverse exists.
  entry->key_inv = field.Inverse(key).value();
  F::Wipe({&key, 1});

  const size_t n = keys.size();
  entry->keys.resize(n);
  entry->shares.resize(n);
  // Sources are derived in groups so the batch HMAC kernels (two lanes
  // on SHA-NI) always see full batches, and the pool fans out over
  // *groups* in one flat ParallelFor — never a nested dispatch per
  // index. (When Sources is itself reached from inside a pool lane —
  // e.g. the engine's per-channel Evaluate fan-out — ThreadPool runs this
  // loop inline on that lane; lane batching keeps even that path on the
  // fast kernel.)
  constexpr size_t kGroup = 256;
  const size_t num_groups = (n + kGroup - 1) / kGroup;
  auto derive_group = [&](size_t g) {
    const size_t begin = g * kGroup;
    const size_t count = std::min(kGroup, n - begin);
    DeriveEpochSourceKeysBatch(field, keys.data() + begin, count, epoch,
                               entry->keys.data() + begin);
    DeriveEpochSharesBatch(field, keys.data() + begin, count, epoch,
                           entry->shares.data() + begin);
  };
  if (pool != nullptr && num_groups > 1) {
    pool->ParallelFor(num_groups, derive_group);
  } else {
    for (size_t g = 0; g < num_groups; ++g) derive_group(g);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (auto hit = Find(table, epoch)) return hit;
  Insert<SourceEntry<F>>(table, epoch, entry);
  return entry;
}

#define SIES_INSTANTIATE_CACHE(F)                                          \
  template std::shared_ptr<const EpochKeyCache::GlobalEntry<F>>            \
  EpochKeyCache::Global(const F&, const crypto::PrfKey&, uint64_t);        \
  template std::shared_ptr<const EpochKeyCache::SourceEntry<F>>            \
  EpochKeyCache::Sources(const F&, const crypto::PrfKey&,                  \
                         const std::vector<crypto::PrfKey>&, uint64_t,     \
                         common::ThreadPool*);
SIES_INSTANTIATE_CACHE(FixedField)
SIES_INSTANTIATE_CACHE(BigField)
#undef SIES_INSTANTIATE_CACHE

void EpochKeyCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_ = {};
}

}  // namespace sies::core
