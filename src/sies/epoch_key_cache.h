// Per-epoch temporal-key cache shared by the SIES parties.
//
// The temporal material of an epoch t — K_t, K_t^{-1}, and the querier's
// per-source k_{i,t} / ss_{i,t} — is a pure function of the long-term
// keys, yet the naive protocol re-derives it at every use: each of N
// sources pays one HM256 for the same K_t, and the querier pays an
// extended-Euclid inverse on every channel of every evaluation. This
// cache computes each epoch's material exactly once and hands out shared
// immutable snapshots. Entries are keyed by the (salted) epoch, so
// multi-channel queries — whose channels deliberately use distinct PRF
// inputs via SaltedEpoch — occupy distinct entries.
//
// Eviction is FIFO with a small capacity: the simulator advances epochs
// monotonically, and a histogram query touches B+1 salted epochs per
// real epoch, so a few dozen entries cover every workload in the repo.
#ifndef SIES_SIES_EPOCH_KEY_CACHE_H_
#define SIES_SIES_EPOCH_KEY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/secure.h"
#include "common/thread_pool.h"
#include "sies/params.h"

namespace sies::core {

/// Thread-safe cache of per-epoch derived key material. One instance is
/// typically shared by all co-located parties (every simulated Source in
/// a run, or one per Querier).
class EpochKeyCache {
 public:
  /// `capacity` bounds the number of retained epochs per table.
  explicit EpochKeyCache(size_t capacity = 32);

  /// Global-key material of one epoch. Zeroized on eviction/destruction:
  /// an evicted K_t must not linger in freed heap pages.
  struct GlobalEntry {
    crypto::BigUint key;      ///< K_t in [1, p)
    crypto::BigUint key_inv;  ///< K_t^{-1} mod p
    bool fast = false;        ///< fixed-width mirrors below are valid
    crypto::U256 key_fp;
    crypto::U256 key_inv_fp;

    ~GlobalEntry() {
      key.Wipe();
      key_inv.Wipe();
      common::SecureZero(&key_fp, sizeof(key_fp));
      common::SecureZero(&key_inv_fp, sizeof(key_inv_fp));
    }
  };

  /// Per-source material of one epoch, index-aligned with the querier's
  /// source_keys. Either the BigUint vectors or the U256 vectors are
  /// populated, never both (`fast` says which).
  struct SourceEntry {
    bool fast = false;
    std::vector<crypto::BigUint> keys;    ///< k_{i,t}
    std::vector<crypto::BigUint> shares;  ///< ss_{i,t}
    std::vector<crypto::U256> keys_fp;
    std::vector<crypto::U256> shares_fp;

    ~SourceEntry() {
      for (crypto::BigUint& k : keys) k.Wipe();
      for (crypto::BigUint& s : shares) s.Wipe();
      common::SecureZero(keys_fp.data(),
                         keys_fp.size() * sizeof(crypto::U256));
      common::SecureZero(shares_fp.data(),
                         shares_fp.size() * sizeof(crypto::U256));
    }
  };

  /// K_t and K_t^{-1} for `epoch`, derived (and memoized) on first use
  /// from the schedule of K.
  std::shared_ptr<const GlobalEntry> Global(const Params& params,
                                            const crypto::PrfKey& global_key,
                                            uint64_t epoch);

  /// All sources' k_{i,t} / ss_{i,t} for `epoch`, derived once from the
  /// schedules of k_i. `pool` (optional) fans the N derivations out
  /// across lanes; the result is identical for any thread count since
  /// every index writes its own slot.
  std::shared_ptr<const SourceEntry> Sources(
      const Params& params, const std::vector<crypto::PrfKey>& keys,
      uint64_t epoch, common::ThreadPool* pool);

  /// Drops every entry (benchmarks use this to measure cold evaluations).
  /// Hit/miss statistics survive — they describe lookups, not contents.
  void Clear();

  /// Grows the capacity to at least `capacity` entries per table (never
  /// shrinks — concurrent readers may still hold the larger working
  /// set). The multi-query engine calls this with the live channel
  /// count: K queries touch K × (channels per query) distinct salted
  /// epochs per real epoch, so a fixed capacity of 32 would evict every
  /// entry before its re-use and turn the cache into pure overhead.
  void Reserve(size_t capacity);

  /// Current per-table capacity.
  size_t capacity() const;

  /// Lifetime hit/miss/eviction totals per table. Also exported as the
  /// labeled counter `sies_epoch_key_cache_events_total` (hits/misses)
  /// and `sies_epoch_key_cache_evictions_total` in the global metrics
  /// registry; these accessors exist so benches (fig6a) can report the
  /// cache behaviour of one specific instance.
  struct Stats {
    uint64_t global_hits = 0;
    uint64_t global_misses = 0;
    uint64_t source_hits = 0;
    uint64_t source_misses = 0;
    /// PREMATURE drops, both tables: entries evicted out of the live
    /// epoch window (current epoch, or the prefetched next one) and so
    /// re-derived within the epoch. Retiring entries of finished epochs
    /// is normal FIFO aging and is NOT counted — a correctly sized
    /// cache (engine ReserveCaches: plan-driven) reports 0 here over
    /// any run length, which is what the range-query regression test
    /// asserts.
    uint64_t evictions = 0;
  };
  Stats stats() const {
    return Stats{global_hits_.load(std::memory_order_relaxed),
                 global_misses_.load(std::memory_order_relaxed),
                 source_hits_.load(std::memory_order_relaxed),
                 source_misses_.load(std::memory_order_relaxed),
                 evictions_.load(std::memory_order_relaxed)};
  }

 private:
  template <typename Entry>
  using Table = std::deque<std::pair<uint64_t, std::shared_ptr<const Entry>>>;

  template <typename Entry>
  static std::shared_ptr<const Entry> Find(const Table<Entry>& table,
                                           uint64_t epoch);
  template <typename Entry>
  void Insert(Table<Entry>& table, uint64_t epoch,
              std::shared_ptr<const Entry> entry);

  size_t capacity_;  // guarded by mu_; grows via Reserve, never shrinks
  /// Newest real epoch (salted key >> 16) ever inserted — the live
  /// window marker premature-eviction accounting compares against.
  /// Guarded by mu_ (Insert runs under it).
  uint64_t newest_real_epoch_ = 0;
  mutable std::mutex mu_;
  Table<GlobalEntry> global_;
  Table<SourceEntry> sources_;
  std::atomic<uint64_t> global_hits_{0};
  std::atomic<uint64_t> global_misses_{0};
  std::atomic<uint64_t> source_hits_{0};
  std::atomic<uint64_t> source_misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sies::core

#endif  // SIES_SIES_EPOCH_KEY_CACHE_H_
