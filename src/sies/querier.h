// The SIES querier (paper Section IV-A, evaluation phase).
//
// Receives the single final PSR from the sink, decrypts it with
// (K_t, Σ k_{i,t}), splits off res_t and s_t, recomputes every share
// ss_{i,t} = HM1(k_i, t) and accepts the result iff s_t equals their sum
// — which simultaneously authenticates integrity and freshness
// (Theorems 2 and 4).
//
// Per-epoch material (K_t, K_t^{-1}, all k_{i,t} and ss_{i,t}) is derived
// exactly once per (salted) epoch through an EpochKeyCache, so repeated
// evaluations and the extra channels of AVG/VARIANCE/histogram queries
// skip both the N PRF invocations and the extended-Euclid inverse.
#ifndef SIES_SIES_QUERIER_H_
#define SIES_SIES_QUERIER_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "sies/epoch_key_cache.h"
#include "sies/message_format.h"
#include "sies/params.h"

namespace sies::core {

/// Result of the evaluation phase.
struct Evaluation {
  uint64_t sum = 0;      ///< res_t (meaningful only when verified)
  bool verified = false; ///< integrity + freshness check outcome
};

/// Result of evaluating a wire envelope: the (possibly partial) sum plus
/// the reported set it verified against.
struct WireEvaluation {
  uint64_t sum = 0;
  bool verified = false;
  std::vector<uint32_t> contributors;  ///< source indices, increasing
};

/// The querier Q. Holds all key material, as schedules
/// (crypto::PrfKey): 104 bytes per long-term key, no raw key bytes.
class Querier {
 public:
  /// Schedules K and every k_i (four SHA compressions per key) and wipes
  /// the raw bytes in `keys`.
  Querier(Params params, QuerierKeys keys);

  /// A querier over keys already scheduled (`source_keys[i]` is k_i's).
  Querier(Params params, crypto::PrfKey global_key,
          std::vector<crypto::PrfKey> source_keys);

  /// Evaluation phase over the final PSR for `epoch`. `participating`
  /// lists the indices of the sources that contributed this epoch (all
  /// of them unless failures were reported; paper Section IV-B
  /// "Discussion"). Returns an error for malformed PSRs; a clean
  /// `verified == false` for well-formed but corrupted/stale ones.
  StatusOr<Evaluation> Evaluate(const Bytes& final_psr, uint64_t epoch,
                                const std::vector<uint32_t>& participating)
      const;

  /// Convenience: evaluation with all N sources participating.
  StatusOr<Evaluation> Evaluate(const Bytes& final_psr, uint64_t epoch) const;

  /// Zero-copy Evaluate over `len` PSR bytes in place — for callers that
  /// hold many channels' PSRs in one contiguous buffer (the multi-query
  /// engine's wire body) and would otherwise copy each slice into a
  /// fresh Bytes per channel per epoch. Identical semantics to
  /// Evaluate(Bytes, ...).
  StatusOr<Evaluation> EvaluateSlice(
      const uint8_t* psr, size_t len, uint64_t epoch,
      const std::vector<uint32_t>& participating) const;

  /// Evaluation over the root's wire envelope [contributor field ‖ PSR]
  /// (message_format.h): the participating set is the root's
  /// ContributorSet over [0, N), so lossy epochs evaluate to a verified
  /// PARTIAL sum over exactly the contributing sources. A tampered set
  /// (any source added or removed in flight) shifts the expected share
  /// sum and yields `verified == false`; a non-canonical field is an
  /// error.
  StatusOr<WireEvaluation> EvaluateWire(const Bytes& final_payload,
                                        uint64_t epoch) const;

  /// Hot-path variant of the wire evaluation: no allocations when the
  /// field is empty (full coverage, the lossless case). The
  /// participating set is written into `contributors` (reusing its
  /// capacity) when non-null; pass nullptr if only the sum/verdict are
  /// needed.
  StatusOr<Evaluation> EvaluateWire(const Bytes& final_payload, uint64_t epoch,
                                    std::vector<uint32_t>* contributors) const;

  /// Optional: fan the N per-source derivations of a cold epoch out over
  /// `pool`. Results are bit-identical for any thread count. The pool must
  /// outlive the querier (the runner owns it).
  void SetThreadPool(common::ThreadPool* pool) { pool_ = pool; }

  /// Pre-derives the epoch material for `epoch` (global key + the N-way
  /// per-source tables) with the pool at full width. Callers that fan
  /// evaluations out over the same pool (the engine's per-channel
  /// dispatch) warm each epoch from the driver thread first: a cold
  /// Sources derivation reached from inside a pool lane would otherwise
  /// run its group fan-out inline on that one lane (ThreadPool nesting
  /// runs inline rather than oversubscribing). Warm epochs are a cache
  /// hit — calling this is always safe and never changes results.
  void WarmEpoch(uint64_t epoch) const;

  /// WarmEpoch with the pool fan-out optionally disabled. Background
  /// prefetch threads (epoch pipelining) pass use_pool = false so the
  /// derivation never competes with a foreground verification fan-out
  /// for pool lanes; the cache itself is mutex-guarded, so concurrent
  /// warm/evaluate of the same epoch is safe (first derivation wins).
  void WarmEpoch(uint64_t epoch, bool use_pool) const;

  /// Drops all cached epoch material; the next Evaluate re-derives from
  /// scratch. Benchmarks use this to time cold evaluations honestly.
  void ClearEpochKeyCache() { cache_->Clear(); }

  /// Grows the epoch-key cache to hold at least `entries` salted epochs
  /// per table. The multi-query engine sizes this with its live channel
  /// count so K concurrent queries do not thrash the default capacity.
  void ReserveEpochKeyCapacity(size_t entries) { cache_->Reserve(entries); }

  /// Lifetime hit/miss totals of this querier's epoch-key cache
  /// (benchmarks report these per cold/warm series).
  EpochKeyCache::Stats CacheStats() const { return cache_->stats(); }

  const Params& params() const { return params_; }

 private:
  /// Shared core of ALL Evaluate flavours: raw PSRs, slices and wire
  /// envelopes all verify `len` PSR bytes at `psr` in place against
  /// `participating`.
  StatusOr<Evaluation> EvaluateCore(
      const uint8_t* psr, size_t len, uint64_t epoch,
      const std::vector<uint32_t>& participating) const;

  Params params_;
  crypto::PrfKey global_key_;               ///< K, scheduled
  std::vector<crypto::PrfKey> source_keys_;  ///< k_i, scheduled
  std::shared_ptr<EpochKeyCache> cache_;
  common::ThreadPool* pool_ = nullptr;
  // Precomputed once so full-coverage wire evaluations allocate nothing
  // and call nothing per evaluation: the PSR width (Params::PsrBytes
  // walks the prime's limbs) and the index list {0..N-1}.
  size_t psr_bytes_ = 0;
  std::vector<uint32_t> all_sources_;
};

}  // namespace sies::core

#endif  // SIES_SIES_QUERIER_H_
