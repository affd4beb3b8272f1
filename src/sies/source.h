// The SIES source (paper Section IV-A, initialization phase).
//
// Each epoch, a source derives its temporal keys and share, packs its
// reading into m_{i,t}, encrypts, and emits a fixed-width PSR.
#ifndef SIES_SIES_SOURCE_H_
#define SIES_SIES_SOURCE_H_

#include <memory>

#include "sies/epoch_key_cache.h"
#include "sies/message_format.h"
#include "sies/params.h"

namespace sies::core {

/// A data source S_i. Holds p and the schedules of K and k_i
/// (crypto::PrfKey), never the raw key bytes; cheap to copy.
class Source {
 public:
  /// `index` is the source's logical id i in [0, N). Schedules both keys
  /// (four SHA compressions each) and wipes the raw bytes in `keys`.
  Source(Params params, uint32_t index, SourceKeys keys);

  /// A source over keys already scheduled: a host that simulates many
  /// sources schedules K once and hands each source a copy.
  Source(Params params, uint32_t index, crypto::PrfKey global_key,
         crypto::PrfKey source_key);

  /// Initialization phase: produces PSR_{i,t} for reading `value` at
  /// epoch `epoch`. Cost profile (paper Eq. 3): two HM256, one HM1, one
  /// 32-byte modular multiplication and one addition; each PRF runs from
  /// its key's schedule (two compressions, not four). A source covers
  /// only itself, so this bare PSR is also its wire envelope
  /// (message_format.h): the contributor field is empty.
  StatusOr<Bytes> CreatePsr(uint64_t value, uint64_t epoch) const;

  /// CreatePsr writing the params().PsrBytes()-wide PSR into `out`
  /// instead of allocating — for loops assembling many PSRs into one
  /// buffer (the engine's multi-channel body, bench/batched_crypto's
  /// N-source epoch). On the fixed-width fast path this performs no
  /// heap allocation at all. Identical bytes to CreatePsr.
  Status CreatePsrInto(uint64_t value, uint64_t epoch, uint8_t* out) const;

  /// Optional: share an EpochKeyCache with co-located sources so K_t is
  /// derived once per epoch instead of once per source. The simulated
  /// engine (engine::MultiQueryEngine) wires one cache into all N
  /// sources; a real deployment (one process per source) simply skips
  /// this.
  void SetEpochKeyCache(std::shared_ptr<EpochKeyCache> cache) {
    cache_ = std::move(cache);
  }

  uint32_t index() const { return index_; }
  const Params& params() const { return params_; }

 private:
  Params params_;
  uint32_t index_;
  crypto::PrfKey global_key_;  ///< K, scheduled
  crypto::PrfKey source_key_;  ///< k_i, scheduled
  std::shared_ptr<EpochKeyCache> cache_;
};

}  // namespace sies::core

#endif  // SIES_SIES_SOURCE_H_
