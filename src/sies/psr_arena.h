// Pooled buffer for bulk PSR assembly in the epoch hot loop.
//
// A cold-start epoch at N = 10^6 sources used to allocate one Bytes per
// PSR (N vector allocations to create, N more to slice for merging). A
// PsrArena holds every PSR of an epoch in one contiguous allocation —
// source i writes its slot via Source::CreatePsrInto, the aggregator
// folds the whole region via Aggregator::MergeContiguous, the querier
// reads the result via Querier::EvaluateSlice — so steady-state epochs
// perform no per-source heap allocation at all: Reset() reuses the
// previous epoch's capacity.
//
// PSRs are ciphertexts (public on the wire), so the arena is not
// zeroized on reuse or destruction; never stage key material in it.
#ifndef SIES_SIES_PSR_ARENA_H_
#define SIES_SIES_PSR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace sies::core {

/// Reusable contiguous storage for `count` PSRs of `psr_bytes` each.
/// Not thread-safe; distinct slots may be written concurrently
/// (disjoint byte ranges).
class PsrArena {
 public:
  PsrArena() = default;

  /// Sizes the arena for one epoch: `count` PSR slots of `psr_bytes`
  /// (typically Params::PsrBytes()). Capacity is kept across calls —
  /// growing allocates, same size or shrinking reuses.
  void Reset(size_t psr_bytes, size_t count) {
    psr_bytes_ = psr_bytes;
    count_ = count;
    const size_t want = psr_bytes * count;
    if (psrs_.size() < want) psrs_.resize(want);
  }

  /// Writable slot for PSR `i` (i < count()); psr_bytes() wide.
  uint8_t* Slot(size_t i) { return psrs_.data() + i * psr_bytes_; }
  const uint8_t* Slot(size_t i) const { return psrs_.data() + i * psr_bytes_; }

  /// The contiguous PSR region (count() * psr_bytes() bytes) — the form
  /// Aggregator::MergeContiguous consumes.
  uint8_t* data() { return psrs_.data(); }
  const uint8_t* data() const { return psrs_.data(); }

  size_t count() const { return count_; }
  size_t psr_bytes() const { return psr_bytes_; }

 private:
  std::vector<uint8_t> psrs_;
  size_t psr_bytes_ = 0;
  size_t count_ = 0;
};

}  // namespace sies::core

#endif  // SIES_SIES_PSR_ARENA_H_
