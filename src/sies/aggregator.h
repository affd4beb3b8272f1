// The SIES aggregator (paper Section IV-A, merging phase).
//
// Aggregators hold no secrets: only the public prime p. Merging is a
// modular addition of the children's PSRs — the entire reason the scheme
// is deployable on resource-constrained relay nodes.
#ifndef SIES_SIES_AGGREGATOR_H_
#define SIES_SIES_AGGREGATOR_H_

#include <vector>

#include "sies/message_format.h"
#include "sies/params.h"

namespace sies::core {

/// An aggregator A_j. Stateless apart from the public parameters.
class Aggregator {
 public:
  explicit Aggregator(Params params) : params_(std::move(params)) {
    params_.Fp();  // build the fixed-width context before any sharing
  }

  /// Merging phase: PSR' = Σ PSR_c mod p over the children's PSRs.
  /// Cost profile (paper Eq. 6): (F-1) 32-byte modular additions.
  StatusOr<Bytes> Merge(const std::vector<Bytes>& child_psrs) const;

  /// Merge over `count` PSRs stored back to back at `psrs` (PSR i at
  /// `psrs + i * PsrBytes()`), writing the merged PSR to `out` (also
  /// PsrBytes() wide). Allocation-free on FixedField (sies/field.h) —
  /// the form for PSRs held back to back in one buffer
  /// (bench/batched_crypto's N-source epoch), where the vector-of-Bytes
  /// overload would cost one heap slice per source. Identical bytes to
  /// Merge.
  Status MergeContiguous(const uint8_t* psrs, size_t count,
                         uint8_t* out) const;

  /// Merging phase over wire envelopes (message_format.h). Child i
  /// covers `child_ranges[i]` — the ranges tile this aggregator's range
  /// left to right — and sent `children[i]`: its contributor field
  /// followed by `channels` PSRs, or nothing (an empty slot) when its
  /// message never arrived. Sums each channel's ciphertexts over the
  /// children that arrived and reports the rest as absent. A lossless
  /// merge costs Eq. 6's (F-1) additions per channel plus one length
  /// check per child: the contributor field stays empty.
  StatusOr<Bytes> MergeWire(std::span<const net::SourceRange> child_ranges,
                            const std::vector<Bytes>& children,
                            size_t channels) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace sies::core

#endif  // SIES_SIES_AGGREGATOR_H_
