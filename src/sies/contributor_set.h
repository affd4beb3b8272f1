// ContributorSet: which of a sender's sources reached its envelope — the
// loss-reporting field of the SIES wire envelope (PROTOCOL.md "Wire
// envelope").
//
// The querier's verification needs the EXACT set of sources whose PSRs
// reached the sink (paper Section V: it recomputes Σ k_{i,t} and
// Σ ss_{i,t} over the participating set). The paper assumes failures are
// reported out of band; over a real lossy channel nobody reports a
// dropped radio frame, so every envelope says which of its sender's
// sources it carries.
//
// Sources are numbered depth-first (net::Topology::sources()), so each
// sender covers one contiguous run [lo, hi) that every party knows from
// the topology. The field describes the contributors relative to that
// run, in the shortest of three forms:
//
//   complete  0 bytes: every source of [lo, hi) contributed.
//   absent    the absent runs in increasing order, each as the offsets
//             [first, last] (inclusive) from lo, w bytes big-endian
//             apiece, where w is the byte width of hi - lo - 1.
//   bitmap    ⌈(hi - lo)/8⌉ bytes; bit i (byte i/8, LSB first) is set
//             when source lo + i contributed; padding bits are zero.
//
// The field's length alone names the form: 0 is complete, exactly the
// bitmap width is the bitmap, anything shorter is the absent list. The
// absent list is chosen only when strictly shorter than the bitmap, so a
// field is never wider than ⌈(hi - lo)/8⌉ bytes and every set has
// exactly one encoding; Parse rejects every other byte string.
//
// The set is NOT trusted: changing it changes the share subset the
// querier verifies against, and verification fails (DESIGN.md §9).
#ifndef SIES_SIES_CONTRIBUTOR_SET_H_
#define SIES_SIES_CONTRIBUTOR_SET_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/topology.h"

namespace sies::core {

/// The contributing subset of one sender's source range, held as its
/// absent runs.
class ContributorSet {
 public:
  /// The complete set over `range`: every source contributed.
  explicit ContributorSet(net::SourceRange range) : range_(range) {}

  net::SourceRange range() const { return range_; }
  /// Absent runs: non-empty, inside range(), increasing, and separated
  /// by at least one contributor.
  const std::vector<net::SourceRange>& absent() const { return absent_; }
  bool complete() const { return absent_.empty(); }

  /// Number of contributing sources.
  uint32_t Count() const;
  /// Contributing source indices, increasing.
  std::vector<uint32_t> Indices() const;

  /// Marks `run` absent. Runs arrive left to right: `run` must be
  /// non-empty, inside range(), and start at or after the end of the
  /// previous run (a run that starts exactly there extends it).
  Status AddAbsent(net::SourceRange run);

  /// Width of the canonical field: 0, the absent list, or the bitmap.
  size_t FieldBytes() const;
  /// Appends the canonical field to `out`.
  void AppendField(Bytes& out) const;

  /// Parses the `size`-byte field at `data` of a sender covering
  /// `range`. Rejects every non-canonical encoding (padding bits set, an
  /// all-ones bitmap, a bitmap or absent list where the other form is
  /// shorter, unsorted/overlapping/adjacent/empty/out-of-range runs, a
  /// field wider than the bitmap) and a set with no contributor: a
  /// sender with nothing to report sends nothing.
  static StatusOr<ContributorSet> Parse(net::SourceRange range,
                                        const uint8_t* data, size_t size);

  /// ⌈(hi - lo)/8⌉: the bitmap form's width, and the widest field.
  static size_t BitmapBytes(net::SourceRange range) {
    return (static_cast<size_t>(range.size()) + 7) / 8;
  }

  bool operator==(const ContributorSet&) const = default;

 private:
  /// Width of the absent-list form: 2w bytes per run.
  size_t ListBytes() const;

  net::SourceRange range_;
  std::vector<net::SourceRange> absent_;
};

}  // namespace sies::core

#endif  // SIES_SIES_CONTRIBUTOR_SET_H_
