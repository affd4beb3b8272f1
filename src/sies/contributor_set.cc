#include "sies/contributor_set.h"

#include <algorithm>

namespace sies::core {

namespace {

// Byte width w of one absent-run offset: offsets lie in [0, size - 1].
size_t OffsetBytes(net::SourceRange range) {
  const uint32_t max_offset = range.size() == 0 ? 0 : range.size() - 1;
  size_t width = 1;
  while (width < 4 && (max_offset >> (8 * width)) != 0) ++width;
  return width;
}

void PutOffset(uint32_t offset, size_t width, Bytes& out) {
  for (size_t i = width; i-- > 0;) {
    out.push_back(static_cast<uint8_t>(offset >> (8 * i)));
  }
}

uint32_t GetOffset(const uint8_t* data, size_t width) {
  uint32_t offset = 0;
  for (size_t i = 0; i < width; ++i) offset = (offset << 8) | data[i];
  return offset;
}

bool TestBit(const uint8_t* bits, uint32_t i) {
  return (bits[i / 8] >> (i % 8)) & 1u;
}

// Sets bits [from, to) of an LSB-first bitmap.
void SetBits(uint8_t* bits, uint32_t from, uint32_t to) {
  for (uint32_t i = from; i < to; ++i) {
    bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
}

}  // namespace

uint32_t ContributorSet::Count() const {
  uint32_t count = range_.size();
  for (const net::SourceRange& run : absent_) count -= run.size();
  return count;
}

std::vector<uint32_t> ContributorSet::Indices() const {
  std::vector<uint32_t> indices;
  indices.reserve(Count());
  uint32_t next = range_.lo;
  for (const net::SourceRange& run : absent_) {
    for (uint32_t i = next; i < run.lo; ++i) indices.push_back(i);
    next = run.hi;
  }
  for (uint32_t i = next; i < range_.hi; ++i) indices.push_back(i);
  return indices;
}

Status ContributorSet::AddAbsent(net::SourceRange run) {
  if (run.lo >= run.hi || run.lo < range_.lo || run.hi > range_.hi) {
    return Status::InvalidArgument(
        "absent run is empty or outside the sender's range");
  }
  if (!absent_.empty()) {
    if (run.lo < absent_.back().hi) {
      return Status::InvalidArgument(
          "absent runs must arrive left to right without overlap");
    }
    if (run.lo == absent_.back().hi) {
      absent_.back().hi = run.hi;
      return Status::OK();
    }
  }
  absent_.push_back(run);
  return Status::OK();
}

size_t ContributorSet::ListBytes() const {
  return 2 * OffsetBytes(range_) * absent_.size();
}

size_t ContributorSet::FieldBytes() const {
  if (complete()) return 0;
  return std::min(ListBytes(), BitmapBytes(range_));
}

void ContributorSet::AppendField(Bytes& out) const {
  if (complete()) return;
  const size_t bitmap_bytes = BitmapBytes(range_);
  if (ListBytes() < bitmap_bytes) {
    const size_t width = OffsetBytes(range_);
    for (const net::SourceRange& run : absent_) {
      PutOffset(run.lo - range_.lo, width, out);
      PutOffset(run.hi - 1 - range_.lo, width, out);
    }
    return;
  }
  const size_t at = out.size();
  out.resize(at + bitmap_bytes, 0);
  uint32_t next = 0;
  for (const net::SourceRange& run : absent_) {
    SetBits(out.data() + at, next, run.lo - range_.lo);
    next = run.hi - range_.lo;
  }
  SetBits(out.data() + at, next, range_.size());
}

StatusOr<ContributorSet> ContributorSet::Parse(net::SourceRange range,
                                               const uint8_t* data,
                                               size_t size) {
  ContributorSet set(range);
  if (size == 0) return set;
  const size_t bitmap_bytes = BitmapBytes(range);
  if (size > bitmap_bytes) {
    return Status::InvalidArgument(
        "contributor field wider than the sender's bitmap");
  }
  if (size == bitmap_bytes) {
    const uint32_t n = range.size();
    if (n % 8 != 0 && (data[size - 1] >> (n % 8)) != 0) {
      return Status::InvalidArgument("contributor bitmap has padding bits set");
    }
    for (uint32_t i = 0; i < n;) {
      if (TestBit(data, i)) {
        ++i;
        continue;
      }
      const uint32_t start = i;
      while (i < n && !TestBit(data, i)) ++i;
      set.absent_.push_back({range.lo + start, range.lo + i});
    }
    if (set.absent_.empty()) {
      return Status::InvalidArgument(
          "all-ones contributor bitmap: a complete set has an empty field");
    }
    if (set.ListBytes() < bitmap_bytes) {
      return Status::InvalidArgument(
          "contributor bitmap where the absent list is shorter");
    }
  } else {
    const size_t width = OffsetBytes(range);
    if (size % (2 * width) != 0) {
      return Status::InvalidArgument(
          "absent list is not a whole number of runs");
    }
    for (size_t at = 0; at < size; at += 2 * width) {
      const uint32_t first = GetOffset(data + at, width);
      const uint32_t last = GetOffset(data + at + width, width);
      if (first > last) {
        return Status::InvalidArgument("absent run is empty");
      }
      if (last >= range.size()) {
        return Status::InvalidArgument(
            "absent run outside the sender's range");
      }
      if (!set.absent_.empty()) {
        const uint32_t previous_end = set.absent_.back().hi - range.lo;
        if (first < previous_end) {
          return Status::InvalidArgument(
              "absent runs are unsorted or overlapping");
        }
        if (first == previous_end) {
          return Status::InvalidArgument(
              "adjacent absent runs must be sent as one run");
        }
      }
      set.absent_.push_back({range.lo + first, range.lo + last + 1});
    }
  }
  if (set.Count() == 0) {
    return Status::InvalidArgument("contributor field names no contributor");
  }
  return set;
}

}  // namespace sies::core
