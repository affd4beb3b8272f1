#include "sies/message_format.h"

namespace sies::core {

template <typename F>
StatusOr<typename F::Element> PackMessage(const F& field, uint64_t value,
                                          const typename F::Element& share) {
  const Params& params = field.params();
  if (params.value_bytes < 8) {
    uint64_t field_max = (uint64_t{1} << (8 * params.value_bytes)) - 1;
    if (value > field_max) {
      return Status::OutOfRange("value exceeds the value field width");
    }
  }
  if (F::BitLength(share) > 8 * params.share_bytes) {
    return Status::OutOfRange("share exceeds the share field width");
  }
  // Value and share fields are disjoint, so the add never carries into
  // the value field.
  return F::IntAdd(F::Shl(F::FromUint64(value), params.ValueShiftBits()),
                   share);
}

template <typename F>
StatusOr<UnpackedMessage<F>> UnpackMessage(
    const F& field, const typename F::Element& message) {
  const size_t shift = field.params().ValueShiftBits();
  typename F::Element value = F::Shr(message, shift);
  if (F::BitLength(value) > 8 * field.params().value_bytes) {
    return Status::OutOfRange(
        "summed value overflows the value field; configure value_bytes=8");
  }
  typename F::Element share_sum = F::IntSub(message, F::Shl(value, shift));
  return UnpackedMessage<F>{F::Low64(value), std::move(share_sum)};
}

template <typename F>
StatusOr<typename F::Element> Encrypt(
    const F& field, const typename F::Element& message,
    const typename F::Element& epoch_global_key,
    const typename F::Element& epoch_source_key) {
  if (!field.IsResidue(message)) {
    return Status::OutOfRange("message must be < p");
  }
  return field.Add(field.Mul(epoch_global_key, message), epoch_source_key);
}

template <typename F>
typename F::Element Decrypt(const F& field,
                            const typename F::Element& ciphertext,
                            const typename F::Element& global_key_inv,
                            const typename F::Element& key_sum) {
  return field.Mul(field.Sub(ciphertext, key_sum), global_key_inv);
}

template <typename F>
StatusOr<typename F::Element> ParsePsr(const F& field, const uint8_t* data,
                                       size_t size) {
  if (size != field.PsrBytes()) {
    return Status::InvalidArgument("PSR has wrong width");
  }
  typename F::Element c = F::FromBytes(data, size);
  if (!field.IsResidue(c)) {
    return Status::InvalidArgument("PSR is not a residue mod p");
  }
  return c;
}

#define SIES_INSTANTIATE_MESSAGE_FORMAT(F)                                  \
  template StatusOr<F::Element> PackMessage(const F&, uint64_t,             \
                                            const F::Element&);             \
  template StatusOr<UnpackedMessage<F>> UnpackMessage(const F&,             \
                                                      const F::Element&);   \
  template StatusOr<F::Element> Encrypt(const F&, const F::Element&,        \
                                        const F::Element&,                  \
                                        const F::Element&);                 \
  template F::Element Decrypt(const F&, const F::Element&,                  \
                              const F::Element&, const F::Element&);        \
  template StatusOr<F::Element> ParsePsr(const F&, const uint8_t*, size_t);
SIES_INSTANTIATE_MESSAGE_FORMAT(FixedField)
SIES_INSTANTIATE_MESSAGE_FORMAT(BigField)
#undef SIES_INSTANTIATE_MESSAGE_FORMAT

size_t WireEnvelopeBytes(const Params& params, size_t channels) {
  return channels * params.PsrBytes();
}

Bytes SerializeWirePayload(const ContributorSet& contributors,
                           const Bytes& body) {
  Bytes wire;
  wire.reserve(contributors.FieldBytes() + body.size());
  contributors.AppendField(wire);
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

StatusOr<WirePayload> ParseWireEnvelope(const Params& params,
                                        net::SourceRange sender,
                                        const Bytes& wire,
                                        size_t expected_channels) {
  const size_t body_bytes = expected_channels * params.PsrBytes();
  if (wire.size() < body_bytes) {
    return Status::InvalidArgument(
        "wire envelope shorter than the channel plan's PSRs");
  }
  const size_t field_bytes = wire.size() - body_bytes;
  auto contributors = ContributorSet::Parse(sender, wire.data(), field_bytes);
  if (!contributors.ok()) return contributors.status();
  return WirePayload{std::move(contributors).value(),
                     Bytes(wire.begin() + field_bytes, wire.end())};
}

Status AppendMergedField(std::span<const net::SourceRange> child_ranges,
                         const std::vector<Bytes>& children,
                         size_t body_bytes, Bytes& out) {
  if (children.size() != child_ranges.size()) {
    return Status::InvalidArgument("one source range per child slot expected");
  }
  // Lossless fast path: every child arrived with an empty field, so the
  // merged field is empty too — a length check per child, nothing more.
  bool arrived = false;
  bool complete = true;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0 && child_ranges[i].lo != child_ranges[i - 1].hi) {
      return Status::InvalidArgument(
          "child ranges do not tile the aggregator's range");
    }
    if (children[i].empty()) {
      complete = false;
      continue;
    }
    if (children[i].size() < body_bytes) {
      return Status::InvalidArgument(
          "wire envelope shorter than the channel plan's PSRs");
    }
    arrived = true;
    complete = complete && children[i].size() == body_bytes;
  }
  if (!arrived) return Status::InvalidArgument("nothing to merge");
  if (complete) return Status::OK();

  ContributorSet merged({child_ranges.front().lo, child_ranges.back().hi});
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i].empty()) {
      SIES_RETURN_IF_ERROR(merged.AddAbsent(child_ranges[i]));
      continue;
    }
    auto child = ContributorSet::Parse(child_ranges[i], children[i].data(),
                                       children[i].size() - body_bytes);
    if (!child.ok()) return child.status();
    for (const net::SourceRange& run : child.value().absent()) {
      SIES_RETURN_IF_ERROR(merged.AddAbsent(run));
    }
  }
  merged.AppendField(out);
  return Status::OK();
}

}  // namespace sies::core
