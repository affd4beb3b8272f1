#include "sies/message_format.h"

namespace sies::core {

StatusOr<crypto::BigUint> PackMessage(const Params& params, uint64_t value,
                                      const crypto::BigUint& share) {
  if (params.value_bytes < 8) {
    uint64_t field_max = (uint64_t{1} << (8 * params.value_bytes)) - 1;
    if (value > field_max) {
      return Status::OutOfRange("value exceeds the value field width");
    }
  }
  if (share.BitLength() > 8 * params.share_bytes) {
    return Status::OutOfRange("share exceeds the share field width");
  }
  crypto::BigUint m = crypto::BigUint::Shl(crypto::BigUint(value),
                                           params.ValueShiftBits());
  return crypto::BigUint::Add(m, share);
}

StatusOr<UnpackedMessage> UnpackMessage(const Params& params,
                                        const crypto::BigUint& message) {
  size_t shift = params.ValueShiftBits();
  crypto::BigUint value = crypto::BigUint::Shr(message, shift);
  if (value.BitLength() > 8 * params.value_bytes) {
    return Status::OutOfRange(
        "summed value overflows the value field; configure value_bytes=8");
  }
  crypto::BigUint share_sum =
      crypto::BigUint::Sub(message, crypto::BigUint::Shl(value, shift));
  return UnpackedMessage{value.Low64(), std::move(share_sum)};
}

StatusOr<crypto::BigUint> Encrypt(const Params& params,
                                  const crypto::BigUint& message,
                                  const crypto::BigUint& epoch_global_key,
                                  const crypto::BigUint& epoch_source_key) {
  if (message >= params.prime) {
    return Status::OutOfRange("message must be < p");
  }
  auto km = crypto::BigUint::ModMul(epoch_global_key, message, params.prime);
  if (!km.ok()) return km.status();
  return crypto::BigUint::ModAdd(km.value(), epoch_source_key, params.prime);
}

StatusOr<crypto::BigUint> Decrypt(const Params& params,
                                  const crypto::BigUint& ciphertext,
                                  const crypto::BigUint& epoch_global_key,
                                  const crypto::BigUint& key_sum) {
  auto inv = crypto::BigUint::ModInverse(epoch_global_key, params.prime);
  if (!inv.ok()) return inv.status();
  return DecryptWithInverse(params, ciphertext, inv.value(), key_sum);
}

StatusOr<crypto::BigUint> DecryptWithInverse(
    const Params& params, const crypto::BigUint& ciphertext,
    const crypto::BigUint& global_key_inv, const crypto::BigUint& key_sum) {
  auto diff = crypto::BigUint::ModSub(ciphertext, key_sum, params.prime);
  if (!diff.ok()) return diff.status();
  return crypto::BigUint::ModMul(diff.value(), global_key_inv, params.prime);
}

StatusOr<Bytes> SerializePsr(const Params& params,
                             const crypto::BigUint& ciphertext) {
  return ciphertext.ToBytes(params.PsrBytes());
}

StatusOr<crypto::BigUint> ParsePsr(const Params& params, const Bytes& psr) {
  return ParsePsr(params, psr.data(), psr.size());
}

StatusOr<crypto::BigUint> ParsePsr(const Params& params, const uint8_t* data,
                                   size_t size) {
  if (size != params.PsrBytes()) {
    return Status::InvalidArgument("PSR has wrong width");
  }
  crypto::BigUint c = crypto::BigUint::FromBytes(data, size);
  if (c >= params.prime) {
    return Status::InvalidArgument("PSR is not a residue mod p");
  }
  return c;
}

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

StatusOr<crypto::U256> PackMessageFp(const Params& params, uint64_t value,
                                     const crypto::U256& share) {
  if (params.value_bytes < 8) {
    uint64_t field_max = (uint64_t{1} << (8 * params.value_bytes)) - 1;
    if (value > field_max) {
      return Status::OutOfRange("value exceeds the value field width");
    }
  }
  if (share.BitLength() > 8 * params.share_bytes) {
    return Status::OutOfRange("share exceeds the share field width");
  }
  // Value and share fields are disjoint (Validate guarantees the layout
  // fits in the prime's 256 bits), so the add cannot carry.
  crypto::U256 m;
  crypto::U256::Add(crypto::U256::FromUint64(value).Shl(params.ValueShiftBits()),
                    share, &m);
  return m;
}

StatusOr<UnpackedMessageFp> UnpackMessageFp(const Params& params,
                                            const crypto::U256& message) {
  size_t shift = params.ValueShiftBits();
  crypto::U256 value = message.Shr(shift);
  if (value.BitLength() > 8 * params.value_bytes) {
    return Status::OutOfRange(
        "summed value overflows the value field; configure value_bytes=8");
  }
  crypto::U256 share_sum;
  crypto::U256::Sub(message, value.Shl(shift), &share_sum);
  return UnpackedMessageFp{value.Low64(), share_sum};
}

StatusOr<crypto::U256> EncryptFp(const crypto::Fp256& fp,
                                 const crypto::U256& message,
                                 const crypto::U256& epoch_global_key,
                                 const crypto::U256& epoch_source_key) {
  if (message.Compare(fp.prime_u256()) >= 0) {
    return Status::OutOfRange("message must be < p");
  }
  return fp.Add(fp.Mul(epoch_global_key, message), epoch_source_key);
}

crypto::U256 DecryptFp(const crypto::Fp256& fp, const crypto::U256& ciphertext,
                       const crypto::U256& global_key_inv,
                       const crypto::U256& key_sum) {
  return fp.Mul(fp.Sub(ciphertext, key_sum), global_key_inv);
}

StatusOr<crypto::U256> ParsePsrFp(const Params& params,
                                  const crypto::Fp256& fp, const Bytes& psr) {
  return ParsePsrFp(params, fp, psr.data(), psr.size());
}

StatusOr<crypto::U256> ParsePsrFp(const Params& params, const crypto::Fp256& fp,
                                  const uint8_t* data, size_t size) {
  if (size != params.PsrBytes()) {
    return Status::InvalidArgument("PSR has wrong width");
  }
  crypto::U256 c = crypto::U256::FromBytesBE(data, size);
  if (c.Compare(fp.prime_u256()) >= 0) {
    return Status::InvalidArgument("PSR is not a residue mod p");
  }
  return c;
}

}  // namespace sies::core
