// The SIES plaintext layout m_{i,t} (paper Figure 2) and the homomorphic
// encryption of Section III-D.
//
//   m_{i,t} = [ v_{i,t} | 0...0 (pad) | ss_{i,t} ]
//             value_bytes  pad_bits     share_bytes
//
// interpreted as the integer  v · 2^(pad + 8·share_bytes) + ss.
// After summing N such messages, the low (pad + share) bits hold
// s_t = Σ ss_{i,t} (the pad absorbs the carry), and the top field holds
// res_t = Σ v_{i,t}.
#ifndef SIES_SIES_MESSAGE_FORMAT_H_
#define SIES_SIES_MESSAGE_FORMAT_H_

#include <span>

#include "sies/contributor_set.h"
#include "sies/params.h"

namespace sies::core {

/// Packs a value and a share into the m_{i,t} integer.
/// Fails if `value` exceeds the value field or `share` the share field.
StatusOr<crypto::BigUint> PackMessage(const Params& params, uint64_t value,
                                      const crypto::BigUint& share);

/// Decoded contents of a summed message m_{f,t}.
struct UnpackedMessage {
  uint64_t sum = 0;            ///< res_t, the SUM result field
  crypto::BigUint share_sum;   ///< s_t, the summed-share field (incl. carry)
};

/// Splits a (possibly summed) message back into (res_t, s_t).
/// Fails if the value field overflows its width (Σv too large for the
/// configured value_bytes).
StatusOr<UnpackedMessage> UnpackMessage(const Params& params,
                                        const crypto::BigUint& message);

/// E(m, K_t, k_{i,t}, p) = K_t · m + k_{i,t} mod p.
StatusOr<crypto::BigUint> Encrypt(const Params& params,
                                  const crypto::BigUint& message,
                                  const crypto::BigUint& epoch_global_key,
                                  const crypto::BigUint& epoch_source_key);

/// D(c, K_t, k, p) = (c - k) · K_t^{-1} mod p, where k is the sum of the
/// epoch source keys of all contributing sources.
StatusOr<crypto::BigUint> Decrypt(const Params& params,
                                  const crypto::BigUint& ciphertext,
                                  const crypto::BigUint& epoch_global_key,
                                  const crypto::BigUint& key_sum);

/// Decrypt with K_t^{-1} already in hand: the querier derives the inverse
/// once per epoch (EpochKeyCache) instead of paying an extended Euclid on
/// every channel of every evaluation.
StatusOr<crypto::BigUint> DecryptWithInverse(
    const Params& params, const crypto::BigUint& ciphertext,
    const crypto::BigUint& global_key_inv, const crypto::BigUint& key_sum);

/// Serializes a ciphertext as a fixed-width (PsrBytes) big-endian PSR.
StatusOr<Bytes> SerializePsr(const Params& params,
                             const crypto::BigUint& ciphertext);

/// Parses a PSR. Fails on wrong width or a value >= p.
StatusOr<crypto::BigUint> ParsePsr(const Params& params, const Bytes& psr);

/// In-place overload: parses `size` PSR bytes at `data` without copying
/// (wire envelopes evaluate their body straight out of the payload).
StatusOr<crypto::BigUint> ParsePsr(const Params& params, const uint8_t* data,
                                   size_t size);

// --- Loss-reporting wire envelope -----------------------------------------
//
// wire payload = [contributor field ‖ body], where the body is one PSR
// per channel: a single PSR (runner::SiesProtocol) or the per-channel
// PSRs of a session or engine payload. The field is the sender's
// ContributorSet relative to its own source range (contributor_set.h):
// empty when every source below the sender contributed, so a lossless
// envelope is exactly channels × PsrBytes at any N, and a source (whose
// range is itself) always sends its bare PSRs. Aggregators fold their
// children's sets while summing the ciphertexts; the querier reads the
// root's set, relative to [0, N), as the participating set — so radio
// losses are reported in-band instead of failing every lossy epoch.

/// Width of a lossless envelope: channels × PsrBytes, independent of N.
size_t WireEnvelopeBytes(const Params& params, size_t channels);

/// Concatenates [contributor field ‖ body].
Bytes SerializeWirePayload(const ContributorSet& contributors,
                           const Bytes& body);

/// A parsed wire envelope.
struct WirePayload {
  ContributorSet contributors;
  Bytes body;
};

/// Parses the envelope of a sender covering `sender`: the body is the
/// trailing `expected_channels` PSRs, the contributor field everything
/// before it. Fails on a frame shorter than the body and on a
/// non-canonical field (ContributorSet::Parse). Never reads past
/// `wire`'s bounds.
StatusOr<WirePayload> ParseWireEnvelope(const Params& params,
                                        net::SourceRange sender,
                                        const Bytes& wire,
                                        size_t expected_channels);

/// Appends to `out` the contributor field of an aggregator whose
/// children cover `child_ranges` (left to right, tiling the
/// aggregator's range) and sent `children`: [field ‖ `body_bytes` of
/// body] each, or nothing — an empty slot — when that child's message
/// never arrived, which reports the child's whole range absent. Appends
/// nothing when every child arrived complete. Fails when no child
/// arrived, the ranges do not tile, or a child's envelope is malformed.
Status AppendMergedField(std::span<const net::SourceRange> child_ranges,
                         const std::vector<Bytes>& children,
                         size_t body_bytes, Bytes& out);

// --- Fixed-width fast path ------------------------------------------------
//
// Mirrors of the operations above over crypto::U256, used by every party
// when params.Fp() is non-null (prime of exactly 256 bits, the reference
// configuration). Semantics, wire bytes, and error messages are identical
// to the BigUint path; only the arithmetic substrate changes.

/// Fast-path PackMessage. The share must fit its field (HM1 shares are 20
/// bytes, so on the fast path this holds by construction).
StatusOr<crypto::U256> PackMessageFp(const Params& params, uint64_t value,
                                     const crypto::U256& share);

/// Fast-path UnpackMessage result.
struct UnpackedMessageFp {
  uint64_t sum = 0;         ///< res_t
  crypto::U256 share_sum;   ///< s_t
};

/// Fast-path UnpackMessage. Fails on value-field overflow like the
/// generic variant.
StatusOr<UnpackedMessageFp> UnpackMessageFp(const Params& params,
                                            const crypto::U256& message);

/// Fast-path Encrypt: E(m) = K_t · m + k_{i,t} mod p.
StatusOr<crypto::U256> EncryptFp(const crypto::Fp256& fp,
                                 const crypto::U256& message,
                                 const crypto::U256& epoch_global_key,
                                 const crypto::U256& epoch_source_key);

/// Fast-path Decrypt; the caller supplies the cached K_t^{-1}.
crypto::U256 DecryptFp(const crypto::Fp256& fp, const crypto::U256& ciphertext,
                       const crypto::U256& global_key_inv,
                       const crypto::U256& key_sum);

/// Fast-path ParsePsr (width + residue checks, same error messages).
StatusOr<crypto::U256> ParsePsrFp(const Params& params,
                                  const crypto::Fp256& fp, const Bytes& psr);

/// In-place overload of the fast-path parse (see ParsePsr above).
StatusOr<crypto::U256> ParsePsrFp(const Params& params, const crypto::Fp256& fp,
                                  const uint8_t* data, size_t size);

}  // namespace sies::core

#endif  // SIES_SIES_MESSAGE_FORMAT_H_
