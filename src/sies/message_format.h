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
#include "sies/field.h"
#include "sies/params.h"

namespace sies::core {

// Each operation below is one template over the field it computes in
// (sies/field.h), instantiated for FixedField and BigField; the two give
// the same bytes and the same error messages.

/// Packs a value and a share into the m_{i,t} integer.
/// Fails if `value` exceeds the value field or `share` the share field.
template <typename F>
StatusOr<typename F::Element> PackMessage(const F& field, uint64_t value,
                                          const typename F::Element& share);

/// Decoded contents of a summed message m_{f,t}.
template <typename F>
struct UnpackedMessage {
  uint64_t sum = 0;               ///< res_t, the SUM result field
  typename F::Element share_sum;  ///< s_t, the summed-share field (+carry)
};

/// Splits a (possibly summed) message back into (res_t, s_t).
/// Fails if the value field overflows its width (Σv too large for the
/// configured value_bytes).
template <typename F>
StatusOr<UnpackedMessage<F>> UnpackMessage(const F& field,
                                           const typename F::Element& message);

/// E(m, K_t, k_{i,t}, p) = K_t · m + k_{i,t} mod p. Fails unless m < p.
template <typename F>
StatusOr<typename F::Element> Encrypt(
    const F& field, const typename F::Element& message,
    const typename F::Element& epoch_global_key,
    const typename F::Element& epoch_source_key);

/// D(c, K_t, k, p) = (c - k) · K_t^{-1} mod p, where k is the sum of the
/// epoch source keys of all contributing sources. Takes K_t^{-1}, which
/// the querier derives once per epoch (EpochKeyCache) instead of paying
/// an inverse on every channel of every evaluation.
template <typename F>
typename F::Element Decrypt(const F& field,
                            const typename F::Element& ciphertext,
                            const typename F::Element& global_key_inv,
                            const typename F::Element& key_sum);

/// Parses the `size` PSR bytes at `data` in place (wire envelopes
/// evaluate their body straight out of the payload). Fails on wrong
/// width or a value >= p. The inverse is the field's Store, which writes
/// a ciphertext as the fixed-width (PsrBytes) big-endian PSR.
template <typename F>
StatusOr<typename F::Element> ParsePsr(const F& field, const uint8_t* data,
                                       size_t size);

// --- Loss-reporting wire envelope -----------------------------------------
//
// wire payload = [contributor field ‖ body], where the body is one PSR
// per channel, in the engine's plan wire order (a single PSR for a
// plain SUM or COUNT query). The field is the sender's
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

}  // namespace sies::core

#endif  // SIES_SIES_MESSAGE_FORMAT_H_
