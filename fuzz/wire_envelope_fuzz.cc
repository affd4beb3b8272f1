// Harness: sies::core::ParsePsr + ParseWireEnvelope + the contributor-set
// codec — the wire surface every SIES party decodes. A hostile child or
// aggregator controls every byte here, so the paper's security argument
// (tamper => verification failure, never a crash or false acceptance)
// must hold over arbitrary frames.
//
// Input layout: [0] control byte, [1..] wire bytes.
//   control & 0x07          expected channel-plan width (0..7)
//   (control >> 3) & 0x03   the sender's source range in a 300-source
//                           tree: 0 the whole tree [0, 300) (2-byte
//                           offsets, 38-byte bitmap), 1 a subtree
//                           [40, 140) (1-byte offsets), 2 a subtree
//                           [37, 49) (bitmap only), 3 one source [5, 6)
//                           (only the empty field is valid)
//
// Oracles:
//   * parse-ok => the body is exactly channels x PsrBytes, the field
//     is no wider than the range's bitmap and empty exactly when the
//     set is complete, and the envelope reserializes byte-identically
//     (every accepted frame, in all three forms, has one encoding);
//   * a single child's field survives a merge unchanged;
//   * while the widest field is narrower than one PSR, the same frame
//     parsed against a DIFFERENT plan width must fail;
//   * a well-formed single PSR never verifies against the committed
//     keys (forgery acceptance probability ~2^-224), the querier
//     rejects every root envelope the envelope parser rejects, and a
//     wire envelope never verifies with a non-empty contributor set;
//   * every failure is a Status, never an abort.
#include <vector>

#include "fuzz/fuzz_harness.h"
#include "sies/message_format.h"
#include "sies/querier.h"

namespace {

using sies::Bytes;
using sies::net::SourceRange;
using namespace sies::core;

constexpr uint32_t kSources = 300;
constexpr SourceRange kRanges[4] = {
    {0, kSources}, {40, 140}, {37, 49}, {5, 6}};

struct Fixture {
  Params params = MakeParams(kSources, 1).value();
  Querier querier{params, GenerateKeys(params, {7})};
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Returns true when the frame parsed.
bool CheckEnvelope(const Params& params, SourceRange range, const Bytes& wire,
                   size_t channels) {
  auto parsed = ParseWireEnvelope(params, range, wire, channels);
  if (!parsed.ok()) {
    SIES_FUZZ_ASSERT(!parsed.status().message().empty(),
                     "parse failure carries no message");
    return false;
  }
  const WirePayload& payload = parsed.value();
  const size_t body_bytes = channels * params.PsrBytes();
  const size_t field_bytes = wire.size() - body_bytes;
  SIES_FUZZ_ASSERT(payload.body.size() == body_bytes,
                   "parsed body width disagrees with the channel plan");
  SIES_FUZZ_ASSERT(payload.contributors.range() == range,
                   "parsed set has the wrong sender range");
  SIES_FUZZ_ASSERT(payload.contributors.FieldBytes() == field_bytes,
                   "parsed set re-encodes at a different width");
  SIES_FUZZ_ASSERT(field_bytes <= ContributorSet::BitmapBytes(range),
                   "accepted a field wider than the bitmap");
  SIES_FUZZ_ASSERT((field_bytes == 0) == payload.contributors.complete(),
                   "empty field and complete set disagree");
  SIES_FUZZ_ASSERT(payload.contributors.Count() > 0,
                   "accepted a set with no contributor");
  SIES_FUZZ_ASSERT(
      SerializeWirePayload(payload.contributors, payload.body) == wire,
      "reserialized envelope is not byte-identical");

  // (An empty frame — zero channels, complete — is an empty slot to a
  // merge: nothing arrived.)
  if (!wire.empty()) {
    Bytes merged_field;
    SIES_FUZZ_ASSERT(
        AppendMergedField({&range, 1}, {wire}, body_bytes, merged_field)
            .ok(),
        "a parsable child envelope failed to merge");
    SIES_FUZZ_ASSERT(
        merged_field == Bytes(wire.begin(), wire.begin() + field_bytes),
        "a lone child's field changed in the merge");
  }

  // Length-implied forms make the plan width ambiguous once a field can
  // be a whole PSR wide; below that, a second plan cannot fit.
  if (ContributorSet::BitmapBytes(range) < params.PsrBytes()) {
    SIES_FUZZ_ASSERT(
        !ParseWireEnvelope(params, range, wire, channels + 1).ok(),
        "frame accepted under two different channel plans");
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  Fixture& fixture = GetFixture();
  const uint8_t control = data[0];
  const size_t channels = control & 0x07u;
  const SourceRange range = kRanges[(control >> 3) & 0x03u];
  const Bytes wire(data + 1, data + size);

  const bool parsed = CheckEnvelope(fixture.params, range, wire, channels);

  // Single-PSR surface + the false-acceptance oracle.
  if (wire.size() == fixture.params.PsrBytes()) {
    auto psr = ParsePsr(fixture.params, wire);
    if (psr.ok()) {
      auto bytes = SerializePsr(fixture.params, psr.value());
      SIES_FUZZ_ASSERT(bytes.ok() && bytes.value() == wire,
                       "PSR does not reserialize bit-identically");
      auto eval = fixture.querier.Evaluate(wire, /*epoch=*/1);
      SIES_FUZZ_ASSERT(!eval.ok() || !eval.value().verified,
                       "querier verified a fuzzed PSR");
    }
  }
  // Full wire evaluation of a root envelope. The parser rejects empty
  // sets, so any acceptance is a forgery.
  if (range == kRanges[0] && channels == 1) {
    auto eval = fixture.querier.EvaluateWire(wire, /*epoch=*/1);
    SIES_FUZZ_ASSERT(parsed || !eval.ok(),
                     "querier accepted a frame the envelope parser rejects");
    if (eval.ok() && eval.value().verified) {
      SIES_FUZZ_ASSERT(eval.value().contributors.empty(),
                       "querier verified a fuzzed envelope with a non-empty "
                       "contributor set");
    }
  }
  return 0;
}
