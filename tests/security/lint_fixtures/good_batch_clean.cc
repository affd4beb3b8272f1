// Lint fixture: the sanctioned batch-kernel pattern — derive into a
// local staging buffer, consume, SecureZero before scope exit; spans
// carry phase names and epochs only. Must be clean.
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/secure.h"
#include "crypto/hmac.h"
#include "telemetry/trace.h"

namespace sies {

uint64_t DeriveBatchClean(const crypto::PrfKey* prf_keys, size_t n,
                          uint64_t epoch) {
  // GOOD: span label is a phase name, never key bytes.
  telemetry::ScopedSpan span("share-recompute", "fixture", epoch);
  uint8_t digests[32 * 64];
  crypto::EpochPrfSha256Batch(n, prf_keys, epoch, digests);
  uint64_t acc = 0;
  for (size_t i = 0; i < 32 * n; ++i) acc += digests[i];
  // GOOD: the staging buffer is wiped once the derived keys are
  // consumed.
  common::SecureZero(digests, sizeof(digests));
  return acc;
}

}  // namespace sies
