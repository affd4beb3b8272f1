// Lint fixture: a local staging buffer receives the HM256 batch's
// digests (one derived epoch key per key) and is never wiped. Must trip
// the zeroize rule.
#include <cstdint>

#include "crypto/hmac.h"

namespace sies {

void DeriveBatchLeaky(const crypto::PrfKey* keys, size_t n,
                      uint64_t epoch) {
  uint8_t digests[32 * 64];
  crypto::EpochPrfSha256Batch(n, keys, epoch, digests);
  // BAD: digests holds n derived keys but is never SecureZero'd; the
  // stack frame leaks epoch-key material to the next callee.
}

}  // namespace sies
