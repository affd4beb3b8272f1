// Lint fixture: a local staging buffer receives the 8-lane batch
// kernel's digests (eight derived epoch keys at once) and is never
// wiped. Must trip the zeroize rule.
#include <cstdint>

#include "crypto/sha256x8.h"

namespace sies {

void DeriveBatchLeaky(const crypto::PrfKey* keys, size_t n,
                      uint64_t epoch) {
  uint8_t digests[32 * 64];
  crypto::EpochPrfSha256Batch(n, keys, epoch, digests);
  // BAD: digests holds n derived keys but is never SecureZero'd; the
  // stack frame leaks epoch-key material to the next callee.
}

}  // namespace sies
