// Lint fixture: the schedule-keyed HM256 batch (PrfSha256Batch, the
// hardened profile's share derivation) runs into a local staging buffer
// that is consumed and never wiped. Must trip the zeroize rule.
#include <cstdint>

#include "crypto/hmac.h"

namespace sies {

uint64_t LeakyShares(const crypto::PrfKey* prf_keys, size_t n,
                     crypto::ByteView share_input) {
  uint8_t digests[32 * 64];
  crypto::PrfSha256Batch(n, prf_keys, share_input, digests);
  uint64_t acc = 0;
  for (size_t i = 0; i < 32 * n; ++i) acc += digests[i];
  // BAD: digests holds n shares ss_{i,t} and is left on the stack.
  return acc;
}

}  // namespace sies
