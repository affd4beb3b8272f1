// Lint fixture: the HM256 batch's forced-body hook
// (hmac_internal::PrfSha256BatchWith) fills a stack digest array that is
// never wiped. A test or bench pinning the body derives the same keys as
// the dispatched batch. Must trip the zeroize rule.
#include <cstdint>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sies {

void PinnedBodyLeaky(const crypto::PrfKey* keys, size_t n,
                     crypto::ByteView t) {
  uint8_t digests[32 * 64];
  crypto::hmac_internal::PrfSha256BatchWith(
      crypto::sha256_internal::CompressPortable, n, keys, t, digests);
  // BAD: digests holds n derived epoch keys and is never SecureZero'd.
}

}  // namespace sies
