// Lint fixture: a derivation helper runs the heap-free epoch PRF into a
// stack buffer, consumes it and never wipes it. Must trip the zeroize
// rule.
#include <cstdint>

#include "crypto/fp256.h"
#include "crypto/hmac.h"

namespace sies {

crypto::U256 LeakyShare(const crypto::ByteView& share_key, uint64_t epoch) {
  uint8_t prf[20];
  crypto::EpochPrfSha1Into(share_key, epoch, prf);
  // BAD: prf holds ss_{i,t} and is left on the stack.
  return crypto::U256::FromBytesBE(prf, sizeof(prf));
}

}  // namespace sies
