// Lint fixture: a stack digest array receives the HM1 batch's tags (one
// secret share ss_{i,t} per key) and is never wiped. Must trip the
// zeroize rule.
#include <cstdint>

#include "crypto/hmac.h"

namespace sies {

void DeriveSharesLeaky(const crypto::PrfKey* const* keys, size_t n,
                       uint64_t epoch) {
  uint8_t shares[20 * 64];
  crypto::EpochPrfSha1Batch(n, keys, epoch, shares);
  // BAD: shares holds n secret shares but is never SecureZero'd; the
  // stack frame leaks them to the next callee.
}

}  // namespace sies
