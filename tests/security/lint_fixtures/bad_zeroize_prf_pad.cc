// Lint fixture: a PRF helper builds the HMAC ipad/opad blocks (the key
// under a fixed XOR mask) in stack arrays and returns without wiping
// them. Must trip the zeroize rule.
#include <cstdint>
#include <cstring>

#include "crypto/hmac.h"

namespace sies {

void LeakyEpochPrf(const uint8_t key[20], uint64_t epoch, uint8_t out[32]) {
  uint8_t ipad[64] = {0};
  uint8_t opad[64];
  std::memcpy(ipad, key, 20);
  for (size_t j = 0; j < 64; ++j) opad[j] = ipad[j] ^ 0x5c;
  for (uint8_t& b : ipad) b ^= 0x36;
  (void)epoch;
  (void)out;
  // BAD: ipad and opad are the key in thin disguise; the frame they sit
  // in is reused by the next callee with the key still readable.
}

}  // namespace sies
