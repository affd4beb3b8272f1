// Lint fixture: the sanctioned heap-free PRF pattern — pads and the
// stack digest are SecureZero'd before the helper returns; a Bytes tag
// returned to the caller is the caller's to wipe. Must be clean.
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/secure.h"
#include "crypto/fp256.h"
#include "crypto/hmac.h"

namespace sies {

crypto::U256 CleanShare(const crypto::ByteView& share_key, uint64_t epoch) {
  uint8_t prf[20];
  crypto::EpochPrfSha1Into(share_key, epoch, prf);
  crypto::U256 share = crypto::U256::FromBytesBE(prf, sizeof(prf));
  // GOOD: the stack digest is wiped once consumed.
  common::SecureZero(prf, sizeof(prf));
  return share;
}

void CleanPads(const uint8_t key[20], uint8_t out[64]) {
  uint8_t pad[64] = {0};
  std::memcpy(pad, key, 20);
  for (uint8_t& b : pad) b ^= 0x36;
  std::memcpy(out, pad, sizeof(pad));
  // GOOD: the pad block is wiped before the frame dies.
  common::SecureZero(pad, sizeof(pad));
}

Bytes ReturnedTag(const Bytes& mac_key, uint64_t epoch) {
  Bytes tag(32);
  crypto::EpochPrfSha256Into(mac_key, epoch, tag.data());
  return tag;  // GOOD: ownership (and the wipe) passes to the caller
}

}  // namespace sies
