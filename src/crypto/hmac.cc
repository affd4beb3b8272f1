#include "crypto/hmac.h"

#include <cstring>

#include "common/secure.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sies::crypto {

namespace {

// HMAC over a Merkle-Damgard hash with `kWords` state words starting at
// `init`, entirely on the stack:
//
//   inner = H((K0 ^ ipad) || message)   one pad block + message blocks
//   tag   = H((K0 ^ opad) || inner)     two blocks (digest fits one)
//
// K0 is the key zero-padded to the block, or H(key) when the key is
// longer than a block. The pad block, inner digest and hash state are
// wiped before return; only the tag leaves.
template <size_t kWords>
void HmacInto(md_internal::CompressFn compress, const uint32_t* init,
              ByteView key, ByteView message, uint8_t* out) {
  constexpr size_t kBlock = md_internal::kBlockSize;
  constexpr size_t kDigest = 4 * kWords;
  uint32_t state[kWords];
  uint8_t pad[kBlock] = {0};
  uint8_t inner[kDigest];

  if (key.len > kBlock) {
    std::memcpy(state, init, sizeof(state));
    md_internal::AbsorbAll(compress, state, key.data, key.len, 0);
    md_internal::StoreWords(state, kWords, pad);
  } else if (key.len > 0) {
    std::memcpy(pad, key.data, key.len);
  }

  for (uint8_t& b : pad) b ^= 0x36;
  std::memcpy(state, init, sizeof(state));
  compress(state, pad, 1);
  md_internal::AbsorbAll(compress, state, message.data, message.len, kBlock);
  md_internal::StoreWords(state, kWords, inner);

  for (uint8_t& b : pad) b ^= 0x36 ^ 0x5c;
  std::memcpy(state, init, sizeof(state));
  compress(state, pad, 1);
  md_internal::Finish(compress, state, inner, kDigest, kBlock + kDigest);
  md_internal::StoreWords(state, kWords, out);

  common::SecureZero(pad, sizeof(pad));
  common::SecureZero(inner, sizeof(inner));
  common::SecureZero(state, sizeof(state));
}

}  // namespace

namespace hmac_internal {

void HmacSha1With(md_internal::CompressFn compress, ByteView key,
                  ByteView message, uint8_t out[20]) {
  HmacInto<5>(compress, sha1_internal::kInitState.data(), key, message, out);
}

void HmacSha256With(md_internal::CompressFn compress, ByteView key,
                    ByteView message, uint8_t out[32]) {
  HmacInto<8>(compress, sha256_internal::kInitState.data(), key, message,
              out);
}

}  // namespace hmac_internal

void HmacSha1Into(ByteView key, ByteView message, uint8_t out[20]) {
  hmac_internal::HmacSha1With(sha1_internal::Compress(), key, message, out);
}

void HmacSha256Into(ByteView key, ByteView message, uint8_t out[32]) {
  hmac_internal::HmacSha256With(sha256_internal::Compress(), key, message,
                                out);
}

void EpochPrfSha1Into(ByteView key, uint64_t epoch, uint8_t out[20]) {
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  HmacSha1Into(key, ByteView(t, sizeof(t)), out);
}

void EpochPrfSha256Into(ByteView key, uint64_t epoch, uint8_t out[32]) {
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  HmacSha256Into(key, ByteView(t, sizeof(t)), out);
}

Bytes HmacSha1(const Bytes& key, const Bytes& message) {
  Bytes tag(Sha1::kDigestSize);
  HmacSha1Into(key, message, tag.data());
  return tag;
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  Bytes tag(Sha256::kDigestSize);
  HmacSha256Into(key, message, tag.data());
  return tag;
}

Bytes EpochPrfSha1(const Bytes& key, uint64_t epoch) {
  Bytes tag(Sha1::kDigestSize);
  EpochPrfSha1Into(key, epoch, tag.data());
  return tag;
}

Bytes EpochPrfSha256(const Bytes& key, uint64_t epoch) {
  Bytes tag(Sha256::kDigestSize);
  EpochPrfSha256Into(key, epoch, tag.data());
  return tag;
}

}  // namespace sies::crypto
