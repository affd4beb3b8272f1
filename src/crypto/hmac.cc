#include "crypto/hmac.h"

#include <cstring>

#include "common/secure.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sies::crypto {

namespace {

constexpr size_t kBlock = md_internal::kBlockSize;

// K0: the key zero-padded to a block, or H(key) zero-padded when the key
// is longer than a block.
template <size_t kWords>
void KeyBlock(md_internal::CompressFn compress, const uint32_t* init,
              ByteView key, uint8_t k0[kBlock]) {
  std::memset(k0, 0, kBlock);
  if (key.len > kBlock) {
    uint32_t state[kWords];
    std::memcpy(state, init, sizeof(state));
    md_internal::AbsorbAll(compress, state, key.data, key.len, 0);
    md_internal::StoreWords(state, kWords, k0);
    common::SecureZero(state, sizeof(state));
  } else if (key.len > 0) {
    std::memcpy(k0, key.data, key.len);
  }
}

// The RFC 2104 §4 precomputation: one compression of K0 ^ ipad and one
// of K0 ^ opad from the hash's initial value.
template <size_t kWords>
void Schedule(md_internal::CompressFn compress, const uint32_t* init,
              ByteView key, HmacChain<kWords>* chain) {
  uint8_t pad[kBlock];
  KeyBlock<kWords>(compress, init, key, pad);
  for (uint8_t& b : pad) b ^= 0x36;
  std::memcpy(chain->inner, init, sizeof(chain->inner));
  compress(chain->inner, pad, 1);
  for (uint8_t& b : pad) b ^= 0x36 ^ 0x5c;
  std::memcpy(chain->outer, init, sizeof(chain->outer));
  compress(chain->outer, pad, 1);
  common::SecureZero(pad, sizeof(pad));
}

// The MAC from a schedule, entirely on the stack:
//
//   inner = H((K0 ^ ipad) || message)  from chain.inner
//   tag   = H((K0 ^ opad) || inner)    from chain.outer, one block
//
// A message of at most 55 bytes (every epoch PRF input) fits its final
// block with the padding, so it is padded in place and the whole MAC is
// two compressions. The block (which holds the inner digest) and the
// hash state are wiped before return; only the tag leaves.
template <size_t kWords>
void MacFrom(md_internal::CompressFn compress, const HmacChain<kWords>& chain,
             ByteView message, uint8_t* out) {
  constexpr size_t kDigest = 4 * kWords;
  uint32_t state[kWords];
  uint8_t block[kBlock];
  std::memcpy(state, chain.inner, sizeof(state));
  if (message.len <= md_internal::kMaxOneBlockTail) {
    if (message.len > 0) std::memcpy(block, message.data, message.len);
    md_internal::PadOneBlock(block, message.len, kBlock + message.len);
    compress(state, block, 1);
  } else {
    md_internal::AbsorbAll(compress, state, message.data, message.len,
                           kBlock);
  }
  md_internal::StoreWords(state, kWords, block);
  md_internal::PadOneBlock(block, kDigest, kBlock + kDigest);
  std::memcpy(state, chain.outer, sizeof(state));
  compress(state, block, 1);
  md_internal::StoreWords(state, kWords, out);
  common::SecureZero(block, sizeof(block));
  common::SecureZero(state, sizeof(state));
}

// One-shot HMAC: schedule into a stack chain, MAC from it, wipe it.
template <size_t kWords>
void OneShot(md_internal::CompressFn compress, const uint32_t* init,
             ByteView key, ByteView message, uint8_t* out) {
  HmacChain<kWords> chain;
  Schedule<kWords>(compress, init, key, &chain);
  MacFrom<kWords>(compress, chain, message, out);
  common::SecureZero(&chain, sizeof(chain));
}

}  // namespace

PrfKey::PrfKey(ByteView key)
    : PrfKey(hmac_internal::ScheduleWith(sha1_internal::Compress(),
                                         sha256_internal::Compress(), key)) {}

PrfKey::PrfKey(PrfKey&& other) noexcept
    : sha1_(other.sha1_), sha256_(other.sha256_) {
  common::SecureZero(&other.sha1_, sizeof(other.sha1_));
  common::SecureZero(&other.sha256_, sizeof(other.sha256_));
}

PrfKey& PrfKey::operator=(PrfKey&& other) noexcept {
  if (this != &other) {
    sha1_ = other.sha1_;
    sha256_ = other.sha256_;
    common::SecureZero(&other.sha1_, sizeof(other.sha1_));
    common::SecureZero(&other.sha256_, sizeof(other.sha256_));
  }
  return *this;
}

PrfKey::~PrfKey() {
  common::SecureZero(&sha1_, sizeof(sha1_));
  common::SecureZero(&sha256_, sizeof(sha256_));
}

std::vector<PrfKey> ScheduleKeys(const std::vector<Bytes>& keys) {
  std::vector<PrfKey> scheduled;
  scheduled.reserve(keys.size());
  for (const Bytes& key : keys) scheduled.emplace_back(key);
  return scheduled;
}

namespace hmac_internal {

PrfKey ScheduleWith(md_internal::CompressFn sha1,
                    md_internal::CompressFn sha256, ByteView key) {
  PrfKey scheduled;
  Schedule<5>(sha1, sha1_internal::kInitState.data(), key, &scheduled.sha1_);
  Schedule<8>(sha256, sha256_internal::kInitState.data(), key,
              &scheduled.sha256_);
  return scheduled;
}

void HmacSha1With(md_internal::CompressFn compress, ByteView key,
                  ByteView message, uint8_t out[20]) {
  OneShot<5>(compress, sha1_internal::kInitState.data(), key, message, out);
}

void HmacSha256With(md_internal::CompressFn compress, ByteView key,
                    ByteView message, uint8_t out[32]) {
  OneShot<8>(compress, sha256_internal::kInitState.data(), key, message,
             out);
}

void HmacSha1With(md_internal::CompressFn compress, const PrfKey& key,
                  ByteView message, uint8_t out[20]) {
  MacFrom<5>(compress, key.sha1(), message, out);
}

void HmacSha256With(md_internal::CompressFn compress, const PrfKey& key,
                    ByteView message, uint8_t out[32]) {
  MacFrom<8>(compress, key.sha256(), message, out);
}

void Sha256KeyBlock(ByteView key, uint8_t k0[md_internal::kBlockSize]) {
  KeyBlock<8>(sha256_internal::Compress(),
              sha256_internal::kInitState.data(), key, k0);
}

}  // namespace hmac_internal

void HmacSha1Into(ByteView key, ByteView message, uint8_t out[20]) {
  hmac_internal::HmacSha1With(sha1_internal::Compress(), key, message, out);
}

void HmacSha1Into(const PrfKey& key, ByteView message, uint8_t out[20]) {
  hmac_internal::HmacSha1With(sha1_internal::Compress(), key, message, out);
}

void HmacSha256Into(ByteView key, ByteView message, uint8_t out[32]) {
  hmac_internal::HmacSha256With(sha256_internal::Compress(), key, message,
                                out);
}

void HmacSha256Into(const PrfKey& key, ByteView message, uint8_t out[32]) {
  hmac_internal::HmacSha256With(sha256_internal::Compress(), key, message,
                                out);
}

void EpochPrfSha1Into(ByteView key, uint64_t epoch, uint8_t out[20]) {
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  HmacSha1Into(key, ByteView(t, sizeof(t)), out);
}

void EpochPrfSha1Into(const PrfKey& key, uint64_t epoch, uint8_t out[20]) {
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  HmacSha1Into(key, ByteView(t, sizeof(t)), out);
}

void EpochPrfSha256Into(ByteView key, uint64_t epoch, uint8_t out[32]) {
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  HmacSha256Into(key, ByteView(t, sizeof(t)), out);
}

void EpochPrfSha256Into(const PrfKey& key, uint64_t epoch, uint8_t out[32]) {
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
