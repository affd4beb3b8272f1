#include "crypto/hmac.h"

#include <algorithm>
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

// The MAC from a schedule through any compression body, on the stack:
//
//   inner = H((K0 ^ ipad) || message)  from chain.inner
//   tag   = H((K0 ^ opad) || inner)    from chain.outer, one block
//
// The portable body's path, and every body's path for a message longer
// than 55 bytes (a one-block message on SHA-NI runs the lane kernel,
// MacWith). A message of at most 55 bytes fits its final block with the
// padding, so it is padded in place and the whole MAC is two
// compressions. The block (which holds the inner digest) and the hash
// state are wiped before return; only the tag leaves.
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

// Each hash's SHA-NI body and its HMAC lane kernel (crypto/sha1.h,
// crypto/sha256.h).
template <size_t kWords>
constexpr md_internal::CompressFn kShaNiBody = nullptr;
template <>
constexpr md_internal::CompressFn kShaNiBody<5> = sha1_internal::CompressShaNi;
template <>
constexpr md_internal::CompressFn kShaNiBody<8> =
    sha256_internal::CompressShaNi;

void ShaNiLanes(size_t n, const HmacChain<5>* const* chains, ByteView message,
                uint8_t* out) {
  sha1_internal::HmacShaNi(n, chains, message.data, message.len, out);
}
void ShaNiLanes(size_t n, const HmacChain<8>* const* chains, ByteView message,
                uint8_t* out) {
  sha256_internal::HmacShaNi(n, chains, message.data, message.len, out);
}
void ShaNiLanes(size_t n, const HmacChain<5>* const* chains, uint64_t epoch,
                uint8_t* out) {
  sha1_internal::EpochHmacShaNi(n, chains, epoch, out);
}
void ShaNiLanes(size_t n, const HmacChain<8>* const* chains, uint64_t epoch,
                uint8_t* out) {
  sha256_internal::EpochHmacShaNi(n, chains, epoch, out);
}

ByteView AsMessage(ByteView message, uint8_t[8]) { return message; }
ByteView AsMessage(uint64_t epoch, uint8_t t[8]) {
  StoreBigEndian64(epoch, t);
  return ByteView(t, 8);
}

// The MAC from a schedule under `compress`, where `message` is bytes or
// an epoch t (encoded as 8 big-endian bytes). The SHA-NI body runs a
// one-block message through its lane kernel, one lane; anything else
// goes through MacFrom.
template <size_t kWords, typename Message>
void MacWith(md_internal::CompressFn compress, const HmacChain<kWords>& chain,
             Message message, uint8_t* out) {
  uint8_t t[8];
  const ByteView bytes = AsMessage(message, t);
  if (compress == kShaNiBody<kWords> &&
      bytes.len <= md_internal::kMaxOneBlockTail) {
    const HmacChain<kWords>* lane = &chain;
    ShaNiLanes(1, &lane, message, out);
    return;
  }
  MacFrom<kWords>(compress, chain, bytes, out);
}

// `n` MACs of one shared message (bytes, or an epoch t) under the
// schedules `chain_at(0)` .. `chain_at(n - 1)`, tag i at
// `out + 4 * kWords * i`: the PRF batches. The SHA-NI body runs a
// one-block message two lanes at a time through its lane kernel, which
// takes chain pointers, gathered a chunk at a time; anything else is one
// MacWith per key.
template <size_t kWords, typename ChainAt, typename Message>
void BatchWith(md_internal::CompressFn compress, size_t n, ChainAt chain_at,
               Message message, uint8_t* out) {
  constexpr size_t kDigest = 4 * kWords;
  uint8_t t[8];
  if (compress != kShaNiBody<kWords> ||
      AsMessage(message, t).len > md_internal::kMaxOneBlockTail) {
    for (size_t i = 0; i < n; ++i) {
      MacWith<kWords>(compress, chain_at(i), message, out + kDigest * i);
    }
    return;
  }
  constexpr size_t kChunk = 64;
  const HmacChain<kWords>* chains[kChunk];
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t take = std::min(kChunk, n - off);
    for (size_t i = 0; i < take; ++i) chains[i] = &chain_at(off + i);
    ShaNiLanes(take, chains, message, out + kDigest * off);
  }
}

// One-shot HMAC: schedule into a stack chain, MAC from it, wipe it.
template <size_t kWords, typename Message>
void OneShot(md_internal::CompressFn compress, const uint32_t* init,
             ByteView key, Message message, uint8_t* out) {
  HmacChain<kWords> chain;
  Schedule<kWords>(compress, init, key, &chain);
  MacWith<kWords>(compress, chain, message, out);
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
  MacWith<5>(compress, key.sha1(), message, out);
}

void HmacSha256With(md_internal::CompressFn compress, const PrfKey& key,
                    ByteView message, uint8_t out[32]) {
  MacWith<8>(compress, key.sha256(), message, out);
}

void EpochPrfSha1BatchWith(md_internal::CompressFn compress, size_t n,
                           const PrfKey* const* keys, uint64_t epoch,
                           uint8_t* out) {
  BatchWith<5>(
      compress, n,
      [keys](size_t i) -> const HmacChain<5>& { return keys[i]->sha1(); },
      epoch, out);
}

void PrfSha256BatchWith(md_internal::CompressFn compress, size_t n,
                        const PrfKey* keys, ByteView msg, uint8_t* out) {
  BatchWith<8>(
      compress, n,
      [keys](size_t i) -> const HmacChain<8>& { return keys[i].sha256(); },
      msg, out);
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
  OneShot<5>(sha1_internal::Compress(), sha1_internal::kInitState.data(), key,
             epoch, out);
}

void EpochPrfSha1Into(const PrfKey& key, uint64_t epoch, uint8_t out[20]) {
  MacWith<5>(sha1_internal::Compress(), key.sha1(), epoch, out);
}

void EpochPrfSha256Into(ByteView key, uint64_t epoch, uint8_t out[32]) {
  OneShot<8>(sha256_internal::Compress(), sha256_internal::kInitState.data(),
             key, epoch, out);
}

void EpochPrfSha256Into(const PrfKey& key, uint64_t epoch, uint8_t out[32]) {
  MacWith<8>(sha256_internal::Compress(), key.sha256(), epoch, out);
}

void EpochPrfSha1Batch(size_t n, const PrfKey* const* keys, uint64_t epoch,
                       uint8_t* out) {
  hmac_internal::EpochPrfSha1BatchWith(sha1_internal::Compress(), n, keys,
                                       epoch, out);
}

void PrfSha256Batch(size_t n, const PrfKey* keys, ByteView msg,
                    uint8_t* out) {
  hmac_internal::PrfSha256BatchWith(sha256_internal::Compress(), n, keys, msg,
                                    out);
}

void EpochPrfSha256Batch(size_t n, const PrfKey* keys, uint64_t epoch,
                         uint8_t* out) {
  // t's 8-byte encoding through the shared-message lane kernel
  // (HmacShaNi). The single PRF builds t in registers (EpochHmacShaNi);
  // moving the batch onto that kernel is a change of its own, to be
  // measured on its own.
  uint8_t t[8];
  StoreBigEndian64(epoch, t);
  PrfSha256Batch(n, keys, ByteView(t, sizeof(t)), out);
}

void HmacSha256Batch(size_t n, const ByteView* keys, const ByteView* msgs,
                     uint8_t* out) {
  for (size_t i = 0; i < n; ++i) HmacSha256Into(keys[i], msgs[i], out + 32 * i);
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
