#include "crypto/sha256.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/secure.h"
#include "crypto/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SIES_SHA256_NI 1
#include <immintrin.h>
#else
#define SIES_SHA256_NI 0
#endif

namespace sies::crypto {

namespace {

inline uint32_t Rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

}  // namespace

namespace sha256_internal {

const std::array<uint32_t, 8> kInitState = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

const uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

void CompressBlock(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
    uint32_t ch = (e & f) ^ ((~e) & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if SIES_SHA256_NI

#define SIES_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))
#define SIES_SHA_NI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

// Four rounds (group G of 16) of the SHA-NI transform. `msg[G % 4]`
// holds W[4G..4G+3]; the schedule for later groups is advanced in the
// rolling 4-register window exactly as Intel's SHA extensions reference
// does (SHA256MSG1 three groups ahead, SHA256MSG2 one group ahead).
template <int G>
SIES_SHA_NI_INLINE void Sha256NiGroup(__m128i& abef, __m128i& cdgh,
                                      __m128i msg[4]) {
  __m128i wk = _mm_add_epi32(
      msg[G & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                      &kRoundConstants[4 * G])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    const __m128i carry = _mm_alignr_epi8(msg[G & 3], msg[(G - 1) & 3], 4);
    msg[(G + 1) & 3] = _mm_sha256msg2_epu32(
        _mm_add_epi32(msg[(G + 1) & 3], carry), msg[G & 3]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (G >= 1 && G <= 12) {
    msg[(G - 1) & 3] = _mm_sha256msg1_epu32(msg[(G - 1) & 3], msg[G & 3]);
  }
}

template <int... G>
SIES_SHA_NI_INLINE void Sha256NiRounds(std::integer_sequence<int, G...>,
                                       __m128i& abef, __m128i& cdgh,
                                       __m128i msg[4]) {
  (Sha256NiGroup<G>(abef, cdgh, msg), ...);
}

SIES_SHA_NI_TARGET void CompressShaNiImpl(uint32_t state[8],
                                          const uint8_t* blocks,
                                          size_t nblocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // The SHA-NI round instructions keep the state as ABEF / CDGH.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  __m128i msg[4];
  for (size_t b = 0; b < nblocks; ++b, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    }
    Sha256NiRounds(std::make_integer_sequence<int, 16>{}, abef, cdgh, msg);
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#undef SIES_SHA_NI_INLINE
#undef SIES_SHA_NI_TARGET

#endif  // SIES_SHA256_NI

}  // namespace

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t nblocks) {
  for (size_t b = 0; b < nblocks; ++b) CompressBlock(state, blocks + 64 * b);
}

void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
#if SIES_SHA256_NI
  CompressShaNiImpl(state, blocks, nblocks);
#else
  (void)state;
  (void)blocks;
  (void)nblocks;
  std::abort();  // no SHA-NI body on this architecture
#endif
}

md_internal::CompressFn Compress() {
  static const md_internal::CompressFn selected =
      Cpu().sha ? CompressShaNi : CompressPortable;
  return selected;
}

}  // namespace sha256_internal

void Sha256::Reset() {
  h_ = sha256_internal::kInitState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      compress_(h_.data(), buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= kBlockSize) {
    compress_(h_.data(), data, len / kBlockSize);
    data += len - len % kBlockSize;
    len %= kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha256::Final(uint8_t out[kDigestSize]) {
  md_internal::Finish(compress_, h_.data(), buffer_, buffer_len_, total_len_);
  common::SecureZero(buffer_, sizeof(buffer_));
  md_internal::StoreWords(h_.data(), 8, out);
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 hasher;
  hasher.Update(data);
  Bytes digest(kDigestSize);
  hasher.Final(digest.data());
  return digest;
}

}  // namespace sies::crypto
