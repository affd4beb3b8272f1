#include "crypto/sha256.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/secure.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"

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

namespace {

// Round constants K (FIPS 180-4 §4.2.2).
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

// Group G of every lane before group G + 1 of any: the lanes' round
// chains are independent, so their SHA256RNDS2 latencies overlap.
template <int G, size_t... Lane>
SIES_SHA_NI_INLINE void Sha256NiGroupLanes(std::index_sequence<Lane...>,
                                           __m128i* abef, __m128i* cdgh,
                                           __m128i (*msg)[4]) {
  (Sha256NiGroup<G>(abef[Lane], cdgh[Lane], msg[Lane]), ...);
}

template <size_t L, int... G>
SIES_SHA_NI_INLINE void Sha256NiRounds(std::integer_sequence<int, G...>,
                                       __m128i* abef, __m128i* cdgh,
                                       __m128i (*msg)[4]) {
  (Sha256NiGroupLanes<G>(std::make_index_sequence<L>{}, abef, cdgh, msg),
   ...);
}

// Byte order of each 32-bit word reversed: big-endian block bytes to
// message words, and state words to digest bytes.
SIES_SHA_NI_INLINE __m128i WordBswap() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

// The SHA-NI round instructions keep the state as ABEF / CDGH.
SIES_SHA_NI_INLINE void LoadState(const uint32_t state[8], __m128i& abef,
                                  __m128i& cdgh) {
  const __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);
}

// ABEF / CDGH back to words H0..H3 (`lo`) and H4..H7 (`hi`).
SIES_SHA_NI_INLINE void StateWords(__m128i abef, __m128i cdgh, __m128i& lo,
                                   __m128i& hi) {
  const __m128i tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  lo = _mm_blend_epi16(tmp, cdgh, 0xF0);
  hi = _mm_alignr_epi8(cdgh, tmp, 8);
}

SIES_SHA_NI_TARGET void CompressShaNiImpl(uint32_t state[8],
                                          const uint8_t* blocks,
                                          size_t nblocks) {
  const __m128i bswap = WordBswap();
  __m128i abef, cdgh;
  LoadState(state, abef, cdgh);
  __m128i msg[1][4];
  for (size_t b = 0; b < nblocks; ++b, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    for (int i = 0; i < 4; ++i) {
      msg[0][i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    }
    Sha256NiRounds<1>(std::make_integer_sequence<int, 16>{}, &abef, &cdgh,
                      msg);
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  __m128i lo, hi;
  StateWords(abef, cdgh, lo, hi);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), lo);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hi);
}

// One block per lane from the key-schedule chaining value `start(l)`.
// The feed-forward re-reads it after a compiler barrier rather than
// keep a copy live across the rounds, where it would spill to the
// stack.
template <size_t L, typename Start>
SIES_SHA_NI_INLINE void Sha256NiBlockFrom(Start start, __m128i* abef,
                                          __m128i* cdgh, __m128i (*msg)[4]) {
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) LoadState(start(l), abef[l], cdgh[l]);
  Sha256NiRounds<L>(std::make_integer_sequence<int, 16>{}, abef, cdgh, msg);
  __asm__ volatile("" ::: "memory");
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    __m128i abef_start, cdgh_start;
    LoadState(start(l), abef_start, cdgh_start);
    abef[l] = _mm_add_epi32(abef[l], abef_start);
    cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_start);
  }
}

// The HMAC lane kernel: L MACs of one shared padded inner block (`block`,
// message words) from L key schedules. The inner digest becomes W0..W7
// of the outer block in registers, its padding words are constants, and
// only the tags are stored.
template <size_t L>
SIES_SHA_NI_INLINE void MacLanes(const HmacChain<8>* const* chains,
                                 const __m128i block[4], uint8_t* out) {
  __m128i abef[L], cdgh[L], msg[L][4];
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    for (int i = 0; i < 4; ++i) msg[l][i] = block[i];
  }
  Sha256NiBlockFrom<L>([chains](size_t l) { return chains[l]->inner; },
                       abef, cdgh, msg);
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    StateWords(abef[l], cdgh[l], msg[l][0], msg[l][1]);
    msg[l][2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
    msg[l][3] = _mm_set_epi32((64 + 32) * 8, 0, 0, 0);
  }
  Sha256NiBlockFrom<L>([chains](size_t l) { return chains[l]->outer; },
                       abef, cdgh, msg);
  const __m128i bswap = WordBswap();
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    __m128i lo, hi;
    StateWords(abef[l], cdgh[l], lo, hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32 * l),
                     _mm_shuffle_epi8(lo, bswap));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32 * l + 16),
                     _mm_shuffle_epi8(hi, bswap));
  }
}

// One lane: a single PRF, or the last of an odd batch. Out of line, so
// the values the pair loop keeps live cannot crowd its registers into
// spilling a key-derived one.
SIES_SHA_NI_TARGET __attribute__((noinline)) void MacOne(
    const HmacChain<8>* chain, const __m128i block[4], uint8_t* out) {
  MacLanes<1>(&chain, block, out);
}

// n MACs of one block, two lanes at a time. The pair loop reads a copy
// of the block whose address never escapes (MacOne's does), so no tag
// store can alias it and the compiler hoists the shared block's message
// schedule out of the loop.
SIES_SHA_NI_INLINE void MacAll(size_t n, const HmacChain<8>* const* chains,
                               const __m128i block[4], uint8_t* out) {
  const __m128i shared[4] = {block[0], block[1], block[2], block[3]};
  size_t i = 0;
  for (; i + 2 <= n; i += 2) MacLanes<2>(chains + i, shared, out + 32 * i);
  if (i < n) MacOne(chains[i], block, out + 32 * i);
}

SIES_SHA_NI_TARGET void HmacShaNiImpl(size_t n,
                                      const HmacChain<8>* const* chains,
                                      const uint8_t* msg, size_t len,
                                      uint8_t* out) {
  // The second block of every inner hash: the message padded after the
  // 64-byte K0 ^ ipad block. The caller's bytes may be secret.
  uint8_t padded[md_internal::kBlockSize];
  if (len > 0) std::memcpy(padded, msg, len);
  md_internal::PadOneBlock(padded, len, md_internal::kBlockSize + len);
  const __m128i bswap = WordBswap();
  __m128i block[4];
  for (int i = 0; i < 4; ++i) {
    block[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(padded + 16 * i)),
        bswap);
  }
  MacAll(n, chains, block, out);
  common::SecureZero(padded, sizeof(padded));
  common::SecureZero(block, sizeof(block));
}

SIES_SHA_NI_TARGET void EpochHmacShaNiImpl(size_t n,
                                           const HmacChain<8>* const* chains,
                                           uint64_t epoch, uint8_t* out) {
  // W0..W1 = t, W2 = the 0x80 pad byte, W15 = the bit length of
  // K0 ^ ipad || t.
  const __m128i block[4] = {
      _mm_set_epi32(0, static_cast<int>(0x80000000u),
                    static_cast<int>(static_cast<uint32_t>(epoch)),
                    static_cast<int>(static_cast<uint32_t>(epoch >> 32))),
      _mm_setzero_si128(), _mm_setzero_si128(),
      _mm_set_epi32((64 + 8) * 8, 0, 0, 0)};
  MacAll(n, chains, block, out);
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

void HmacShaNi(size_t n, const HmacChain<8>* const* chains,
               const uint8_t* msg, size_t len, uint8_t* out) {
#if SIES_SHA256_NI
  HmacShaNiImpl(n, chains, msg, len, out);
#else
  (void)n;
  (void)chains;
  (void)msg;
  (void)len;
  (void)out;
  std::abort();  // no SHA-NI body on this architecture
#endif
}

void EpochHmacShaNi(size_t n, const HmacChain<8>* const* chains,
                    uint64_t epoch, uint8_t* out) {
#if SIES_SHA256_NI
  EpochHmacShaNiImpl(n, chains, epoch, out);
#else
  (void)n;
  (void)chains;
  (void)epoch;
  (void)out;
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
