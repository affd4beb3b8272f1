#include "crypto/sha1.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/secure.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SIES_SHA1_NI 1
#include <immintrin.h>
#else
#define SIES_SHA1_NI 0
#endif

namespace sies::crypto {

namespace sha1_internal {

const std::array<uint32_t, 5> kInitState = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

void CompressBlock(uint32_t state[5], const uint8_t block[64]) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
           e = state[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    uint32_t temp = Rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = temp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

#if SIES_SHA1_NI

#define SIES_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))
#define SIES_SHA_NI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

// Four rounds (group G of 20) of the SHA-NI transform. `msg[G % 4]`
// holds W[4G..4G+3]; `e_in` carries E into this group's SHA1RNDS4 and
// `e_out` captures A for the next group's SHA1NEXTE, the two registers
// swapping roles every group. The schedule for later groups advances
// in the rolling 4-register window exactly as Intel's SHA extensions
// reference does (SHA1MSG1 three groups ahead, XOR two ahead,
// SHA1MSG2 one ahead).
template <int G>
SIES_SHA_NI_INLINE void Sha1NiGroup(__m128i& abcd, __m128i& e_in,
                                    __m128i& e_out, __m128i msg[4]) {
  if constexpr (G == 0) {
    e_in = _mm_add_epi32(e_in, msg[0]);
  } else {
    e_in = _mm_sha1nexte_epu32(e_in, msg[G & 3]);
  }
  e_out = abcd;
  if constexpr (G >= 3 && G <= 18) {
    msg[(G + 1) & 3] = _mm_sha1msg2_epu32(msg[(G + 1) & 3], msg[G & 3]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, G / 5);
  if constexpr (G >= 1 && G <= 16) {
    msg[(G - 1) & 3] = _mm_sha1msg1_epu32(msg[(G - 1) & 3], msg[G & 3]);
  }
  if constexpr (G >= 2 && G <= 17) {
    msg[(G - 2) & 3] = _mm_xor_si128(msg[(G - 2) & 3], msg[G & 3]);
  }
}

// Group G of every lane before group G + 1 of any: the lanes' round
// chains are independent, so their SHA1RNDS4 latencies overlap. Even
// groups feed E from e0 and leave A in e1; odd groups the reverse.
template <int G, size_t... Lane>
SIES_SHA_NI_INLINE void Sha1NiGroupLanes(std::index_sequence<Lane...>,
                                         __m128i* abcd, __m128i* e0,
                                         __m128i* e1, __m128i (*msg)[4]) {
  (Sha1NiGroup<G>(abcd[Lane], G % 2 == 0 ? e0[Lane] : e1[Lane],
                  G % 2 == 0 ? e1[Lane] : e0[Lane], msg[Lane]),
   ...);
}

template <size_t L, int... G>
SIES_SHA_NI_INLINE void Sha1NiRounds(std::integer_sequence<int, G...>,
                                     __m128i* abcd, __m128i* e0, __m128i* e1,
                                     __m128i (*msg)[4]) {
  (Sha1NiGroupLanes<G>(std::make_index_sequence<L>{}, abcd, e0, e1, msg),
   ...);
}

// Whole-block byte reversal: big-endian words, W0 in the top lane (and
// back: ABCD to digest bytes).
SIES_SHA_NI_INLINE __m128i BlockBswap() {
  return _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
}

SIES_SHA_NI_INLINE void LoadState(const uint32_t state[5], __m128i& abcd,
                                  __m128i& e) {
  abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
}

SIES_SHA_NI_TARGET void CompressShaNiImpl(uint32_t state[5],
                                          const uint8_t* blocks,
                                          size_t nblocks) {
  const __m128i bswap = BlockBswap();
  __m128i abcd, e;
  LoadState(state, abcd, e);
  __m128i e1 = _mm_setzero_si128();
  __m128i msg[1][4];
  for (size_t b = 0; b < nblocks; ++b, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e;
    for (int i = 0; i < 4; ++i) {
      msg[0][i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    }
    Sha1NiRounds<1>(std::make_integer_sequence<int, 20>{}, &abcd, &e, &e1,
                    msg);
    // After the last (odd) group e holds that group's input A.
    e = _mm_sha1nexte_epu32(e, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

// One block per lane from the key-schedule chaining value `start(l)`
// (ABCD, and E in the top word of `e`). The feed-forward re-reads it
// after a compiler barrier rather than keep a copy live across the
// rounds, where it would spill to the stack.
template <size_t L, typename Start>
SIES_SHA_NI_INLINE void Sha1NiBlockFrom(Start start, __m128i* abcd,
                                        __m128i* e, __m128i (*msg)[4]) {
  __m128i e1[L] = {};
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) LoadState(start(l), abcd[l], e[l]);
  Sha1NiRounds<L>(std::make_integer_sequence<int, 20>{}, abcd, e, e1, msg);
  __asm__ volatile("" ::: "memory");
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    __m128i abcd_start, e_start;
    LoadState(start(l), abcd_start, e_start);
    e[l] = _mm_sha1nexte_epu32(e[l], e_start);
    abcd[l] = _mm_add_epi32(abcd[l], abcd_start);
  }
}

// The HMAC lane kernel: L MACs of one shared padded inner block (`block`,
// message words) from L key schedules. The inner digest becomes W0..W4
// of the outer block in registers, its padding words are constants, and
// only the tags are stored.
template <size_t L>
SIES_SHA_NI_INLINE void MacLanes(const HmacChain<5>* const* chains,
                                 const __m128i block[4], uint8_t* out) {
  __m128i abcd[L], e[L], msg[L][4];
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    for (int i = 0; i < 4; ++i) msg[l][i] = block[i];
  }
  Sha1NiBlockFrom<L>([chains](size_t l) { return chains[l]->inner; }, abcd,
                     e, msg);
  // W4 = H4 (the top word of e), W5 = the 0x80 pad byte, W15 = the bit
  // length of K0 ^ opad || inner digest.
  const __m128i pad = _mm_set_epi32(0, static_cast<int>(0x80000000u), 0, 0);
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    msg[l][0] = abcd[l];
    msg[l][1] = _mm_blend_epi16(e[l], pad, 0x3F);
    msg[l][2] = _mm_setzero_si128();
    msg[l][3] = _mm_set_epi32(0, 0, 0, (64 + 20) * 8);
  }
  Sha1NiBlockFrom<L>([chains](size_t l) { return chains[l]->outer; }, abcd,
                     e, msg);
  const __m128i bswap = BlockBswap();
#pragma GCC unroll 2
  for (size_t l = 0; l < L; ++l) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 20 * l),
                     _mm_shuffle_epi8(abcd[l], bswap));
    StoreBigEndian32(static_cast<uint32_t>(_mm_extract_epi32(e[l], 3)),
                     out + 20 * l + 16);
  }
}

// One lane: a single PRF, or the last of an odd batch. Out of line, so
// the values the pair loop keeps live cannot crowd its registers into
// spilling a key-derived one.
SIES_SHA_NI_TARGET __attribute__((noinline)) void MacOne(
    const HmacChain<5>* chain, const __m128i block[4], uint8_t* out) {
  MacLanes<1>(&chain, block, out);
}

// n MACs of one block, two lanes at a time. The pair loop reads a copy
// of the block whose address never escapes (MacOne's does), so no tag
// store can alias it and the compiler hoists the shared block's message
// schedule out of the loop.
SIES_SHA_NI_INLINE void MacAll(size_t n, const HmacChain<5>* const* chains,
                               const __m128i block[4], uint8_t* out) {
  const __m128i shared[4] = {block[0], block[1], block[2], block[3]};
  size_t i = 0;
  for (; i + 2 <= n; i += 2) MacLanes<2>(chains + i, shared, out + 20 * i);
  if (i < n) MacOne(chains[i], block, out + 20 * i);
}

SIES_SHA_NI_TARGET void HmacShaNiImpl(size_t n,
                                      const HmacChain<5>* const* chains,
                                      const uint8_t* msg, size_t len,
                                      uint8_t* out) {
  // The second block of every inner hash: the message padded after the
  // 64-byte K0 ^ ipad block. The caller's bytes may be secret.
  uint8_t padded[md_internal::kBlockSize];
  if (len > 0) std::memcpy(padded, msg, len);
  md_internal::PadOneBlock(padded, len, md_internal::kBlockSize + len);
  const __m128i bswap = BlockBswap();
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
                                           const HmacChain<5>* const* chains,
                                           uint64_t epoch, uint8_t* out) {
  // W0..W1 = t, W2 = the 0x80 pad byte, W15 = the bit length of
  // K0 ^ ipad || t.
  const __m128i block[4] = {
      _mm_set_epi32(static_cast<int>(static_cast<uint32_t>(epoch >> 32)),
                    static_cast<int>(static_cast<uint32_t>(epoch)),
                    static_cast<int>(0x80000000u), 0),
      _mm_setzero_si128(), _mm_setzero_si128(),
      _mm_set_epi32(0, 0, 0, (64 + 8) * 8)};
  MacAll(n, chains, block, out);
}

#undef SIES_SHA_NI_INLINE
#undef SIES_SHA_NI_TARGET

#endif  // SIES_SHA1_NI

}  // namespace

void CompressPortable(uint32_t state[5], const uint8_t* blocks,
                      size_t nblocks) {
  for (size_t b = 0; b < nblocks; ++b) CompressBlock(state, blocks + 64 * b);
}

void CompressShaNi(uint32_t state[5], const uint8_t* blocks, size_t nblocks) {
#if SIES_SHA1_NI
  CompressShaNiImpl(state, blocks, nblocks);
#else
  (void)state;
  (void)blocks;
  (void)nblocks;
  std::abort();  // no SHA-NI body on this architecture
#endif
}

void HmacShaNi(size_t n, const HmacChain<5>* const* chains,
               const uint8_t* msg, size_t len, uint8_t* out) {
#if SIES_SHA1_NI
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

void EpochHmacShaNi(size_t n, const HmacChain<5>* const* chains,
                    uint64_t epoch, uint8_t* out) {
#if SIES_SHA1_NI
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

}  // namespace sha1_internal

void Sha1::Reset() {
  h_ = sha1_internal::kInitState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::Update(const uint8_t* data, size_t len) {
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

void Sha1::Final(uint8_t out[kDigestSize]) {
  md_internal::Finish(compress_, h_.data(), buffer_, buffer_len_, total_len_);
  common::SecureZero(buffer_, sizeof(buffer_));
  md_internal::StoreWords(h_.data(), 5, out);
}

Bytes Sha1::Hash(const Bytes& data) {
  Sha1 hasher;
  hasher.Update(data);
  Bytes digest(kDigestSize);
  hasher.Final(digest.data());
  return digest;
}

}  // namespace sies::crypto
