#include "crypto/sha256x8.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/secure.h"
#include "crypto/cpu_features.h"
#include "crypto/sha256.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SIES_SHA256X8_AVX2 1
#include <immintrin.h>
#else
#define SIES_SHA256X8_AVX2 0
#endif

namespace sies::crypto {

namespace {

// One lane of the 8-wide AVX2 run. A lane starts from a given chaining
// state (the SHA-256 initial value, or an HMAC chaining value of a
// crypto::PrfKey) and enumerates its blocks without ever concatenating
// them:
//
//   [msg full blocks...] [tail: remainder + 0x80 pad + length]
//
// The tail holds the final 1-2 blocks of FIPS 180-4 padding, with the
// bit length covering the `prefix_len` bytes the start state already
// absorbed plus the message. A raw lane (a key schedule step) has no
// tail: it compresses its one block as is. Lanes in one run may have
// different block counts; a lane past its end is inactive and its state
// is left untouched (blend mask), so every digest is independent of its
// co-scheduled lanes.
struct Lane {
  const uint8_t* msg = nullptr;
  size_t full_blocks = 0;
  size_t total_blocks = 0;
  uint32_t state[8];
  uint8_t tail[128];
};

void InitLane(Lane* ln, const uint32_t start[8], uint64_t prefix_len,
              const uint8_t* msg, size_t len) {
  ln->msg = msg;
  std::memcpy(ln->state, start, sizeof(ln->state));
  ln->full_blocks = len / 64;
  const size_t rem = len % 64;
  std::memset(ln->tail, 0, sizeof(ln->tail));
  if (rem > 0) std::memcpy(ln->tail, msg + 64 * ln->full_blocks, rem);
  ln->tail[rem] = 0x80;
  const size_t tail_blocks = rem <= 55 ? 1 : 2;
  StoreBigEndian64((prefix_len + len) * 8, ln->tail + 64 * tail_blocks - 8);
  ln->total_blocks = ln->full_blocks + tail_blocks;
}

// One unpadded block from `start`: an HMAC key schedule step.
void InitRawLane(Lane* ln, const uint32_t start[8], const uint8_t* block) {
  ln->msg = block;
  std::memcpy(ln->state, start, sizeof(ln->state));
  ln->full_blocks = 1;
  ln->total_blocks = 1;
}

// An idle lane is never compressed but its state is still loaded by the
// SoA transpose, so it must be defined.
void InitIdleLane(Lane* ln) {
  ln->msg = nullptr;
  ln->full_blocks = 0;
  ln->total_blocks = 0;
  for (int j = 0; j < 8; ++j) ln->state[j] = sha256_internal::kInitState[j];
}

const uint8_t* BlockPtr(const Lane& ln, size_t b) {
  if (b < ln.full_blocks) return ln.msg + 64 * b;
  return ln.tail + 64 * (b - ln.full_blocks);
}

void ExtractDigest(const Lane& ln, uint8_t out[32]) {
  for (int j = 0; j < 8; ++j) StoreBigEndian32(ln.state[j], out + 4 * j);
}

#if SIES_SHA256X8_AVX2

constexpr uint8_t kZeroBlock[64] = {0};

// 8x8 transpose of 32-bit words: out[j] = {in[0][j], ..., in[7][j]}.
// Used both directions (it is an involution): AoS lane rows -> SoA word
// vectors on load, SoA -> AoS on state writeback.
__attribute__((target("avx2"))) inline void Transpose8x8(const __m256i in[8],
                                                         __m256i out[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(in[0], in[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(in[0], in[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(in[2], in[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(in[2], in[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(in[4], in[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(in[4], in[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(in[6], in[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(in[6], in[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  out[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  out[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  out[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  out[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  out[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  out[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  out[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  out[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

__attribute__((target("avx2"))) inline __m256i Ror(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) inline __m256i Xor3(__m256i x, __m256i y,
                                                    __m256i z) {
  return _mm256_xor_si256(_mm256_xor_si256(x, y), z);
}

// The 8-lane transform: exactly the FIPS 180-4 round schedule of
// sha256_internal::Compress with every 32-bit variable widened to a
// vector of the 8 lanes' values — bit-identical per lane by
// construction. The message words use a rolling 16-entry window.
__attribute__((target("avx2"))) void RunLanesAvx2(Lane lanes[8]) {
  size_t max_blocks = 0;
  for (int i = 0; i < 8; ++i) {
    max_blocks = std::max(max_blocks, lanes[i].total_blocks);
  }
  if (max_blocks == 0) return;

  const __m256i bswap = _mm256_setr_epi8(
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,  //
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  __m256i st[8];
  {
    __m256i rows[8];
    for (int i = 0; i < 8; ++i) {
      rows[i] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes[i].state));
    }
    Transpose8x8(rows, st);
  }

  for (size_t blk = 0; blk < max_blocks; ++blk) {
    const uint8_t* ptrs[8];
    alignas(32) uint32_t active[8];
    for (int i = 0; i < 8; ++i) {
      if (blk < lanes[i].total_blocks) {
        ptrs[i] = BlockPtr(lanes[i], blk);
        active[i] = 0xFFFFFFFFu;
      } else {
        ptrs[i] = kZeroBlock;
        active[i] = 0;
      }
    }
    const __m256i mask =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(active));

    __m256i w[16];
    {
      __m256i rows[8];
      for (int i = 0; i < 8; ++i) {
        rows[i] = _mm256_shuffle_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptrs[i])),
            bswap);
      }
      Transpose8x8(rows, w);
      for (int i = 0; i < 8; ++i) {
        rows[i] = _mm256_shuffle_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptrs[i] + 32)),
            bswap);
      }
      Transpose8x8(rows, w + 8);
    }

    __m256i a = st[0], b = st[1], c = st[2], d = st[3];
    __m256i e = st[4], f = st[5], g = st[6], h = st[7];
    for (int r = 0; r < 64; ++r) {
      __m256i wr;
      if (r < 16) {
        wr = w[r];
      } else {
        const __m256i w15 = w[(r - 15) & 15];
        const __m256i w2 = w[(r - 2) & 15];
        const __m256i s0 =
            Xor3(Ror(w15, 7), Ror(w15, 18), _mm256_srli_epi32(w15, 3));
        const __m256i s1 =
            Xor3(Ror(w2, 17), Ror(w2, 19), _mm256_srli_epi32(w2, 10));
        wr = _mm256_add_epi32(_mm256_add_epi32(w[r & 15], s0),
                              _mm256_add_epi32(w[(r - 7) & 15], s1));
        w[r & 15] = wr;
      }
      const __m256i s1e = Xor3(Ror(e, 6), Ror(e, 11), Ror(e, 25));
      const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f),
                                          _mm256_andnot_si256(e, g));
      const __m256i k = _mm256_set1_epi32(
          static_cast<int>(sha256_internal::kRoundConstants[r]));
      const __m256i t1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(h, s1e), _mm256_add_epi32(ch, k)),
          wr);
      const __m256i s0a = Xor3(Ror(a, 2), Ror(a, 13), Ror(a, 22));
      const __m256i maj = Xor3(_mm256_and_si256(a, b), _mm256_and_si256(a, c),
                               _mm256_and_si256(b, c));
      const __m256i t2 = _mm256_add_epi32(s0a, maj);
      h = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(t1, t2);
    }

    // Feed-forward, then keep the old state for lanes already finished.
    const __m256i n0 = _mm256_add_epi32(st[0], a);
    const __m256i n1 = _mm256_add_epi32(st[1], b);
    const __m256i n2 = _mm256_add_epi32(st[2], c);
    const __m256i n3 = _mm256_add_epi32(st[3], d);
    const __m256i n4 = _mm256_add_epi32(st[4], e);
    const __m256i n5 = _mm256_add_epi32(st[5], f);
    const __m256i n6 = _mm256_add_epi32(st[6], g);
    const __m256i n7 = _mm256_add_epi32(st[7], h);
    st[0] = _mm256_blendv_epi8(st[0], n0, mask);
    st[1] = _mm256_blendv_epi8(st[1], n1, mask);
    st[2] = _mm256_blendv_epi8(st[2], n2, mask);
    st[3] = _mm256_blendv_epi8(st[3], n3, mask);
    st[4] = _mm256_blendv_epi8(st[4], n4, mask);
    st[5] = _mm256_blendv_epi8(st[5], n5, mask);
    st[6] = _mm256_blendv_epi8(st[6], n6, mask);
    st[7] = _mm256_blendv_epi8(st[7], n7, mask);
  }

  __m256i rows[8];
  Transpose8x8(st, rows);
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes[i].state), rows[i]);
  }
}

#endif  // SIES_SHA256X8_AVX2

Sha256Kernel Resolve(Sha256Kernel kernel) {
  if (kernel != Sha256Kernel::kAuto) return kernel;
  if (Cpu().sha) return Sha256Kernel::kShaNi;
#if SIES_SHA256X8_AVX2
  if (Cpu().avx2) return Sha256Kernel::kAvx2;
#endif
  return Sha256Kernel::kScalar;
}

// The compression body a per-lane kernel runs.
md_internal::CompressFn LaneBody(Sha256Kernel kernel) {
  return kernel == Sha256Kernel::kShaNi ? sha256_internal::CompressShaNi
                                        : sha256_internal::CompressPortable;
}

void RunLanes(Lane lanes[8]) {
#if SIES_SHA256X8_AVX2
  RunLanesAvx2(lanes);
#else
  (void)lanes;
  std::abort();  // forced an unavailable kernel
#endif
}

void Sha256x8Impl(Sha256Kernel kernel, const ByteView msgs[8],
                  uint8_t out[8][32]) {
  kernel = Resolve(kernel);
  if (kernel != Sha256Kernel::kAvx2) {
    for (int i = 0; i < 8; ++i) {
      Sha256 hasher(LaneBody(kernel));
      hasher.Update(msgs[i].data, msgs[i].len);
      hasher.Final(out[i]);
    }
    return;
  }
  Lane lanes[8];
  for (int i = 0; i < 8; ++i) {
    InitLane(&lanes[i], sha256_internal::kInitState.data(), 0, msgs[i].data,
             msgs[i].len);
  }
  RunLanes(lanes);
  for (int i = 0; i < 8; ++i) ExtractDigest(lanes[i], out[i]);
  common::SecureZero(lanes, sizeof(lanes));
}

// One 8-wide AVX2 MAC group from HMAC-SHA256 chaining values, with
// `nlanes` live lanes (trailing lanes idle). Two lockstep passes, one
// block each for a message of at most 55 bytes: inner = H(ipad || msg)
// from chains[i]->inner, tag = H(opad || inner) from chains[i]->outer.
void Mac8(size_t nlanes, const HmacChain<8>* const chains[8],
          const ByteView* msgs, uint8_t* out) {
  uint8_t inner[8][32];
  Lane lanes[8];
  for (size_t i = 0; i < 8; ++i) {
    if (i < nlanes) {
      InitLane(&lanes[i], chains[i]->inner, 64, msgs[i].data, msgs[i].len);
    } else {
      InitIdleLane(&lanes[i]);
    }
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) ExtractDigest(lanes[i], inner[i]);

  for (size_t i = 0; i < nlanes; ++i) {
    InitLane(&lanes[i], chains[i]->outer, 64, inner[i], 32);
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) ExtractDigest(lanes[i], out + 32 * i);

  common::SecureZero(inner, sizeof(inner));
  common::SecureZero(lanes, sizeof(lanes));
}

// Schedules `nlanes` raw keys in 8-wide lanes (RFC 2104 §4): one
// lockstep pass over the K0 ^ ipad blocks and one over K0 ^ opad, each
// from the SHA-256 initial value.
void Schedule8(size_t nlanes, const ByteView* keys, HmacChain<8> chains[8]) {
  const uint32_t* init = sha256_internal::kInitState.data();
  uint8_t pads[8][64];
  Lane lanes[8];
  for (size_t i = 0; i < 8; ++i) {
    if (i >= nlanes) {
      InitIdleLane(&lanes[i]);
      continue;
    }
    hmac_internal::Sha256KeyBlock(keys[i], pads[i]);
    for (size_t j = 0; j < 64; ++j) pads[i][j] ^= 0x36;
    InitRawLane(&lanes[i], init, pads[i]);
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) {
    std::memcpy(chains[i].inner, lanes[i].state, sizeof(chains[i].inner));
    for (size_t j = 0; j < 64; ++j) pads[i][j] ^= 0x36 ^ 0x5c;
    InitRawLane(&lanes[i], init, pads[i]);
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) {
    std::memcpy(chains[i].outer, lanes[i].state, sizeof(chains[i].outer));
  }
  common::SecureZero(pads, sizeof(pads));
  common::SecureZero(lanes, sizeof(lanes));
}

void HmacBatchImpl(Sha256Kernel kernel, size_t n, const ByteView* keys,
                   const ByteView* msgs, uint8_t* out) {
  kernel = Resolve(kernel);
  if (kernel != Sha256Kernel::kAvx2) {
    const md_internal::CompressFn body = LaneBody(kernel);
    for (size_t i = 0; i < n; ++i) {
      hmac_internal::HmacSha256With(body, keys[i], msgs[i], out + 32 * i);
    }
    return;
  }
  HmacChain<8> chains[8];
  const HmacChain<8>* lane_chains[8];
  for (size_t i = 0; i < 8; ++i) lane_chains[i] = &chains[i];
  for (size_t off = 0; off < n; off += 8) {
    const size_t take = std::min<size_t>(8, n - off);
    Schedule8(take, keys + off, chains);
    Mac8(take, lane_chains, msgs + off, out + 32 * off);
  }
  common::SecureZero(chains, sizeof(chains));
}

void PrfBatchImpl(Sha256Kernel kernel, size_t n, const PrfKey* keys,
                  ByteView msg, uint8_t* out) {
  kernel = Resolve(kernel);
  if (kernel != Sha256Kernel::kAvx2) {
    const md_internal::CompressFn body = LaneBody(kernel);
    for (size_t i = 0; i < n; ++i) {
      hmac_internal::HmacSha256With(body, keys[i], msg, out + 32 * i);
    }
    return;
  }
  ByteView msgs[8];
  for (ByteView& m : msgs) m = msg;
  const HmacChain<8>* lane_chains[8];
  for (size_t off = 0; off < n; off += 8) {
    const size_t take = std::min<size_t>(8, n - off);
    for (size_t i = 0; i < take; ++i) lane_chains[i] = &keys[off + i].sha256();
    Mac8(take, lane_chains, msgs, out + 32 * off);
  }
}

}  // namespace

void Sha256x8(const ByteView msgs[8], uint8_t out[8][32]) {
  Sha256x8Impl(Sha256Kernel::kAuto, msgs, out);
}

void HmacSha256x8(const ByteView keys[8], const ByteView msgs[8],
                  uint8_t out[8][32]) {
  HmacBatchImpl(Sha256Kernel::kAuto, 8, keys, msgs, &out[0][0]);
}

void HmacSha256Batch(size_t n, const ByteView* keys, const ByteView* msgs,
                     uint8_t* out) {
  HmacBatchImpl(Sha256Kernel::kAuto, n, keys, msgs, out);
}

void PrfSha256Batch(size_t n, const PrfKey* keys, ByteView msg,
                    uint8_t* out) {
  PrfBatchImpl(Sha256Kernel::kAuto, n, keys, msg, out);
}

void EpochPrfSha256Batch(size_t n, const PrfKey* keys, uint64_t epoch,
                         uint8_t* out) {
  uint8_t enc[8];
  StoreBigEndian64(epoch, enc);
  PrfBatchImpl(Sha256Kernel::kAuto, n, keys, ByteView(enc, sizeof(enc)), out);
}

namespace sha256x8_internal {

bool KernelAvailable(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::kAuto:
    case Sha256Kernel::kScalar:
      return true;
    case Sha256Kernel::kAvx2:
#if SIES_SHA256X8_AVX2
      return CpuDetected().avx2;
#else
      return false;
#endif
    case Sha256Kernel::kShaNi:
      return CpuDetected().sha;
  }
  return false;
}

void Sha256x8WithKernel(Sha256Kernel kernel, const ByteView msgs[8],
                        uint8_t out[8][32]) {
  Sha256x8Impl(kernel, msgs, out);
}

void HmacSha256BatchWithKernel(Sha256Kernel kernel, size_t n,
                               const ByteView* keys, const ByteView* msgs,
                               uint8_t* out) {
  HmacBatchImpl(kernel, n, keys, msgs, out);
}

void PrfSha256BatchWithKernel(Sha256Kernel kernel, size_t n,
                              const PrfKey* keys, ByteView msg,
                              uint8_t* out) {
  PrfBatchImpl(kernel, n, keys, msg, out);
}

}  // namespace sha256x8_internal

}  // namespace sies::crypto
