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

// One lane of the 8-wide AVX2 run. A lane's padded message is
// enumerated as a virtual block sequence without ever concatenating it:
//
//   [prefix?] [msg full blocks...] [tail: remainder + 0x80 pad + length]
//
// `prefix` is the HMAC ipad/opad block (exactly 64 bytes when set); the
// tail holds the final 1-2 blocks of FIPS 180-4 padding, with the bit
// length covering prefix + message. Lanes in one run may have different
// block counts; a lane past its end is inactive and its state is left
// untouched (blend mask), so every digest is independent of its
// co-scheduled lanes.
struct Lane {
  const uint8_t* msg = nullptr;
  size_t msg_len = 0;
  const uint8_t* prefix = nullptr;
  size_t full_blocks = 0;
  size_t total_blocks = 0;
  uint32_t state[8];
  uint8_t tail[128];
};

void InitLane(Lane* ln, const uint8_t* prefix, const uint8_t* msg,
              size_t len) {
  ln->prefix = prefix;
  ln->msg = msg;
  ln->msg_len = len;
  for (int j = 0; j < 8; ++j) ln->state[j] = sha256_internal::kInitState[j];
  const size_t prefix_blocks = prefix != nullptr ? 1 : 0;
  ln->full_blocks = len / 64;
  const size_t rem = len % 64;
  std::memset(ln->tail, 0, sizeof(ln->tail));
  if (rem > 0) std::memcpy(ln->tail, msg + 64 * ln->full_blocks, rem);
  ln->tail[rem] = 0x80;
  const size_t tail_blocks = rem <= 55 ? 1 : 2;
  StoreBigEndian64((64 * prefix_blocks + len) * 8,
                   ln->tail + 64 * tail_blocks - 8);
  ln->total_blocks = prefix_blocks + ln->full_blocks + tail_blocks;
}

// An idle lane is never compressed but its state is still loaded by the
// SoA transpose, so it must be defined.
void InitIdleLane(Lane* ln) {
  ln->msg = nullptr;
  ln->msg_len = 0;
  ln->prefix = nullptr;
  ln->full_blocks = 0;
  ln->total_blocks = 0;
  for (int j = 0; j < 8; ++j) ln->state[j] = sha256_internal::kInitState[j];
  std::memset(ln->tail, 0, sizeof(ln->tail));
}

const uint8_t* BlockPtr(const Lane& ln, size_t b) {
  if (ln.prefix != nullptr) {
    if (b == 0) return ln.prefix;
    --b;
  }
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
    InitLane(&lanes[i], nullptr, msgs[i].data, msgs[i].len);
  }
  RunLanes(lanes);
  for (int i = 0; i < 8; ++i) ExtractDigest(lanes[i], out[i]);
  common::SecureZero(lanes, sizeof(lanes));
}

// One 8-wide AVX2 HMAC group with `nlanes` live pairs (trailing lanes
// idle). Two lockstep passes: inner = H(ipad || msg), outer = H(opad ||
// inner).
void Hmac8(size_t nlanes, const ByteView* keys, const ByteView* msgs,
           uint8_t* out) {
  uint8_t pads[8][128];  // [i]: ipad block at +0, opad block at +64
  uint8_t inner[8][32];
  Lane lanes[8];
  for (size_t i = 0; i < 8; ++i) {
    if (i >= nlanes) {
      InitIdleLane(&lanes[i]);
      continue;
    }
    uint8_t kblock[64] = {0};
    if (keys[i].len > 64) {
      Sha256 hasher;
      hasher.Update(keys[i].data, keys[i].len);
      hasher.Final(kblock);  // 32-byte digest, rest stays zero
    } else if (keys[i].len > 0) {
      std::memcpy(kblock, keys[i].data, keys[i].len);
    }
    for (size_t j = 0; j < 64; ++j) {
      pads[i][j] = static_cast<uint8_t>(kblock[j] ^ 0x36);
      pads[i][64 + j] = static_cast<uint8_t>(kblock[j] ^ 0x5c);
    }
    common::SecureZero(kblock, sizeof(kblock));
    InitLane(&lanes[i], pads[i], msgs[i].data, msgs[i].len);
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) ExtractDigest(lanes[i], inner[i]);

  for (size_t i = 0; i < 8; ++i) {
    if (i < nlanes) {
      InitLane(&lanes[i], pads[i] + 64, inner[i], 32);
    } else {
      InitIdleLane(&lanes[i]);
    }
  }
  RunLanes(lanes);
  for (size_t i = 0; i < nlanes; ++i) ExtractDigest(lanes[i], out + 32 * i);

  common::SecureZero(pads, sizeof(pads));
  common::SecureZero(inner, sizeof(inner));
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
  for (size_t off = 0; off < n; off += 8) {
    const size_t take = std::min<size_t>(8, n - off);
    Hmac8(take, keys + off, msgs + off, out + 32 * off);
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

void EpochPrfSha256Batch(size_t n, const ByteView* keys, uint64_t epoch,
                         uint8_t* out) {
  uint8_t enc[8];
  StoreBigEndian64(epoch, enc);
  const ByteView epoch_view(enc, sizeof(enc));
  ByteView msgs[8];
  for (ByteView& m : msgs) m = epoch_view;
  for (size_t off = 0; off < n; off += 8) {
    const size_t take = std::min<size_t>(8, n - off);
    HmacBatchImpl(Sha256Kernel::kAuto, take, keys + off, msgs, out + 32 * off);
  }
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

}  // namespace sha256x8_internal

}  // namespace sies::crypto
