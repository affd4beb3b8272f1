// SHA-1 (FIPS 180-4), implemented from scratch.
//
// SIES uses HMAC-SHA1 ("HM1") as the PRF that derives 20-byte secret
// shares and CMT's per-epoch keys; SECOA uses it for inflation
// certificates. SHA-1 is cryptographically broken for collision
// resistance but is retained here to reproduce the paper's exact sizes
// and costs (20-byte digests).
#ifndef SIES_CRYPTO_SHA1_H_
#define SIES_CRYPTO_SHA1_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/md_internal.h"

namespace sies::crypto {

template <size_t kWords>
struct HmacChain;  // crypto/hmac.h

namespace sha1_internal {

/// Initial hash value H(0) (FIPS 180-4 §5.3.1).
extern const std::array<uint32_t, 5> kInitState;

/// The SHA-1 compression function over `nblocks` consecutive 64-byte
/// blocks. Two bodies compute it bit-identically: the portable C++
/// reference, and the SHA-NI body (x86 SHA extensions; only callable
/// when crypto::CpuDetected().sha). Pinned against each other by
/// tests/crypto/sha_kernels_test.cc.
void CompressPortable(uint32_t state[5], const uint8_t* blocks,
                      size_t nblocks);
void CompressShaNi(uint32_t state[5], const uint8_t* blocks, size_t nblocks);

/// The body this process runs, chosen once from crypto::Cpu(): SHA-NI
/// where the CPU has it and SIES_NATIVE allows it, portable otherwise.
md_internal::CompressFn Compress();

/// The SHA-NI HMAC lane kernel (only callable when
/// crypto::CpuDetected().sha): tag i = HMAC-SHA1 of one message of at
/// most md_internal::kMaxOneBlockTail bytes from the key schedule
/// `*chains[i]`, written at `out + 20 * i`, for i < n. Same shape as
/// sha256_internal::HmacShaNi: two lanes at a time over one shared
/// padded inner block, inner digests handed to the outer compressions in
/// registers; EpochHmacShaNi builds the epoch's block in registers.
void HmacShaNi(size_t n, const HmacChain<5>* const* chains,
               const uint8_t* msg, size_t len, uint8_t* out);
void EpochHmacShaNi(size_t n, const HmacChain<5>* const* chains,
                    uint64_t epoch, uint8_t* out);

}  // namespace sha1_internal

/// Streaming SHA-1 hasher.
class Sha1 {
 public:
  /// Digest size in bytes.
  static constexpr size_t kDigestSize = 20;
  /// Internal block size in bytes (needed by HMAC).
  static constexpr size_t kBlockSize = 64;

  Sha1() : Sha1(sha1_internal::Compress()) {}
  /// Test hook: a hasher pinned to one compression body.
  explicit Sha1(md_internal::CompressFn compress) : compress_(compress) {
    Reset();
  }

  /// Resets to the initial state.
  void Reset();
  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  /// Absorbs a byte string.
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  /// Finalizes (padding in one pass) and writes the 20-byte digest. The
  /// buffered tail is wiped; the object must be Reset() before reuse.
  void Final(uint8_t out[kDigestSize]);

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);

 private:
  md_internal::CompressFn compress_;
  std::array<uint32_t, 5> h_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_SHA1_H_
