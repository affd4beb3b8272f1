// SHA-256 (FIPS 180-4), implemented from scratch.
//
// SIES uses HMAC-SHA256 ("HM256") as the PRF that derives the 32-byte
// temporal keys K_t and k_{i,t}; the μTesla substrate uses it for its
// one-way key chain.
#ifndef SIES_CRYPTO_SHA256_H_
#define SIES_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/md_internal.h"

namespace sies::crypto {

template <size_t kWords>
struct HmacChain;  // crypto/hmac.h

namespace sha256_internal {

/// Initial hash value H(0) (FIPS 180-4 §5.3.3).
extern const std::array<uint32_t, 8> kInitState;

/// The SHA-256 compression function over `nblocks` consecutive 64-byte
/// blocks. Two bodies compute it bit-identically: the portable C++
/// reference, and the SHA-NI body (x86 SHA extensions; only callable
/// when crypto::CpuDetected().sha). Pinned against each other by
/// tests/crypto/sha_kernels_test.cc.
void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t nblocks);
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

/// The body this process runs, chosen once from crypto::Cpu(): SHA-NI
/// where the CPU has it and SIES_NATIVE allows it, portable otherwise.
/// Every SHA-256 in the library — streaming, and every HMAC, single or
/// batched — compresses through it.
md_internal::CompressFn Compress();

/// The SHA-NI HMAC lane kernel (only callable when
/// crypto::CpuDetected().sha): tag i = HMAC-SHA256 of one message of at
/// most md_internal::kMaxOneBlockTail bytes from the key schedule
/// `*chains[i]`, written at `out + 32 * i`, for i < n. Two lanes run at
/// a time (the last alone when n is odd) over one shared padded inner
/// block; each inner digest reaches its outer compression in registers,
/// so only the tags leave them. EpochHmacShaNi's message is the 8-byte
/// big-endian epoch t, built as message words in registers. The library
/// runs it wherever it runs the SHA-NI body on such a message
/// (crypto/hmac.h).
void HmacShaNi(size_t n, const HmacChain<8>* const* chains,
               const uint8_t* msg, size_t len, uint8_t* out);
void EpochHmacShaNi(size_t n, const HmacChain<8>* const* chains,
                    uint64_t epoch, uint8_t* out);

}  // namespace sha256_internal

/// Streaming SHA-256 hasher.
class Sha256 {
 public:
  /// Digest size in bytes.
  static constexpr size_t kDigestSize = 32;
  /// Internal block size in bytes (needed by HMAC).
  static constexpr size_t kBlockSize = 64;

  Sha256() : Sha256(sha256_internal::Compress()) {}
  /// Test hook: a hasher pinned to one compression body.
  explicit Sha256(md_internal::CompressFn compress) : compress_(compress) {
    Reset();
  }

  /// Resets to the initial state.
  void Reset();
  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  /// Absorbs a byte string.
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  /// Finalizes (padding in one pass) and writes the 32-byte digest. The
  /// buffered tail is wiped; the object must be Reset() before reuse.
  void Final(uint8_t out[kDigestSize]);

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);

 private:
  md_internal::CompressFn compress_;
  std::array<uint32_t, 8> h_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_SHA256_H_
