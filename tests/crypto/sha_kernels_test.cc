// Pins the SHA compression bodies to each other and to published
// vectors, kernel by kernel:
//
//   - Compression-level differential: the SHA-NI body of SHA-1 and of
//     SHA-256 against its portable reference over 10^4 random blocks
//     (random chaining states, 1-4 blocks per call).
//   - FIPS 180 (SHA), RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256)
//     vectors, plus every streaming length 0-130 (the padding boundaries
//     55/56/63/64/119/120 included), under every forced kernel this
//     machine can run — expected values from Python hashlib/hmac.
//   - The heap-free PRFs (EpochPrfSha*Into, HmacSha*Into) equal the
//     Bytes API, keys longer than a block included.
//   - Dispatch: the process-wide body follows crypto::Cpu().
//
// Also registered as a `_portable` twin under SIES_NATIVE=scalar, where
// the dispatched bodies are the portable ones.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sies::crypto {
namespace {

Bytes Ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

// The deterministic byte pattern the pinned digests were generated over.
Bytes Pattern(size_t n, unsigned mul = 37, unsigned add = 11) {
  Bytes m(n);
  for (size_t i = 0; i < n; ++i) m[i] = static_cast<uint8_t>(mul * i + add);
  return m;
}

struct Kernel {
  const char* name;
  md_internal::CompressFn sha1;
  md_internal::CompressFn sha256;
};

std::vector<Kernel> AvailableKernels() {
  std::vector<Kernel> kernels = {{"portable", sha1_internal::CompressPortable,
                                  sha256_internal::CompressPortable}};
  if (CpuDetected().sha) {
    kernels.push_back(
        {"sha_ni", sha1_internal::CompressShaNi, sha256_internal::CompressShaNi});
  }
  return kernels;
}

Bytes Sha1With(const Kernel& k, const Bytes& msg) {
  Sha1 h(k.sha1);
  h.Update(msg);
  Bytes d(Sha1::kDigestSize);
  h.Final(d.data());
  return d;
}

Bytes Sha256With(const Kernel& k, const Bytes& msg) {
  Sha256 h(k.sha256);
  h.Update(msg);
  Bytes d(Sha256::kDigestSize);
  h.Final(d.data());
  return d;
}

Bytes HmacSha1With(const Kernel& k, const Bytes& key, const Bytes& msg) {
  Bytes tag(20);
  hmac_internal::HmacSha1With(k.sha1, key, msg, tag.data());
  return tag;
}

Bytes HmacSha256With(const Kernel& k, const Bytes& key, const Bytes& msg) {
  Bytes tag(32);
  hmac_internal::HmacSha256With(k.sha256, key, msg, tag.data());
  return tag;
}

// --- compression-level differential ---------------------------------------

template <size_t kWords>
void CompressDifferential(md_internal::CompressFn portable,
                          md_internal::CompressFn sha_ni, uint64_t seed) {
  Xoshiro256 rng(seed);
  size_t blocks_done = 0;
  int call = 0;
  while (blocks_done < 10'000) {
    const size_t nblocks = 1 + rng.NextBelow(4);
    const Bytes blocks = rng.NextBytes(64 * nblocks);
    uint32_t a[kWords], b[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      a[i] = b[i] = static_cast<uint32_t>(rng.Next());
    }
    portable(a, blocks.data(), nblocks);
    sha_ni(b, blocks.data(), nblocks);
    for (size_t i = 0; i < kWords; ++i) {
      ASSERT_EQ(a[i], b[i]) << "call=" << call << " nblocks=" << nblocks
                            << " word=" << i;
    }
    blocks_done += nblocks;
    ++call;
  }
}

TEST(ShaNiCompress, Sha1MatchesPortableOverTenThousandBlocks) {
  if (!CpuDetected().sha) GTEST_SKIP() << "no SHA extensions on this CPU";
  CompressDifferential<5>(sha1_internal::CompressPortable,
                          sha1_internal::CompressShaNi, 0x5a1'0001);
}

TEST(ShaNiCompress, Sha256MatchesPortableOverTenThousandBlocks) {
  if (!CpuDetected().sha) GTEST_SKIP() << "no SHA extensions on this CPU";
  CompressDifferential<8>(sha256_internal::CompressPortable,
                          sha256_internal::CompressShaNi, 0x5a2'0001);
}

// --- dispatch ---------------------------------------------------------------

TEST(ShaDispatch, ProcessBodyFollowsCpu) {
  EXPECT_EQ(sha1_internal::Compress(), Cpu().sha
                                           ? sha1_internal::CompressShaNi
                                           : sha1_internal::CompressPortable);
  EXPECT_EQ(sha256_internal::Compress(),
            Cpu().sha ? sha256_internal::CompressShaNi
                      : sha256_internal::CompressPortable);
  // SIES_NATIVE can only take features away.
  if (Cpu().sha) {
    EXPECT_TRUE(CpuDetected().sha);
  }
}

// --- published vectors under every forced kernel -----------------------------

TEST(ShaKernelKat, Fips180) {
  const std::string two_block =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(ToHex(Sha1With(k, {})),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(ToHex(Sha1With(k, Ascii("abc"))),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(ToHex(Sha1With(k, Ascii(two_block))),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
    EXPECT_EQ(ToHex(Sha1With(k, Bytes(1000000, 'a'))),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    EXPECT_EQ(
        ToHex(Sha256With(k, {})),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        ToHex(Sha256With(k, Ascii("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        ToHex(Sha256With(k, Ascii(two_block))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(
        ToHex(Sha256With(k, Bytes(1000000, 'a'))),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(ShaKernelKat, Rfc2202HmacSha1) {
  Bytes key4(25);
  for (size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<uint8_t>(i + 1);
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(ToHex(HmacSha1With(k, Bytes(20, 0x0b), Ascii("Hi There"))),
              "b617318655057264e28bc0b6fb378c8ef146be00");
    EXPECT_EQ(ToHex(HmacSha1With(k, Ascii("Jefe"),
                                 Ascii("what do ya want for nothing?"))),
              "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    EXPECT_EQ(ToHex(HmacSha1With(k, Bytes(20, 0xaa), Bytes(50, 0xdd))),
              "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    EXPECT_EQ(ToHex(HmacSha1With(k, key4, Bytes(50, 0xcd))),
              "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
    EXPECT_EQ(ToHex(HmacSha1With(
                  k, Bytes(80, 0xaa),
                  Ascii("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
              "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    EXPECT_EQ(ToHex(HmacSha1With(
                  k, Bytes(80, 0xaa),
                  Ascii("Test Using Larger Than Block-Size Key and Larger "
                        "Than One Block-Size Data"))),
              "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
  }
}

TEST(ShaKernelKat, Rfc4231HmacSha256) {
  Bytes key4(25);
  for (size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<uint8_t>(i + 1);
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(
        ToHex(HmacSha256With(k, Bytes(20, 0x0b), Ascii("Hi There"))),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(
        ToHex(HmacSha256With(k, Ascii("Jefe"),
                             Ascii("what do ya want for nothing?"))),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(
        ToHex(HmacSha256With(k, Bytes(20, 0xaa), Bytes(50, 0xdd))),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    EXPECT_EQ(
        ToHex(HmacSha256With(k, key4, Bytes(50, 0xcd))),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    EXPECT_EQ(
        ToHex(HmacSha256With(
            k, Bytes(131, 0xaa),
            Ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    EXPECT_EQ(
        ToHex(HmacSha256With(
            k, Bytes(131, 0xaa),
            Ascii("This is a test using a larger than block-size key and a "
                  "larger than block-size data. The key needs to be hashed "
                  "before being used by the HMAC algorithm."))),
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  }
}

// Every message length 0..130 — one and two final blocks, the 55/56,
// 63/64 and 119/120 padding boundaries — hashed three ways (one Update,
// byte at a time, split at every padding boundary) that must agree;
// the digests, concatenated, hash to a value pinned by Python hashlib.
template <typename Hasher>
Bytes StreamDigest(md_internal::CompressFn body, const Bytes& msg,
                   size_t split) {
  Hasher h(body);
  h.Update(msg.data(), split);
  h.Update(msg.data() + split, msg.size() - split);
  Bytes d(Hasher::kDigestSize);
  h.Final(d.data());
  return d;
}

template <typename Hasher>
Bytes ByteAtATimeDigest(md_internal::CompressFn body, const Bytes& msg) {
  Hasher h(body);
  for (uint8_t b : msg) h.Update(&b, 1);
  Bytes d(Hasher::kDigestSize);
  h.Final(d.data());
  return d;
}

template <typename Hasher>
std::string StreamingLengthsDigest(md_internal::CompressFn body) {
  Bytes all;
  for (size_t len = 0; len <= 130; ++len) {
    const Bytes msg = Pattern(len);
    const Bytes ref = StreamDigest<Hasher>(body, msg, 0);
    EXPECT_EQ(ByteAtATimeDigest<Hasher>(body, msg), ref) << "len=" << len;
    for (size_t split : {1, 55, 56, 63, 64, 65, 119, 120}) {
      if (split > len) break;
      EXPECT_EQ(StreamDigest<Hasher>(body, msg, split), ref)
          << "len=" << len << " split=" << split;
    }
    all.insert(all.end(), ref.begin(), ref.end());
  }
  return ToHex(StreamDigest<Hasher>(body, all, 0));
}

TEST(ShaKernelKat, StreamingLengthsZeroTo130) {
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(StreamingLengthsDigest<Sha1>(k.sha1),
              "e692b3bd0a527de7772c57da8e1b06fc2894026c");
    EXPECT_EQ(StreamingLengthsDigest<Sha256>(k.sha256),
              "cec4c6d09a19510a15db5bcadc0491d8921c4ac138b9237e9b623d4c0998fb45");
  }
}

// HMAC over message lengths 0..130 and key lengths around the block
// size (0, 1, 20, 63, 64, 65, 131), tags concatenated and hashed.
TEST(ShaKernelKat, HmacLengthsZeroTo130) {
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    Bytes all1, all256;
    for (size_t klen : {0, 1, 20, 63, 64, 65, 131}) {
      const Bytes key = Pattern(klen, 13, 7);
      for (size_t len = 0; len <= 130; ++len) {
        const Bytes msg = Pattern(len);
        const Bytes t1 = HmacSha1With(k, key, msg);
        const Bytes t256 = HmacSha256With(k, key, msg);
        all1.insert(all1.end(), t1.begin(), t1.end());
        all256.insert(all256.end(), t256.begin(), t256.end());
      }
    }
    EXPECT_EQ(ToHex(Sha1With(k, all1)),
              "5c5eaaf058100636e183f2685a66947f8afe78ec");
    EXPECT_EQ(
        ToHex(Sha256With(k, all256)),
        "af7b33e73360e60e80af4a514cad61abf82f86cb253eb896a6e94730dce52686");
  }
}

// --- heap-free PRFs == Bytes API ---------------------------------------------

TEST(HeapFreePrf, MatchesBytesApiIncludingLongKeys) {
  Xoshiro256 rng(0x5a3'0001);
  for (size_t klen = 0; klen <= 200; klen += 7) {
    const Bytes key = rng.NextBytes(klen);
    const Bytes msg = rng.NextBytes(rng.NextBelow(150));
    const uint64_t epoch = rng.Next();
    uint8_t out1[20], out256[32];

    EpochPrfSha1Into(key, epoch, out1);
    EXPECT_EQ(Bytes(out1, out1 + 20), EpochPrfSha1(key, epoch))
        << "klen=" << klen;
    EpochPrfSha256Into(key, epoch, out256);
    EXPECT_EQ(Bytes(out256, out256 + 32), EpochPrfSha256(key, epoch))
        << "klen=" << klen;

    HmacSha1Into(key, msg, out1);
    EXPECT_EQ(Bytes(out1, out1 + 20), HmacSha1(key, msg)) << "klen=" << klen;
    HmacSha256Into(key, msg, out256);
    EXPECT_EQ(Bytes(out256, out256 + 32), HmacSha256(key, msg))
        << "klen=" << klen;

    // The epoch PRF is HMAC over the 8-byte big-endian epoch.
    EXPECT_EQ(EpochPrfSha256(key, epoch), HmacSha256(key, EncodeUint64(epoch)));
  }
}

// The dispatched Bytes API equals the portable reference body.
TEST(HeapFreePrf, DispatchedEqualsPortable) {
  const Kernel portable = AvailableKernels().front();
  Xoshiro256 rng(0x5a3'0002);
  for (int i = 0; i < 500; ++i) {
    const Bytes key = rng.NextBytes(rng.NextBelow(140));
    const Bytes msg = rng.NextBytes(rng.NextBelow(140));
    ASSERT_EQ(HmacSha1(key, msg), HmacSha1With(portable, key, msg)) << i;
    ASSERT_EQ(HmacSha256(key, msg), HmacSha256With(portable, key, msg)) << i;
  }
}

}  // namespace
}  // namespace sies::crypto
