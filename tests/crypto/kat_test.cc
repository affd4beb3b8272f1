// Known-answer tests pinning the crypto primitives to published vectors:
//   - SHA-1 / SHA-256: FIPS 180 examples ("abc", empty, two-block message,
//     one million 'a's).
//   - HMAC-SHA1: RFC 2202 test cases (short key, "Jefe", 0xaa/0xdd blocks,
//     larger-than-block-size key).
//   - HMAC-SHA256: RFC 4231 test cases 1-3, 6, 7, and a ragged eight-pair
//     HmacSha256Batch pinned to Python hmac/hashlib digests.
//   - HMAC_DRBG(SHA-256): SP 800-90A process vectors cross-checked against
//     an independent reference implementation (Python hashlib/hmac; see
//     the generation recipe in docs/DEVELOPING.md).
//
// Any deviation here means the whole security argument is off: the epoch
// keys K_t / k_{i,t}, shares, and µTESLA MACs all derive from these
// primitives.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace sies::crypto {
namespace {

Bytes FromAscii(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

Bytes Repeat(uint8_t value, size_t n) { return Bytes(n, value); }

std::string Hex(const Bytes& b) { return ToHex(b); }

// --- SHA-1 (FIPS 180-4 examples) ---

TEST(KatSha1, Fips180Examples) {
  EXPECT_EQ(Hex(Sha1::Hash(FromAscii(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Hex(Sha1::Hash(FromAscii("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Hex(Sha1::Hash(FromAscii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(KatSha1, MillionA) {
  EXPECT_EQ(Hex(Sha1::Hash(Bytes(1000000, 'a'))),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// --- SHA-256 (FIPS 180-4 examples) ---

TEST(KatSha256, Fips180Examples) {
  EXPECT_EQ(Hex(Sha256::Hash(FromAscii(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Hex(Sha256::Hash(FromAscii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Hex(Sha256::Hash(FromAscii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(KatSha256, MillionA) {
  EXPECT_EQ(Hex(Sha256::Hash(Bytes(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Unaligned and multi-block lengths straddling the 64-byte block and the
// 56-byte padding boundary (55 pads in one block, 56 needs a second).
// Messages are the deterministic pattern byte (37 i + 11) mod 256;
// expected digests generated with Python hashlib (docs/DEVELOPING.md).
TEST(KatSha256, UnalignedAndMultiBlockLengths) {
  auto pattern = [](size_t n) {
    Bytes m(n);
    for (size_t i = 0; i < n; ++i) m[i] = static_cast<uint8_t>(37 * i + 11);
    return m;
  };
  const struct {
    size_t len;
    const char* hex;
  } kCases[] = {
      {55, "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384"},
      {56, "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674"},
      {63, "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1"},
      {64, "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e"},
      {65, "fc518669b6eb4b4dd91827ecacef86689c725bd5bab888fd3b26dbb196eec954"},
      {119, "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae"},
      {128, "0aedd4856f8eba0963627336ad5144a9a7dbe12498e6066f0165fc97d8ddee4c"},
      {1000,
       "57799de80e3dd6e2ac4d40c41a150d1662f7f87d0d994776a2fdc37c39b0ea4e"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Hex(Sha256::Hash(pattern(c.len))), c.hex) << "len=" << c.len;
  }
}

// --- HMAC-SHA1 (RFC 2202) ---

TEST(KatHmacSha1, Rfc2202) {
  // Case 1: 20-byte 0x0b key.
  EXPECT_EQ(Hex(HmacSha1(Repeat(0x0b, 20), FromAscii("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  // Case 2: ASCII key shorter than the digest.
  EXPECT_EQ(Hex(HmacSha1(FromAscii("Jefe"),
                         FromAscii("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  // Case 3: 0xaa key, fifty 0xdd bytes.
  EXPECT_EQ(Hex(HmacSha1(Repeat(0xaa, 20), Repeat(0xdd, 50))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(KatHmacSha1, Rfc2202LongKey) {
  // Cases 6 and 7: 80-byte key exercises the hash-the-key branch.
  EXPECT_EQ(
      Hex(HmacSha1(
          Repeat(0xaa, 80),
          FromAscii("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "aa4ae5e15272d00e95705637ce8a3b55ed402112");
  EXPECT_EQ(Hex(HmacSha1(Repeat(0xaa, 80),
                         FromAscii("Test Using Larger Than Block-Size Key "
                                   "and Larger Than One Block-Size Data"))),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

// --- HMAC-SHA256 (RFC 4231) ---

TEST(KatHmacSha256, Rfc4231) {
  // Case 1.
  EXPECT_EQ(Hex(HmacSha256(Repeat(0x0b, 20), FromAscii("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Case 2.
  EXPECT_EQ(Hex(HmacSha256(FromAscii("Jefe"),
                           FromAscii("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Case 3.
  EXPECT_EQ(Hex(HmacSha256(Repeat(0xaa, 20), Repeat(0xdd, 50))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(KatHmacSha256, Rfc4231LongKey) {
  // Cases 6 and 7: 131-byte key exercises the hash-the-key branch.
  EXPECT_EQ(
      Hex(HmacSha256(
          Repeat(0xaa, 131),
          FromAscii("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(
      Hex(HmacSha256(
          Repeat(0xaa, 131),
          FromAscii("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// --- HMAC-SHA256 batch KAT (crypto/hmac.h) ---
//
// Eight (key, message) pairs of different key and message lengths (the
// ragged case), pinned to independently generated digests (Python
// hmac/hashlib) AND to the scalar one-shot implementation: through
// HmacSha256Batch, and pair by pair through every compression body this
// machine can run.

TEST(KatHmacSha256x8, RaggedLanesPinnedDigests) {
  // Key lengths cross the hash-the-key branch (> 64) and the exact-block
  // case (64); expected values generated with Python hmac/hashlib.
  const size_t lens[8] = {0, 1, 55, 56, 63, 64, 65, 200};
  const size_t klens[8] = {1, 20, 32, 63, 64, 65, 100, 131};
  const char* kExpected[8] = {
      "2f8738164025afdddbc18665c6e8f37de9498db7fd194873c61ee30c22192a9a",
      "f4227183e92b2902f8d9315be19ec191ef4d6cfdbc7258fbb1c28e4303bb818d",
      "9374a0c6f952b33b5ebdf80d6d0e39f6229eea1ae4264614e2d5023a962a5d65",
      "68a770890a721bf3df5e0d8a382161d5b154006923fa49ea8af97e4f758f857f",
      "38be7333b04eb8d4d425b594b1b0ea9c32b91822f6dee16ff4b89df4fed3ccad",
      "e6db75a0626e1457b0e8d148bec88c6d4fab63be7cebf2b8907149c832f0edf2",
      "2dc1c3cd435727ca089297ce0a29b0d24cb7f8457e2f6d843a1864377f0b0dca",
      "d785cee71ecaebf282bb31774255a8fada96d5d4c92f7c9ac61f72cc18f0588f",
  };
  Bytes keys[8], msgs[8];
  ByteView kviews[8], mviews[8];
  for (int i = 0; i < 8; ++i) {
    keys[i].resize(klens[i]);
    for (size_t j = 0; j < klens[i]; ++j) {
      keys[i][j] = static_cast<uint8_t>(i * 7 + j + 1);
    }
    msgs[i].resize(lens[i]);
    for (size_t j = 0; j < lens[i]; ++j) {
      msgs[i][j] = static_cast<uint8_t>(i * 31 + j);
    }
    kviews[i] = ByteView(keys[i]);
    mviews[i] = ByteView(msgs[i]);
  }
  uint8_t out[8 * 32];
  HmacSha256Batch(8, kviews, mviews, out);
  for (int i = 0; i < 8; ++i) {
    Bytes tag(out + 32 * i, out + 32 * (i + 1));
    EXPECT_EQ(Hex(tag), kExpected[i]) << "batch lane=" << i;
    EXPECT_EQ(Hex(tag), Hex(HmacSha256(keys[i], msgs[i])))
        << "batch lane=" << i;
  }
  std::vector<md_internal::CompressFn> bodies = {
      sha256_internal::CompressPortable};
  if (CpuDetected().sha) bodies.push_back(sha256_internal::CompressShaNi);
  for (md_internal::CompressFn body : bodies) {
    for (int i = 0; i < 8; ++i) {
      uint8_t tag[32];
      hmac_internal::HmacSha256With(body, kviews[i], mviews[i], tag);
      EXPECT_EQ(Hex(Bytes(tag, tag + 32)), kExpected[i])
          << "body="
          << (body == sha256_internal::CompressShaNi ? "sha_ni" : "portable")
          << " lane=" << i;
    }
  }
}

// --- HMAC_DRBG with SHA-256 (SP 800-90A process vectors) ---

TEST(KatHmacDrbg, InstantiateAndGenerate) {
  // Seed = 32 incrementing bytes, no personalization; two sequential
  // 32-byte generates (the second pins the post-generate state update).
  Bytes seed(32);
  for (size_t i = 0; i < seed.size(); ++i) seed[i] = static_cast<uint8_t>(i);
  HmacDrbg drbg(seed);
  EXPECT_EQ(Hex(drbg.Generate(32)),
            "3226437dd9f98b17591aad731383303213439f64d029a5764e84e36256ddeb79");
  EXPECT_EQ(Hex(drbg.Generate(32)),
            "68ddf0df052af113ad632143c8039de47a598a6186f18fd474eac12f1dece475");
}

TEST(KatHmacDrbg, Personalization) {
  // Personalization string is concatenated into the seed material; a
  // 48-byte request exercises the multi-block generate loop.
  HmacDrbg drbg(FromAscii("sies-drbg-entropy-0123456789abcd"),
                FromAscii("sies-personalization"));
  EXPECT_EQ(Hex(drbg.Generate(48)),
            "29d6d46bc07be8eab1a70ee2640ffa808084ffa923179da34f723b92e49a92f6"
            "5c110213499a0701180d412e243ae073");
}

TEST(KatHmacDrbg, Reseed) {
  Bytes seed(32);
  for (size_t i = 0; i < seed.size(); ++i) seed[i] = static_cast<uint8_t>(i);
  HmacDrbg drbg(seed);
  drbg.Generate(16);
  drbg.Reseed(FromAscii("fresh-entropy"));
  EXPECT_EQ(Hex(drbg.Generate(32)),
            "ebdb0f5205c69e2417104db2e2683c70eac8af05819e813c5b02ec9d6887933a");
}

}  // namespace
}  // namespace sies::crypto
