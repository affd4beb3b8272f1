#include "sies/message_format.h"

#include <gtest/gtest.h>

#include <set>

namespace sies::core {
namespace {

class MessageFormatTest : public ::testing::Test {
 protected:
  MessageFormatTest() : params_(MakeParams(16, /*seed=*/1).value()) {}
  Params params_;
};

TEST_F(MessageFormatTest, PackUnpackRoundTrip) {
  crypto::BigUint share =
      crypto::BigUint::FromHexString("0123456789abcdef0123456789abcdef01234567")
          .value();
  auto m = PackMessage(params_, 424242, share).value();
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 424242u);
  EXPECT_EQ(unpacked.share_sum, share);
}

TEST_F(MessageFormatTest, ZeroValueAndShare) {
  auto m = PackMessage(params_, 0, crypto::BigUint()).value();
  EXPECT_TRUE(m.IsZero());
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 0u);
  EXPECT_TRUE(unpacked.share_sum.IsZero());
}

TEST_F(MessageFormatTest, ValueFieldBounds) {
  crypto::BigUint share(1);
  EXPECT_TRUE(PackMessage(params_, 0xffffffffu, share).ok());
  EXPECT_FALSE(PackMessage(params_, 0x100000000ull, share).ok());
}

TEST_F(MessageFormatTest, ShareFieldBounds) {
  crypto::BigUint max_share =
      crypto::BigUint::Sub(crypto::BigUint::Shl(crypto::BigUint(1), 160),
                           crypto::BigUint(1));
  EXPECT_TRUE(PackMessage(params_, 1, max_share).ok());
  crypto::BigUint too_big = crypto::BigUint::Shl(crypto::BigUint(1), 160);
  EXPECT_FALSE(PackMessage(params_, 1, too_big).ok());
}

TEST_F(MessageFormatTest, SummedSharesCarryIntoPad) {
  // N=16 shares of the maximal 160-bit value overflow into the 4 pad
  // bits but must NOT touch the value field (paper Figure 2/3).
  crypto::BigUint max_share =
      crypto::BigUint::Sub(crypto::BigUint::Shl(crypto::BigUint(1), 160),
                           crypto::BigUint(1));
  crypto::BigUint total;
  crypto::BigUint share_total;
  for (int i = 0; i < 16; ++i) {
    total = crypto::BigUint::Add(total,
                                 PackMessage(params_, 1000, max_share).value());
    share_total = crypto::BigUint::Add(share_total, max_share);
  }
  auto unpacked = UnpackMessage(params_, total).value();
  EXPECT_EQ(unpacked.sum, 16000u);
  EXPECT_EQ(unpacked.share_sum, share_total);
}

TEST_F(MessageFormatTest, ValueFieldOverflowDetected) {
  // A summed message whose value field exceeds 4 bytes must be reported.
  crypto::BigUint huge = crypto::BigUint::Shl(
      crypto::BigUint(0x1ffffffffull), params_.ValueShiftBits());
  EXPECT_FALSE(UnpackMessage(params_, huge).ok());
}

TEST_F(MessageFormatTest, EncryptDecryptRoundTrip) {
  const crypto::PrfKey global_key(Bytes(20, 1));
  const crypto::PrfKey source_key(Bytes(20, 2));
  crypto::BigUint kt = DeriveEpochGlobalKey(params_, global_key, 7);
  crypto::BigUint ki = DeriveEpochSourceKey(params_, source_key, 7);
  auto m =
      PackMessage(params_, 1234, DeriveEpochShare(source_key, 7)).value();
  auto c = Encrypt(params_, m, kt, ki).value();
  EXPECT_NE(c, m);
  EXPECT_EQ(Decrypt(params_, c, kt, ki).value(), m);
}

TEST_F(MessageFormatTest, EncryptRejectsOversizedMessage) {
  EXPECT_FALSE(
      Encrypt(params_, params_.prime, crypto::BigUint(3), crypto::BigUint(5))
          .ok());
}

TEST_F(MessageFormatTest, HomomorphicSumOfTwo) {
  crypto::BigUint kt =
      DeriveEpochGlobalKey(params_, crypto::PrfKey(Bytes(20, 1)), 3);
  crypto::BigUint k1 =
      DeriveEpochSourceKey(params_, crypto::PrfKey(Bytes(20, 2)), 3);
  crypto::BigUint k2 =
      DeriveEpochSourceKey(params_, crypto::PrfKey(Bytes(20, 3)), 3);
  auto m1 = PackMessage(params_, 100, crypto::BigUint(11)).value();
  auto m2 = PackMessage(params_, 250, crypto::BigUint(22)).value();
  auto c1 = Encrypt(params_, m1, kt, k1).value();
  auto c2 = Encrypt(params_, m2, kt, k2).value();
  auto c = crypto::BigUint::ModAdd(c1, c2, params_.prime).value();
  auto key_sum = crypto::BigUint::ModAdd(k1, k2, params_.prime).value();
  auto m = Decrypt(params_, c, kt, key_sum).value();
  auto unpacked = UnpackMessage(params_, m).value();
  EXPECT_EQ(unpacked.sum, 350u);
  EXPECT_EQ(unpacked.share_sum, crypto::BigUint(33));
}

TEST_F(MessageFormatTest, SerializePsrFixedWidth) {
  auto c = crypto::BigUint(42);
  auto psr = SerializePsr(params_, c).value();
  EXPECT_EQ(psr.size(), params_.PsrBytes());
  EXPECT_EQ(ParsePsr(params_, psr).value(), c);
}

TEST_F(MessageFormatTest, ParsePsrRejectsWrongWidth) {
  Bytes short_psr(params_.PsrBytes() - 1, 0);
  EXPECT_FALSE(ParsePsr(params_, short_psr).ok());
  Bytes long_psr(params_.PsrBytes() + 1, 0);
  EXPECT_FALSE(ParsePsr(params_, long_psr).ok());
}

TEST_F(MessageFormatTest, ParsePsrRejectsNonResidue) {
  auto over = params_.prime.ToBytes(params_.PsrBytes()).value();
  EXPECT_FALSE(ParsePsr(params_, over).ok());
}

TEST_F(MessageFormatTest, CiphertextLooksUniform) {
  // Encrypting the same value under different epochs should give
  // ciphertexts with no obvious structure (confidentiality smoke test).
  const crypto::PrfKey global_key(Bytes(20, 1));
  const crypto::PrfKey key(Bytes(20, 0x55));
  std::set<std::string> seen;
  for (uint64_t epoch = 0; epoch < 50; ++epoch) {
    crypto::BigUint kt = DeriveEpochGlobalKey(params_, global_key, epoch);
    crypto::BigUint ki = DeriveEpochSourceKey(params_, key, epoch);
    auto m = PackMessage(params_, 42, DeriveEpochShare(key, epoch)).value();
    auto c = Encrypt(params_, m, kt, ki).value();
    EXPECT_TRUE(seen.insert(c.ToHexString()).second)
        << "ciphertext repeated across epochs";
  }
}

// Exhaustive bijection check on a tiny prime: for fixed K != 0 and any k,
// m -> K*m + k mod p is a bijection, so a ciphertext reveals nothing
// about m without k (Theorem 1's information-theoretic core).
TEST(OneTimePadPropertyTest, EncryptionIsBijectionOverZp) {
  const uint64_t p = 257;
  for (uint64_t big_k : {1ull, 2ull, 100ull, 256ull}) {
    for (uint64_t k : {0ull, 1ull, 77ull, 200ull}) {
      std::set<uint64_t> images;
      for (uint64_t m = 0; m < p; ++m) {
        images.insert((big_k * m + k) % p);
      }
      EXPECT_EQ(images.size(), p) << "K=" << big_k << " k=" << k;
    }
  }
}

// For a FIXED ciphertext c and every candidate key k, there is exactly
// one plaintext: all plaintexts are equally consistent with c.
TEST(OneTimePadPropertyTest, EveryPlaintextEquallyLikelyGivenCiphertext) {
  const uint64_t p = 101;
  const uint64_t big_k = 37;
  const uint64_t c = 55;
  std::set<uint64_t> plaintexts;
  for (uint64_t k = 0; k < p; ++k) {
    // m = (c - k) * K^{-1} mod p
    auto inv = crypto::BigUint::ModInverse(crypto::BigUint(big_k),
                                           crypto::BigUint(p))
                   .value()
                   .Low64();
    uint64_t m = ((c + p - k) % p) * inv % p;
    plaintexts.insert(m);
  }
  EXPECT_EQ(plaintexts.size(), p);
}

}  // namespace
}  // namespace sies::core
