#include "crypto/fp256.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "crypto/biguint.h"
#include "crypto/prime.h"

namespace sies::crypto {
namespace {

BigUint Hex(std::string_view s) {
  auto v = BigUint::FromHexString(s);
  EXPECT_TRUE(v.ok()) << s;
  return v.value();
}

// secp256k1 prime: 2^256 - 2^32 - 977.
constexpr std::string_view kPrimeHexA =
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
// NIST P-256 prime: close to 2^256 but with long zero runs — exercises
// different limb patterns in the Barrett constants.
constexpr std::string_view kPrimeHexB =
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";

U256 FromBig(const BigUint& x) {
  auto r = U256::FromBigUint(x);
  EXPECT_TRUE(r.ok());
  return r.value();
}

TEST(U256Test, ZeroProperties) {
  U256 z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.Low64(), 0u);
  EXPECT_TRUE(z.ToBigUint().IsZero());
  Bytes b = z.ToBytes32();
  ASSERT_EQ(b.size(), 32u);
  for (uint8_t byte : b) EXPECT_EQ(byte, 0);
}

TEST(U256Test, FromUint64RoundTrip) {
  U256 x = U256::FromUint64(0x123456789abcdef0ull);
  EXPECT_EQ(x.Low64(), 0x123456789abcdef0ull);
  EXPECT_EQ(x.BitLength(), 61u);
  EXPECT_EQ(x.ToBigUint(), BigUint(0x123456789abcdef0ull));
}

TEST(U256Test, FromBigUintRejectsWideValues) {
  BigUint wide = BigUint::Shl(BigUint(1), 256);
  EXPECT_FALSE(U256::FromBigUint(wide).ok());
  // 2^256 - 1 is the widest representable value.
  BigUint max = BigUint::Sub(wide, BigUint(1));
  auto ok = U256::FromBigUint(max);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().BitLength(), 256u);
  EXPECT_EQ(ok.value().ToBigUint(), max);
}

TEST(U256Test, BytesBigEndianMatchesBigUint) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) {
    size_t bits = 1 + rng.Next() % 256;
    BigUint x = BigUint::RandomWithBits(bits, rng);
    U256 u = FromBig(x);
    EXPECT_EQ(u.ToBytes32(), x.ToBytes(32).value());
    // Parse back from a minimal-width encoding too.
    Bytes minimal = x.ToBytes();
    EXPECT_EQ(U256::FromBytesBE(minimal.data(), minimal.size()).ToBigUint(),
              x);
  }
}

TEST(U256Test, FromBytesShortAndEmptyInputs) {
  EXPECT_TRUE(U256::FromBytesBE(nullptr, 0).IsZero());
  uint8_t one = 0x01;
  EXPECT_EQ(U256::FromBytesBE(&one, 1).Low64(), 1u);
  uint8_t nine[9] = {0x01, 0, 0, 0, 0, 0, 0, 0, 0};
  U256 x = U256::FromBytesBE(nine, 9);
  EXPECT_EQ(x.BitLength(), 65u);
  EXPECT_EQ(x.v[1], 1u);
}

TEST(U256Test, AddSubCarryBorrow) {
  U256 max;
  for (auto& limb : max.v) limb = ~0ull;
  U256 one = U256::FromUint64(1);
  U256 sum;
  EXPECT_EQ(U256::Add(max, one, &sum), 1u);  // wraps to zero with carry
  EXPECT_TRUE(sum.IsZero());
  U256 diff;
  EXPECT_EQ(U256::Sub(sum, one, &diff), 1u);  // borrows back to max
  EXPECT_EQ(diff, max);
}

TEST(U256Test, ShiftsMatchBigUint) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 200; ++i) {
    BigUint x = BigUint::RandomWithBits(1 + rng.Next() % 256, rng);
    U256 u = FromBig(x);
    size_t s = rng.Next() % 300;  // including >= 256
    BigUint shl_ref =
        BigUint::Mod(BigUint::Shl(x, s), BigUint::Shl(BigUint(1), 256))
            .value();
    EXPECT_EQ(u.Shl(s).ToBigUint(), shl_ref) << "shl " << s;
    EXPECT_EQ(u.Shr(s).ToBigUint(), BigUint::Shr(x, s)) << "shr " << s;
  }
}

TEST(U256Test, WideMulMatchesBigUint) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 500; ++i) {
    BigUint a = BigUint::RandomWithBits(1 + rng.Next() % 256, rng);
    BigUint b = BigUint::RandomWithBits(1 + rng.Next() % 256, rng);
    uint64_t prod[8];
    U256::Mul(FromBig(a), FromBig(b), prod);
    BigUint got;
    for (size_t limb = 8; limb-- > 0;) {
      got = BigUint::Add(BigUint::Shl(got, 64), BigUint(prod[limb]));
    }
    EXPECT_EQ(got, a * b);
  }
}

TEST(Fp256Test, CreateRequires256BitModulus) {
  EXPECT_FALSE(Fp256::Create(BigUint(0)).ok());
  EXPECT_FALSE(Fp256::Create(BigUint(97)).ok());
  // 255-bit and 257-bit values are both rejected.
  EXPECT_FALSE(Fp256::Create(BigUint::Shl(BigUint(1), 254)).ok());
  EXPECT_FALSE(
      Fp256::Create(BigUint::Add(BigUint::Shl(BigUint(1), 256), BigUint(1)))
          .ok());
  EXPECT_TRUE(Fp256::Create(Hex(kPrimeHexA)).ok());
}

class Fp256DifferentialTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    prime_ = Hex(GetParam());
    fp_.emplace(Fp256::Create(prime_).value());
  }

  BigUint prime_;
  std::optional<Fp256> fp_;
};

TEST_P(Fp256DifferentialTest, EdgeValuesNearP) {
  const Fp256& fp = *fp_;
  BigUint p = prime_;
  BigUint p_minus_1 = BigUint::Sub(p, BigUint(1));
  U256 up1 = FromBig(p_minus_1);

  // (p-1) + (p-1) = p - 2 mod p.
  EXPECT_EQ(fp.Add(up1, up1).ToBigUint(), BigUint::Sub(p, BigUint(2)));
  // (p-1) + 1 = 0 mod p.
  EXPECT_TRUE(fp.Add(up1, U256::FromUint64(1)).IsZero());
  // 0 - 1 = p - 1 mod p.
  EXPECT_EQ(fp.Sub(U256(), U256::FromUint64(1)).ToBigUint(), p_minus_1);
  // (p-1)^2 = 1 mod p.
  EXPECT_EQ(fp.Mul(up1, up1).ToBigUint(), BigUint(1));
  // Reduce of p and p+1 (both < 2^256 for these primes).
  EXPECT_TRUE(fp.Reduce(FromBig(p)).IsZero());
  EXPECT_EQ(fp.Reduce(FromBig(BigUint::Add(p, BigUint(1)))).ToBigUint(),
            BigUint(1));
  // Reduce of 2^256 - 1.
  BigUint max = BigUint::Sub(BigUint::Shl(BigUint(1), 256), BigUint(1));
  EXPECT_EQ(fp.Reduce(FromBig(max)).ToBigUint(),
            BigUint::Mod(max, p).value());
  // ReduceWide of the all-ones 512-bit value.
  uint64_t wide[8];
  for (auto& limb : wide) limb = ~0ull;
  BigUint max512 = BigUint::Sub(BigUint::Shl(BigUint(1), 512), BigUint(1));
  EXPECT_EQ(fp.ReduceWide(wide).ToBigUint(),
            BigUint::Mod(max512, p).value());
}

TEST_P(Fp256DifferentialTest, RandomizedAgainstBigUint) {
  const Fp256& fp = *fp_;
  const BigUint& p = prime_;
  Xoshiro256 rng(991);
  BigUint two_256 = BigUint::Shl(BigUint(1), 256);

  for (int i = 0; i < 10000; ++i) {
    BigUint a_big, b_big;
    switch (i % 5) {
      case 0:  // uniform below p
        a_big = BigUint::RandomBelow(p, rng);
        b_big = BigUint::RandomBelow(p, rng);
        break;
      case 1: {  // just below p
        uint64_t da = rng.Next() % 4 + 1, db = rng.Next() % 4 + 1;
        a_big = BigUint::Sub(p, BigUint(da));
        b_big = BigUint::Sub(p, BigUint(db));
        break;
      }
      case 2:  // tiny operands
        a_big = BigUint(rng.Next() % 7);
        b_big = BigUint(rng.Next() % 7);
        break;
      case 3:  // mixed widths
        a_big = BigUint::Mod(BigUint::RandomWithBits(1 + rng.Next() % 256,
                                                     rng),
                             p)
                    .value();
        b_big = BigUint::RandomBelow(p, rng);
        break;
      default:  // skewed small/large
        a_big = BigUint::RandomBelow(BigUint(1u << 20), rng);
        b_big = BigUint::Sub(p, BigUint(1 + rng.Next() % 1000));
        break;
    }
    U256 a = FromBig(a_big), b = FromBig(b_big);

    EXPECT_EQ(fp.Add(a, b).ToBigUint(),
              BigUint::ModAdd(a_big, b_big, p).value());
    EXPECT_EQ(fp.Sub(a, b).ToBigUint(),
              BigUint::ModSub(a_big, b_big, p).value());
    EXPECT_EQ(fp.Mul(a, b).ToBigUint(),
              BigUint::ModMul(a_big, b_big, p).value());

    // Reduce over the full 256-bit range, including values >= p.
    BigUint r_big = BigUint::RandomBelow(two_256, rng);
    EXPECT_EQ(fp.Reduce(FromBig(r_big)).ToBigUint(),
              BigUint::Mod(r_big, p).value());

    // Inverse is the cold path; sample it at 1/20 density.
    if (i % 20 == 0 && !a_big.IsZero()) {
      auto inv = fp.Inverse(a);
      ASSERT_TRUE(inv.ok());
      EXPECT_EQ(inv.value().ToBigUint(),
                BigUint::ModInverse(a_big, p).value());
      EXPECT_EQ(fp.Mul(a, inv.value()).ToBigUint(), BigUint(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Primes, Fp256DifferentialTest,
                         ::testing::Values(std::string(kPrimeHexA),
                                           std::string(kPrimeHexB)));

TEST(Fp256Test, InverseOfZeroFails) {
  Fp256 fp = Fp256::Create(Hex(kPrimeHexA)).value();
  EXPECT_FALSE(fp.Inverse(U256()).ok());
}

// The two fixed primes above are both close to 2^256; the parameter
// generator's primes are not. Mul over freshly generated 256-bit primes
// (the protocol's own MakeParams path) must equal BigUint::ModMul too.
void MulMatchesBigUintOverGeneratedPrime(uint64_t prime_seed,
                                         uint64_t rng_seed) {
  Xoshiro256 prime_rng(prime_seed);
  const BigUint prime = GeneratePrime(256, prime_rng);
  auto fp = Fp256::Create(prime);
  ASSERT_TRUE(fp.ok()) << fp.status().message();

  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < 2000; ++i) {
    U256 a, b;
    for (uint64_t& limb : a.v) limb = rng.Next();
    for (uint64_t& limb : b.v) limb = rng.Next();
    a = fp.value().Reduce(a);
    b = fp.value().Reduce(b);
    auto big = BigUint::ModMul(a.ToBigUint(), b.ToBigUint(), prime);
    ASSERT_TRUE(big.ok());
    ASSERT_EQ(fp.value().Mul(a, b).ToBigUint(), big.value()) << "i=" << i;
  }
}

TEST(Fp256Test, MulMatchesBigUintOverGeneratedPrimeA) {
  MulMatchesBigUintOverGeneratedPrime(/*prime_seed=*/0xADC5'0001,
                                      /*rng_seed=*/0x1);
}

TEST(Fp256Test, MulMatchesBigUintOverGeneratedPrimeB) {
  MulMatchesBigUintOverGeneratedPrime(/*prime_seed=*/0xADC5'0002,
                                      /*rng_seed=*/0x2);
}

// Every pairing of the carry-chain edge operands 0, 1, 2^64 - 1 and
// p - 1, against BigUint::ModMul.
TEST(Fp256Test, MulEdgeOperandsMatchBigUint) {
  Xoshiro256 prime_rng(0xADC5'0003);
  const BigUint prime = GeneratePrime(256, prime_rng);
  auto fp = Fp256::Create(prime);
  ASSERT_TRUE(fp.ok());

  U256 p_minus_1;
  U256::Sub(fp.value().prime_u256(), U256::FromUint64(1), &p_minus_1);
  const U256 cases[] = {U256::FromUint64(0), U256::FromUint64(1),
                        U256::FromUint64(~0ull), p_minus_1};
  for (const U256& a : cases) {
    for (const U256& b : cases) {
      EXPECT_EQ(fp.value().Mul(a, b).ToBigUint(),
                BigUint::ModMul(a.ToBigUint(), b.ToBigUint(), prime).value());
    }
  }
}

}  // namespace
}  // namespace sies::crypto
