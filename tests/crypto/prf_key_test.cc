// The HMAC key schedule (crypto::PrfKey, RFC 2104 §4) against an HMAC
// built from the streaming hashers, which share no code with it:
//
//   - RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256) vectors from a
//     schedule, under every compression body this machine can run;
//   - random keys of 0, 1, 20, 63, 64, 65 and 131 bytes (longer than a
//     block: hashed first) with every message length 0-130, the one-block
//     path (<= 55 bytes) and the multi-block one both covered: the MAC
//     from a schedule equals the reference and the one-shot HMAC;
//   - a schedule built by one body MACs identically under the other;
//   - secret hygiene: 104 bytes, and wiped by its destructor (also inside
//     a vector) and on every move.
//
// Also registered as a `_portable` twin under SIES_NATIVE=scalar, where
// the dispatched bodies are the portable ones.
#include <cstring>
#include <new>
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

// RFC 2104 spelled out over a streaming hasher: H((K0 ^ opad) ||
// H((K0 ^ ipad) || message)).
template <typename Hasher>
Bytes ReferenceHmac(md_internal::CompressFn body, const Bytes& key,
                    const Bytes& message) {
  Bytes k0(md_internal::kBlockSize, 0);
  if (key.size() > k0.size()) {
    Hasher h(body);
    h.Update(key);
    h.Final(k0.data());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }
  Bytes ipad(k0), opad(k0);
  for (uint8_t& b : ipad) b ^= 0x36;
  for (uint8_t& b : opad) b ^= 0x5c;
  Bytes inner(Hasher::kDigestSize), tag(Hasher::kDigestSize);
  Hasher h(body);
  h.Update(ipad);
  h.Update(message);
  h.Final(inner.data());
  Hasher outer(body);
  outer.Update(opad);
  outer.Update(inner);
  outer.Final(tag.data());
  return tag;
}

Bytes Sha1From(const Kernel& k, const PrfKey& key, const Bytes& msg) {
  Bytes tag(20);
  hmac_internal::HmacSha1With(k.sha1, key, msg, tag.data());
  return tag;
}

Bytes Sha256From(const Kernel& k, const PrfKey& key, const Bytes& msg) {
  Bytes tag(32);
  hmac_internal::HmacSha256With(k.sha256, key, msg, tag.data());
  return tag;
}

PrfKey ScheduleWith(const Kernel& k, const Bytes& key) {
  return hmac_internal::ScheduleWith(k.sha1, k.sha256, key);
}

TEST(PrfKey, Rfc2202AndRfc4231FromSchedule) {
  Bytes key4(25);
  for (size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<uint8_t>(i + 1);
  const std::string long_key_msg =
      "Test Using Larger Than Block-Size Key - Hash Key First";
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    const PrfKey k0b = ScheduleWith(k, Bytes(20, 0x0b));
    const PrfKey jefe = ScheduleWith(k, Ascii("Jefe"));
    const PrfKey kaa = ScheduleWith(k, Bytes(20, 0xaa));
    const PrfKey k4 = ScheduleWith(k, key4);
    EXPECT_EQ(ToHex(Sha1From(k, k0b, Ascii("Hi There"))),
              "b617318655057264e28bc0b6fb378c8ef146be00");
    EXPECT_EQ(ToHex(Sha1From(k, jefe, Ascii("what do ya want for nothing?"))),
              "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    EXPECT_EQ(ToHex(Sha1From(k, kaa, Bytes(50, 0xdd))),
              "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    EXPECT_EQ(ToHex(Sha1From(k, k4, Bytes(50, 0xcd))),
              "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
    EXPECT_EQ(ToHex(Sha1From(k, ScheduleWith(k, Bytes(80, 0xaa)),
                             Ascii(long_key_msg))),
              "aa4ae5e15272d00e95705637ce8a3b55ed402112");

    EXPECT_EQ(
        ToHex(Sha256From(k, k0b, Ascii("Hi There"))),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(
        ToHex(Sha256From(k, jefe, Ascii("what do ya want for nothing?"))),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(
        ToHex(Sha256From(k, kaa, Bytes(50, 0xdd))),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    EXPECT_EQ(
        ToHex(Sha256From(k, k4, Bytes(50, 0xcd))),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    const PrfKey k131 = ScheduleWith(k, Bytes(131, 0xaa));
    EXPECT_EQ(
        ToHex(Sha256From(k, k131, Ascii(long_key_msg))),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    EXPECT_EQ(
        ToHex(Sha256From(
            k, k131,
            Ascii("This is a test using a larger than block-size key and a "
                  "larger than block-size data. The key needs to be hashed "
                  "before being used by the HMAC algorithm."))),
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  }
}

TEST(PrfKey, RandomKeysAndMessagesMatchReferenceAndOneShot) {
  Xoshiro256 rng(0x5a4'0001);
  for (const Kernel& k : AvailableKernels()) {
    SCOPED_TRACE(k.name);
    for (size_t klen : {0, 1, 20, 63, 64, 65, 131}) {
      const Bytes key = rng.NextBytes(klen);
      const PrfKey scheduled = ScheduleWith(k, key);
      for (size_t len = 0; len <= 130; ++len) {
        const Bytes msg = rng.NextBytes(len);
        const Bytes ref1 = ReferenceHmac<Sha1>(k.sha1, key, msg);
        const Bytes ref256 = ReferenceHmac<Sha256>(k.sha256, key, msg);
        ASSERT_EQ(Sha1From(k, scheduled, msg), ref1)
            << "klen=" << klen << " len=" << len;
        ASSERT_EQ(Sha256From(k, scheduled, msg), ref256)
            << "klen=" << klen << " len=" << len;

        Bytes oneshot1(20), oneshot256(32);
        hmac_internal::HmacSha1With(k.sha1, key, msg, oneshot1.data());
        hmac_internal::HmacSha256With(k.sha256, key, msg, oneshot256.data());
        ASSERT_EQ(oneshot1, ref1) << "klen=" << klen << " len=" << len;
        ASSERT_EQ(oneshot256, ref256) << "klen=" << klen << " len=" << len;
      }
    }
  }
}

// The dispatched entry points: a PrfKey built by the process's body and
// the public *Into / EpochPrf*Into overloads equal the Bytes API.
TEST(PrfKey, DispatchedEntryPointsMatchOneShot) {
  Xoshiro256 rng(0x5a4'0002);
  for (size_t klen : {0, 1, 20, 63, 64, 65, 131}) {
    const Bytes key = rng.NextBytes(klen);
    const PrfKey scheduled(key);
    const Bytes msg = rng.NextBytes(rng.NextBelow(131));
    const uint64_t epoch = rng.Next();
    uint8_t out1[20], out256[32];
    HmacSha1Into(scheduled, msg, out1);
    EXPECT_EQ(Bytes(out1, out1 + 20), HmacSha1(key, msg)) << "klen=" << klen;
    HmacSha256Into(scheduled, msg, out256);
    EXPECT_EQ(Bytes(out256, out256 + 32), HmacSha256(key, msg))
        << "klen=" << klen;
    EpochPrfSha1Into(scheduled, epoch, out1);
    EXPECT_EQ(Bytes(out1, out1 + 20), EpochPrfSha1(key, epoch))
        << "klen=" << klen;
    EpochPrfSha256Into(scheduled, epoch, out256);
    EXPECT_EQ(Bytes(out256, out256 + 32), EpochPrfSha256(key, epoch))
        << "klen=" << klen;
  }
}

// Chaining values are the hash's, not the body's: a schedule built by
// one body MACs identically under every other.
TEST(PrfKey, SchedulesAreBodyIndependent) {
  const std::vector<Kernel> kernels = AvailableKernels();
  Xoshiro256 rng(0x5a4'0003);
  for (size_t klen : {0, 20, 65}) {
    const Bytes key = rng.NextBytes(klen);
    const Bytes msg = rng.NextBytes(40);
    for (const Kernel& build : kernels) {
      const PrfKey scheduled = ScheduleWith(build, key);
      for (const Kernel& mac : kernels) {
        EXPECT_EQ(Sha1From(mac, scheduled, msg),
                  Sha1From(kernels.front(), ScheduleWith(kernels.front(), key),
                           msg))
            << build.name << " -> " << mac.name;
        EXPECT_EQ(Sha256From(mac, scheduled, msg),
                  Sha256From(kernels.front(),
                             ScheduleWith(kernels.front(), key), msg))
            << build.name << " -> " << mac.name;
      }
    }
  }
}

bool AllZero(const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    if (b[i] != 0) return false;
  }
  return true;
}

TEST(PrfKeyHygiene, SizeIsTheFourChainingValues) {
  static_assert(sizeof(PrfKey) == 104, "SHA-1 + SHA-256 inner/outer");
  const PrfKey key(Bytes(20, 0x42));
  EXPECT_FALSE(AllZero(&key, sizeof(key)));
}

TEST(PrfKeyHygiene, DestructorWipes) {
  alignas(PrfKey) unsigned char storage[sizeof(PrfKey)];
  auto* key = new (storage) PrfKey(Bytes(20, 0x42));
  ASSERT_FALSE(AllZero(storage, sizeof(storage)));
  key->~PrfKey();
  EXPECT_TRUE(AllZero(storage, sizeof(storage)));
}

TEST(PrfKeyHygiene, MoveWipesTheSource) {
  alignas(PrfKey) unsigned char storage[sizeof(PrfKey)];
  auto* from = new (storage) PrfKey(Bytes(20, 0x42));
  const PrfKey copy(*from);
  const PrfKey moved(std::move(*from));
  EXPECT_TRUE(AllZero(storage, sizeof(storage)));
  EXPECT_EQ(std::memcmp(&copy, &moved, sizeof(PrfKey)), 0);
  from->~PrfKey();

  auto* assigned_from = new (storage) PrfKey(Bytes(20, 0x43));
  PrfKey target(Bytes(20, 0x44));
  target = std::move(*assigned_from);
  EXPECT_TRUE(AllZero(storage, sizeof(storage)));
  EXPECT_FALSE(AllZero(&target, sizeof(target)));
  assigned_from->~PrfKey();
}

// A vector's relocation moves each schedule and destroys the old one, so
// no stale copy survives in the freed block; clear() wipes in place.
TEST(PrfKeyHygiene, VectorElementsAreWipedInPlace) {
  std::vector<PrfKey> keys;
  keys.reserve(4);
  for (int i = 0; i < 4; ++i) keys.emplace_back(Bytes(20, 0x10 + i));
  const PrfKey* data = keys.data();
  const size_t bytes = keys.size() * sizeof(PrfKey);
  keys.clear();  // destroys in place; the capacity is still owned
  EXPECT_TRUE(AllZero(data, bytes));
}

}  // namespace
}  // namespace sies::crypto
