#include "sies/provisioning.h"

#include <cstring>

#include "crypto/prime.h"
#include "crypto/secure_bytes.h"
#include "crypto/sha256.h"

namespace sies::core {

namespace {

constexpr char kDeploymentMagic[8] = {'S', 'I', 'E', 'S', 'D', 'E', 'P', '1'};
constexpr char kSourceMagic[8] = {'S', 'I', 'E', 'S', 'S', 'R', 'C', '1'};
constexpr char kAggregatorMagic[8] = {'S', 'I', 'E', 'S', 'A', 'G', 'G', '1'};

void AppendMagic(Bytes& out, const char magic[8]) {
  out.insert(out.end(), magic, magic + 8);
}

void AppendU32(Bytes& out, uint32_t v) {
  out.resize(out.size() + 4);
  StoreBigEndian32(v, out.data() + out.size() - 4);
}

void AppendLengthPrefixed(Bytes& out, const Bytes& data) {
  AppendU32(out, static_cast<uint32_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

// Cursor-based reader with bounds checking.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

  Status ExpectMagic(const char magic[8]) {
    // Record-type magic is public framing, not secret material.
    if (data_.size() < offset_ + 8 ||
        std::memcmp(data_.data() + offset_, magic, 8) != 0) {  // lint:allow(ct-compare)
      return Status::InvalidArgument("bad magic / wrong record type");
    }
    offset_ += 8;
    return Status::OK();
  }

  StatusOr<uint32_t> ReadU32() {
    if (data_.size() < offset_ + 4) {
      return Status::InvalidArgument("truncated record");
    }
    uint32_t v = LoadBigEndian32(data_.data() + offset_);
    offset_ += 4;
    return v;
  }

  StatusOr<Bytes> ReadLengthPrefixed(size_t max_len = 1 << 20) {
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    if (len.value() > max_len || data_.size() < offset_ + len.value()) {
      return Status::InvalidArgument("truncated or oversized field");
    }
    Bytes out(data_.begin() + offset_, data_.begin() + offset_ + len.value());
    offset_ += len.value();
    return out;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }

 private:
  const Bytes& data_;
  size_t offset_ = 0;
};

// Appends params fields (shared by all three record types).
Status AppendParams(Bytes& out, const Params& params) {
  SIES_RETURN_IF_ERROR(params.Validate());
  AppendU32(out, params.num_sources);
  AppendU32(out, static_cast<uint32_t>(params.value_bytes));
  AppendU32(out, static_cast<uint32_t>(params.pad_bits));
  AppendU32(out, params.share_prf == SharePrf::kHmacSha1 ? 0 : 1);
  AppendLengthPrefixed(out, params.prime.ToBytes());
  return Status::OK();
}

StatusOr<Params> ReadParams(Reader& reader) {
  Params params;
  auto n = reader.ReadU32();
  if (!n.ok()) return n.status();
  params.num_sources = n.value();
  auto vb = reader.ReadU32();
  if (!vb.ok()) return vb.status();
  params.value_bytes = vb.value();
  auto pb = reader.ReadU32();
  if (!pb.ok()) return pb.status();
  params.pad_bits = pb.value();
  auto prf = reader.ReadU32();
  if (!prf.ok()) return prf.status();
  if (prf.value() > 1) {
    return Status::InvalidArgument("unknown share PRF id");
  }
  params.share_prf =
      prf.value() == 0 ? SharePrf::kHmacSha1 : SharePrf::kHmacSha256;
  params.share_bytes = prf.value() == 0 ? 20 : 32;
  auto prime = reader.ReadLengthPrefixed();
  if (!prime.ok()) return prime.status();
  params.prime = crypto::BigUint::FromBytes(prime.value());
  SIES_RETURN_IF_ERROR(params.Validate());
  // Validate checks the layout only. A composite modulus would leave K_t
  // without an inverse, so a file naming one is rejected here, before any
  // party computes with it. (MakeParams draws a prime and skips this.)
  Xoshiro256 rng(0x5349455350524d31ull);
  if (!crypto::IsProbablePrime(params.prime, rng)) {
    return Status::InvalidArgument("modulus is not prime");
  }
  return params;
}

// Appends the SHA-256 checksum of everything currently in `out`.
void SealChecksum(Bytes& out) {
  Bytes digest = crypto::Sha256::Hash(out);
  out.insert(out.end(), digest.begin(), digest.end());
}

// Splits payload+checksum, verifies, returns the payload view length.
StatusOr<size_t> CheckChecksum(const Bytes& blob) {
  if (blob.size() < crypto::Sha256::kDigestSize + 8) {
    return Status::InvalidArgument("record too short");
  }
  size_t payload_len = blob.size() - crypto::Sha256::kDigestSize;
  // The payload copy duplicates the key blob; wipe it on every exit.
  crypto::SecureBytes payload(Bytes(blob.begin(), blob.begin() + payload_len));
  Bytes expected = crypto::Sha256::Hash(payload);
  Bytes actual(blob.begin() + payload_len, blob.end());
  if (!ConstantTimeEqual(expected, actual)) {
    return Status::VerificationFailed("record checksum mismatch");
  }
  return payload_len;
}

}  // namespace

StatusOr<Bytes> SerializeDeployment(const Deployment& deployment) {
  if (deployment.keys.source_keys.size() != deployment.params.num_sources) {
    return Status::InvalidArgument("key count does not match num_sources");
  }
  Bytes out;
  AppendMagic(out, kDeploymentMagic);
  SIES_RETURN_IF_ERROR(AppendParams(out, deployment.params));
  AppendLengthPrefixed(out, deployment.keys.global_key);
  for (const Bytes& key : deployment.keys.source_keys) {
    AppendLengthPrefixed(out, key);
  }
  SealChecksum(out);
  return out;
}

StatusOr<Deployment> ParseDeployment(const Bytes& blob) {
  auto payload_len = CheckChecksum(blob);
  if (!payload_len.ok()) return payload_len.status();
  crypto::SecureBytes payload(
      Bytes(blob.begin(), blob.begin() + payload_len.value()));
  Reader reader(payload);
  SIES_RETURN_IF_ERROR(reader.ExpectMagic(kDeploymentMagic));
  Deployment deployment;
  auto params = ReadParams(reader);
  if (!params.ok()) return params.status();
  deployment.params = std::move(params).value();
  auto global = reader.ReadLengthPrefixed();
  if (!global.ok()) return global.status();
  deployment.keys.global_key = std::move(global).value();
  deployment.keys.source_keys.reserve(deployment.params.num_sources);
  for (uint32_t i = 0; i < deployment.params.num_sources; ++i) {
    auto key = reader.ReadLengthPrefixed();
    if (!key.ok()) return key.status();
    deployment.keys.source_keys.push_back(std::move(key).value());
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in deployment record");
  }
  return deployment;
}

StatusOr<Bytes> SerializeSourceRegistration(const Deployment& deployment,
                                            uint32_t index) {
  auto keys = KeysForSource(deployment.keys, index);
  if (!keys.ok()) return keys.status();
  Bytes out;
  AppendMagic(out, kSourceMagic);
  SIES_RETURN_IF_ERROR(AppendParams(out, deployment.params));
  AppendU32(out, index);
  AppendLengthPrefixed(out, keys.value().global_key);
  AppendLengthPrefixed(out, keys.value().source_key);
  SealChecksum(out);
  return out;
}

StatusOr<SourceRegistration> ParseSourceRegistration(const Bytes& blob) {
  auto payload_len = CheckChecksum(blob);
  if (!payload_len.ok()) return payload_len.status();
  crypto::SecureBytes payload(
      Bytes(blob.begin(), blob.begin() + payload_len.value()));
  Reader reader(payload);
  SIES_RETURN_IF_ERROR(reader.ExpectMagic(kSourceMagic));
  SourceRegistration reg;
  auto params = ReadParams(reader);
  if (!params.ok()) return params.status();
  reg.params = std::move(params).value();
  auto index = reader.ReadU32();
  if (!index.ok()) return index.status();
  reg.index = index.value();
  if (reg.index >= reg.params.num_sources) {
    return Status::InvalidArgument("source index out of range");
  }
  auto global = reader.ReadLengthPrefixed();
  if (!global.ok()) return global.status();
  reg.keys.global_key = std::move(global).value();
  auto source = reader.ReadLengthPrefixed();
  if (!source.ok()) return source.status();
  reg.keys.source_key = std::move(source).value();
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in registration record");
  }
  return reg;
}

StatusOr<Bytes> SerializeAggregatorRecord(const Params& params) {
  Bytes out;
  AppendMagic(out, kAggregatorMagic);
  SIES_RETURN_IF_ERROR(AppendParams(out, params));
  SealChecksum(out);
  return out;
}

StatusOr<Params> ParseAggregatorRecord(const Bytes& blob) {
  auto payload_len = CheckChecksum(blob);
  if (!payload_len.ok()) return payload_len.status();
  crypto::SecureBytes payload(
      Bytes(blob.begin(), blob.begin() + payload_len.value()));
  Reader reader(payload);
  SIES_RETURN_IF_ERROR(reader.ExpectMagic(kAggregatorMagic));
  auto params = ReadParams(reader);
  if (!params.ok()) return params.status();
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in aggregator record");
  }
  return params;
}

}  // namespace sies::core
