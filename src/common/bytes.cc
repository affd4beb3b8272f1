#include "common/bytes.h"

#include "common/secure.h"

namespace sies {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(const uint8_t* data, size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string ToHex(const Bytes& data) { return ToHex(data.data(), data.size()); }

StatusOr<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

Status XorInto(Bytes& dst, const Bytes& src) {
  if (dst.size() != src.size()) {
    return Status::InvalidArgument("XorInto: length mismatch");
  }
  for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
  return Status::OK();
}

Bytes EncodeUint64(uint64_t v) {
  Bytes out(8);
  StoreBigEndian64(v, out.data());
  return out;
}

void SecureWipe(Bytes& data) {
  common::SecureZero(data.data(), data.size());
  data.clear();
  data.shrink_to_fit();
}

Bytes Concat(const Bytes& a, const Bytes& b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace sies
