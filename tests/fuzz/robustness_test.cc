// Randomized robustness ("poor man's fuzzing"): every wire-format parser
// and verifier in the library is fed random and mutated inputs. The
// invariants: no crash, no false acceptance, errors not aborts.
//
// The CorpusReplay* tests additionally replay the committed fuzz corpora
// and minimized regressions from fuzz/ (path injected as SIES_FUZZ_DIR),
// so the seeds that once broke a parser keep running in the plain unit
// suite — not only under the dedicated `fuzz`-label replay binaries.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/flags.h"
#include "ops/request_parser.h"

#include "cmt/cmt.h"
#include "common/rng.h"
#include "net/datagram.h"
#include "net/udp_transport.h"
#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "mht/merkle_tree.h"
#include "engine/query_spec.h"
#include "mutesla/mutesla.h"
#include "predicate/dyadic.h"
#include "secoa/secoa_max.h"
#include "secoa/secoa_sum.h"
#include "sies/message_format.h"
#include "sies/provisioning.h"
#include "sies/querier.h"

namespace sies {
namespace {

constexpr int kTrials = 200;

// Loads every committed input for one harness: seed corpus plus the
// minimized regressions fuzzing has filed (or only the `kinds` asked
// for). Fails the suite if nothing was found — the corpora are
// load-bearing test data, not an optional extra.
std::vector<Bytes> LoadFuzzInputs(
    const std::string& harness,
    std::initializer_list<const char*> kinds = {"corpus", "regressions"}) {
  std::vector<Bytes> inputs;
  for (const char* kind : kinds) {
    const std::filesystem::path dir =
        std::filesystem::path(SIES_FUZZ_DIR) / kind / harness;
    if (!std::filesystem::is_directory(dir)) continue;
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          entry.path().filename().string()[0] != '.') {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::ifstream in(file, std::ios::binary);
      inputs.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  }
  EXPECT_FALSE(inputs.empty()) << "no committed inputs for " << harness;
  return inputs;
}

std::string AsText(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST(CorpusReplayTest, WireEnvelope) {
  // Mirrors fuzz/wire_envelope_fuzz.cc: byte 0 selects the plan width
  // and the sender's range in a 300-source tree, the rest is the frame.
  auto params = core::MakeParams(300, 1).value();
  const net::SourceRange ranges[4] = {{0, 300}, {40, 140}, {37, 49}, {5, 6}};
  auto parse = [&](const Bytes& input, Bytes& wire) {
    wire.assign(input.begin() + 1, input.end());
    return core::ParseWireEnvelope(params, ranges[(input[0] >> 3) & 0x03u],
                                   wire, input[0] & 0x07u);
  };
  Bytes wire;
  for (const Bytes& input : LoadFuzzInputs("wire_envelope")) {
    if (input.empty()) continue;
    auto parsed = parse(input, wire);
    if (!parsed.ok()) continue;
    EXPECT_EQ(parsed.value().body.size(),
              (input[0] & 0x07u) * params.PsrBytes());
    EXPECT_EQ(core::SerializeWirePayload(parsed.value().contributors,
                                         parsed.value().body),
              wire);
  }
  // Every filed regression is a non-canonical contributor field and
  // must stay rejected.
  for (const Bytes& input : LoadFuzzInputs("wire_envelope", {"regressions"})) {
    ASSERT_FALSE(input.empty());
    EXPECT_FALSE(parse(input, wire).ok()) << ToHex(input);
  }
}

TEST(CorpusReplayTest, Datagram) {
  for (const Bytes& input : LoadFuzzInputs("datagram")) {
    auto parsed = net::ParseDatagramFrame(input.data(), input.size());
    if (parsed.ok()) {
      EXPECT_EQ(net::SerializeDatagramFrame(parsed.value()), input);
    }
  }
}

TEST(CorpusReplayTest, QuerySpec) {
  for (const Bytes& input : LoadFuzzInputs("query_spec")) {
    const std::string text = AsText(input);
    auto single = engine::ParseQuerySpec(text);
    if (single.ok() && single.value().band.has_value()) {
      EXPECT_LE(single.value().band->lo, single.value().band->hi) << text;
    }
    (void)engine::ParseQueriesText(text);
  }
  // The minimized non-finite-number regressions must stay REJECTED:
  // before the fix, `id nan` cast NaN to uint32_t (UB) and NaN band
  // bounds slipped past the lo > hi check.
  for (const char* line :
       {"sum temperature id nan", "count humidity scale nan",
        "avg light scale inf", "sum temperature between nan and nan",
        "sum temperature id 1e999"}) {
    EXPECT_FALSE(engine::ParseQuerySpec(line).ok()) << line;
  }
}

TEST(CorpusReplayTest, HttpRequest) {
  for (const Bytes& input : LoadFuzzInputs("http_request")) {
    const std::string raw = AsText(input);
    const std::string line = raw.substr(0, raw.find_first_of("\r\n"));
    ops::HttpRequest request;
    if (ops::ParseRequestLine(line, request) == ops::RequestLineStatus::kOk) {
      EXPECT_LE(request.path.size(), line.size()) << line;
    }
  }
}

TEST(CorpusReplayTest, Flags) {
  for (const Bytes& input : LoadFuzzInputs("flags")) {
    std::string text = AsText(input);
    text = text.substr(0, text.find('\0'));
    std::vector<std::string> tokens = {"prog"};
    for (size_t start = 0; start <= text.size();) {
      const size_t nl = text.find('\n', start);
      if (nl == std::string::npos) {
        tokens.push_back(text.substr(start));
        break;
      }
      tokens.push_back(text.substr(start, nl - start));
      start = nl + 1;
    }
    std::vector<const char*> argv;
    for (const auto& token : tokens) argv.push_back(token.c_str());
    auto flags =
        Flags::Parse(static_cast<int>(argv.size()), argv.data());
    ASSERT_TRUE(flags.ok());
  }
  // The minimized "--" regression: only the FIRST bare "--" terminates
  // flag parsing; the second must survive as a positional.
  const char* argv[] = {"prog", "--a=1", "--", "x", "--", "y"};
  auto flags = Flags::Parse(6, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags.value().positional(),
            (std::vector<std::string>{"x", "--", "y"}));
}

TEST(CorpusReplayTest, Hex) {
  for (const Bytes& input : LoadFuzzInputs("hex")) {
    const std::string text = AsText(input);
    auto parsed = FromHex(text);
    if (parsed.ok()) {
      EXPECT_EQ(ToHex(parsed.value()).size(), text.size());
    }
  }
}

TEST(FuzzTest, FromHexNeverCrashes) {
  Xoshiro256 rng(1);
  for (int t = 0; t < kTrials; ++t) {
    size_t len = rng.NextBelow(64);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    auto parsed = FromHex(s);
    if (parsed.ok()) {
      EXPECT_EQ(ToHex(parsed.value()).size(), s.size());
    }
  }
}

TEST(FuzzTest, SiesParsePsrRandomBytes) {
  auto params = core::MakeParams(8, 1).value();
  const core::FixedField fixed(params, *params.Fp());
  const core::BigField big(params);
  Xoshiro256 rng(2);
  for (int t = 0; t < kTrials; ++t) {
    size_t len = rng.NextBelow(64);
    Bytes random = rng.NextBytes(len);
    auto parsed = core::ParsePsr(big, random.data(), random.size());
    auto parsed_fixed = core::ParsePsr(fixed, random.data(), random.size());
    ASSERT_EQ(parsed.ok(), parsed_fixed.ok());
    if (parsed.ok()) {
      // Whatever parsed must re-serialize identically, in both fields.
      Bytes stored(random.size()), stored_fixed(random.size());
      big.Store(parsed.value(), stored.data());
      fixed.Store(parsed_fixed.value(), stored_fixed.data());
      EXPECT_EQ(stored, random);
      EXPECT_EQ(stored_fixed, random);
    }
  }
}

TEST(FuzzTest, SiesQuerierRandomPsrsNeverVerify) {
  // A 32-byte forgery passes verification with probability ~2^-224;
  // seeing even one in 200 random trials means the verifier is broken.
  auto params = core::MakeParams(4, 1).value();
  auto keys = core::GenerateKeys(params, {1});
  core::Querier querier(params, keys);
  Xoshiro256 rng(3);
  int verified_count = 0;
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(params.PsrBytes());
    auto eval = querier.Evaluate(random, t);
    if (eval.ok() && eval.value().verified) ++verified_count;
  }
  EXPECT_EQ(verified_count, 0);
}

TEST(FuzzTest, WireEnvelopeHostileFramesNeverReadOutOfBounds) {
  // The multi-query engine's one-round envelope [field ‖ PSR × K] is
  // the widest attack surface a hostile aggregator sees: truncated
  // bodies, oversized fields, and PSR counts that disagree with the
  // channel plan must all come back as errors — never a crash or an
  // out-of-bounds read (run under scripts/check.sh --sanitize).
  auto params = core::MakeParams(16, 1).value();
  const net::SourceRange root{0, 16};
  const size_t kChannels = 3;
  const size_t bitmap_bytes = core::ContributorSet::BitmapBytes(root);
  const size_t honest_size = core::WireEnvelopeBytes(params, kChannels);
  Xoshiro256 rng(11);

  // Truncations: every prefix shorter than the channel plan's PSRs.
  Bytes frame = rng.NextBytes(honest_size);
  for (size_t len = 0; len < honest_size; ++len) {
    Bytes truncated(frame.begin(), frame.begin() + len);
    auto parsed = core::ParseWireEnvelope(params, root, truncated, kChannels);
    EXPECT_FALSE(parsed.ok()) << "truncated frame of " << len
                              << " bytes accepted";
  }
  // Oversized frames: a field wider than the bitmap must be rejected,
  // not ignored.
  for (size_t extra = bitmap_bytes + 1; extra <= 64; extra *= 2) {
    Bytes oversized = frame;
    for (size_t i = 0; i < extra; ++i) {
      oversized.push_back(static_cast<uint8_t>(rng.Next()));
    }
    EXPECT_FALSE(
        core::ParseWireEnvelope(params, root, oversized, kChannels).ok());
  }
  // PSR-count / plan mismatches: a lossless envelope of K channels fed
  // to a parser expecting K' != K.
  for (size_t expected : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                          size_t{100}}) {
    auto parsed = core::ParseWireEnvelope(params, root, frame, expected);
    EXPECT_FALSE(parsed.ok()) << "K=" << kChannels << " frame accepted as K="
                              << expected;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // Random lengths, random bytes: error or a parse whose pieces are
  // exactly as wide as claimed — never a crash.
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(rng.NextBelow(2 * honest_size));
    auto parsed = core::ParseWireEnvelope(params, root, random, kChannels);
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value().body.size(),
                kChannels * params.PsrBytes());
      EXPECT_LE(random.size() - parsed.value().body.size(), bitmap_bytes);
    }
  }
}

TEST(FuzzTest, WireEnvelopeErrorsAreDistinct) {
  // The failure modes carry distinguishable messages so a network
  // operator can tell a radio truncation from a plan mismatch or a
  // malformed contributor field.
  auto params = core::MakeParams(16, 1).value();
  const net::SourceRange root{0, 16};
  Bytes tiny(1, 0xff);  // shorter than one PSR
  auto short_frame = core::ParseWireEnvelope(params, root, tiny, 1);
  ASSERT_FALSE(short_frame.ok());
  EXPECT_NE(short_frame.status().message().find("channel plan"),
            std::string::npos);

  // A 1-byte field is neither the 2-byte bitmap nor whole 2-byte runs.
  Bytes ragged(params.PsrBytes() + 1, 0);
  auto ragged_frame = core::ParseWireEnvelope(params, root, ragged, 1);
  ASSERT_FALSE(ragged_frame.ok());
  EXPECT_NE(ragged_frame.status().message().find("whole number"),
            std::string::npos);

  // One PSR too many reads as a 32-byte field: wider than the bitmap.
  Bytes wrong_k(core::WireEnvelopeBytes(params, 2), 0);
  auto mismatch = core::ParseWireEnvelope(params, root, wrong_k, 1);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("wider"), std::string::npos);
}

TEST(FuzzTest, DatagramFrameParserRandomAndMutated) {
  // The UDP transport's frame parser reads bytes straight off a socket;
  // random blobs and single-byte mutations of an honest frame must all
  // come back as errors or as frames that round-trip exactly — never a
  // crash or an out-of-bounds read.
  Xoshiro256 rng(12);
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(rng.NextBelow(2 * net::kDatagramHeaderBytes));
    auto parsed = net::ParseDatagramFrame(random.data(), random.size());
    if (parsed.ok()) {
      EXPECT_EQ(net::SerializeDatagramFrame(parsed.value()), random);
    }
  }
  net::DatagramFrame honest;
  honest.kind = net::FrameKind::kData;
  honest.epoch = 42;
  honest.from = 3;
  honest.to = 9;
  honest.attempt = 1;
  honest.payload = rng.NextBytes(64);
  const Bytes wire = net::SerializeDatagramFrame(honest);
  ASSERT_TRUE(net::ParseDatagramFrame(wire.data(), wire.size()).ok());
  for (int t = 0; t < kTrials; ++t) {
    Bytes mutated = wire;
    switch (t % 3) {
      case 0:  // truncate anywhere, including inside the header
        mutated.resize(rng.NextBelow(mutated.size() + 1));
        break;
      case 1:  // extend: a frame longer than header+payload_len is bogus
        mutated.push_back(static_cast<uint8_t>(rng.Next()));
        break;
      case 2:  // flip one random byte
        mutated[rng.NextBelow(mutated.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
        break;
    }
    auto parsed = net::ParseDatagramFrame(mutated.data(), mutated.size());
    if (parsed.ok()) {
      EXPECT_EQ(net::SerializeDatagramFrame(parsed.value()), mutated);
    }
  }
}

TEST(FuzzTest, UdpTransportShrugsOffGarbageDatagrams) {
  // Blast raw garbage at a LIVE transport socket: every blob must land
  // in the malformed counter, and the edge must still deliver real
  // payloads afterwards — a hostile peer cannot wedge the receiver.
  net::UdpTransport transport;
  ASSERT_TRUE(transport.Start({1, 2}).ok());
  const uint16_t victim_port = transport.PortOf(2);
  ASSERT_NE(victim_port, 0);

  const int fuzzer = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fuzzer, 0);
  sockaddr_in victim{};
  victim.sin_family = AF_INET;
  victim.sin_port = htons(victim_port);
  victim.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Xoshiro256 rng(13);
  const int kGarbage = 64;
  for (int t = 0; t < kGarbage; ++t) {
    // Mix pure noise with near-frames (honest header, hostile body).
    Bytes blob;
    if (t % 2 == 0) {
      blob = rng.NextBytes(1 + rng.NextBelow(128));
    } else {
      net::DatagramFrame f;
      f.kind = net::FrameKind::kAck;
      f.epoch = t;
      f.from = 1;
      f.to = 2;
      blob = net::SerializeDatagramFrame(f);
      blob.push_back(0xEE);  // ack with payload: malformed by contract
    }
    ASSERT_EQ(::sendto(fuzzer, blob.data(), blob.size(), 0,
                       reinterpret_cast<sockaddr*>(&victim), sizeof(victim)),
              static_cast<ssize_t>(blob.size()));
  }
  ::close(fuzzer);
  // The receiver thread drains asynchronously; wait for the verdicts.
  for (int i = 0;
       i < 500 && transport.malformed_datagrams() <
                      static_cast<uint64_t>(kGarbage);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(transport.malformed_datagrams(),
            static_cast<uint64_t>(kGarbage));
  // Liveness after the storm: a real delivery on the abused socket.
  Bytes payload{0xAA, 0xBB, 0xCC};
  auto delivery = transport.Deliver(1, 2, /*epoch=*/7, payload);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  EXPECT_TRUE(delivery.value().delivered);
  EXPECT_EQ(delivery.value().payload, payload);
  transport.Stop();
}

TEST(FuzzTest, SecoaParsersRandomAndTruncated) {
  Xoshiro256 rng(4);
  auto kp = crypto::GenerateRsaKeyPair(256, rng).value();
  secoa::SealOps ops(kp.public_key);
  secoa::SumParams params{4, 8, 1};
  auto keys = secoa::GenerateKeys(4, {1});
  secoa::SumSource source(ops, params, 0, keys.sources[0]);
  Bytes honest = SerializeSumPsr(ops, source.CreatePsr(100, 1).value());

  for (int t = 0; t < kTrials; ++t) {
    // Random truncation, extension, and mutation of an honest wire blob.
    Bytes mutated = honest;
    switch (t % 3) {
      case 0:
        mutated.resize(rng.NextBelow(mutated.size() + 1));
        break;
      case 1:
        mutated.push_back(static_cast<uint8_t>(rng.Next()));
        break;
      case 2:
        mutated[rng.NextBelow(mutated.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
        break;
    }
    auto parsed = ParseSumPsr(ops, params, mutated);
    (void)parsed;  // must not crash; either outcome is acceptable
  }
  // Pure random bytes of the right length.
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(honest.size());
    auto parsed = ParseSumPsr(ops, params, random);
    (void)parsed;
  }
}

TEST(FuzzTest, SecoaMaxParserRandom) {
  Xoshiro256 rng(5);
  auto kp = crypto::GenerateRsaKeyPair(256, rng).value();
  secoa::SealOps ops(kp.public_key);
  auto keys = secoa::GenerateKeys(2, {1});
  secoa::MaxSource source(ops, 0, keys.sources[0]);
  Bytes honest = SerializeMaxPsr(ops, source.CreatePsr(5, 1).value());
  for (int t = 0; t < kTrials; ++t) {
    Bytes mutated = honest;
    if (t % 2 == 0) {
      mutated[rng.NextBelow(mutated.size())] ^= 0xff;
    } else {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    auto parsed = ParseMaxPsr(ops, mutated);
    (void)parsed;
  }
}

TEST(FuzzTest, ProvisioningParsersRandomBytes) {
  Xoshiro256 rng(6);
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(rng.NextBelow(256));
    EXPECT_FALSE(core::ParseDeployment(random).ok());
    EXPECT_FALSE(core::ParseSourceRegistration(random).ok());
    EXPECT_FALSE(core::ParseAggregatorRecord(random).ok());
  }
}

// A provisioning file naming a composite modulus passes Params::Validate
// (a layout check), but K_t has no inverse modulo it: every record type
// rejects it when it is read, before the querier would abort.
TEST(FuzzTest, ProvisioningRejectsCompositeModulus) {
  core::Deployment deployment;
  deployment.params = core::MakeParams(8, 1).value();
  deployment.keys = core::GenerateKeys(deployment.params, {1});
  Xoshiro256 rng(8);
  for (int t = 0; t < 6; ++t) {
    // 2^255 + 2, then odd composites that pass the small-prime sieve.
    deployment.params.prime =
        t == 0 ? crypto::BigUint::Add(
                     crypto::BigUint::Shl(crypto::BigUint(1), 255),
                     crypto::BigUint(2))
               : crypto::BigUint::Mul(crypto::GeneratePrime(128, rng),
                                      crypto::GeneratePrime(129, rng));
    ASSERT_TRUE(deployment.params.Validate().ok());
    EXPECT_FALSE(
        core::ParseDeployment(core::SerializeDeployment(deployment).value())
            .ok());
    EXPECT_FALSE(core::ParseSourceRegistration(
                     core::SerializeSourceRegistration(deployment, 3).value())
                     .ok());
    EXPECT_FALSE(core::ParseAggregatorRecord(
                     core::SerializeAggregatorRecord(deployment.params).value())
                     .ok());
  }
}

TEST(FuzzTest, MerkleProofsResistMutation) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 16; ++i) leaves.push_back(EncodeUint64(i));
  auto tree = mht::MerkleTree::Build(leaves).value();
  Xoshiro256 rng(7);
  for (int t = 0; t < kTrials; ++t) {
    auto proof = tree.Prove(rng.NextBelow(16)).value();
    uint64_t leaf = proof.leaf_index;
    // Mutate one random byte in one random step.
    if (!proof.steps.empty()) {
      auto& step = proof.steps[rng.NextBelow(proof.steps.size())];
      if (rng.NextBelow(2) == 0) {
        step.sibling[rng.NextBelow(step.sibling.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
      } else {
        step.sibling_left = !step.sibling_left;
      }
      EXPECT_FALSE(mht::VerifyMembership(tree.root(), leaves[leaf], proof))
          << "mutated proof accepted (trial " << t << ")";
    }
  }
}

TEST(FuzzTest, MuTeslaRandomDisclosuresRejected) {
  auto broadcaster = mutesla::Broadcaster::Create({1}, 10, 1).value();
  Xoshiro256 rng(8);
  for (int t = 0; t < kTrials; ++t) {
    mutesla::Receiver receiver(broadcaster.commitment(), 1);
    mutesla::KeyDisclosure bogus{1 + rng.NextBelow(10), rng.NextBytes(32)};
    auto result = receiver.OnDisclosure(bogus);
    EXPECT_FALSE(result.ok()) << "random chain key accepted";
  }
}

TEST(FuzzTest, CmtParserWidthsEnforced) {
  auto params = cmt::MakeParams(4, 1).value();
  auto keys = cmt::GenerateKeys(params, {1});
  cmt::Aggregator aggregator(params);
  cmt::Querier querier(params, keys);
  Xoshiro256 rng(9);
  for (int t = 0; t < kTrials; ++t) {
    Bytes random = rng.NextBytes(rng.NextBelow(64));
    if (random.size() != params.CiphertextBytes()) {
      EXPECT_FALSE(aggregator.Merge({random}).ok());
      EXPECT_FALSE(querier.Decrypt(random, 1, {0}).ok());
    }
  }
}

TEST(FuzzTest, QuerySpecGrammarRandomAndMutated) {
  // The query grammar (scalar predicates, band predicates, 'between'
  // sugar) parses operator text; seed with every edge case the band
  // grammar introduced, then recombine tokens at random. Invariants:
  // no crash, and every accepted spec satisfies the one band invariant
  // the parser promises: lo <= hi (negative bounds are deferred to the
  // compiler, which rejects them with its own message).
  const char* seeds[] = {
      "sum temperature",
      "sum temperature where 20 <= temperature <= 30",
      "count humidity between 35 and 55",
      "avg temperature where 20 <= temperature <= 30 where humidity >= 40",
      "sum temperature where 30 <= temperature <= 20",
      "sum temperature where 20 < temperature <= 30",
      "sum temperature where 20 <= temperature < 30",
      "sum temperature between 30 and 20",
      "sum temperature between 20 or 30",
      "sum temperature between 20 and",
      "sum temperature where 20 <= pressure <= 30",
      "sum temperature between 20 and 30 where 25 <= humidity <= 50",
      "variance humidity scale 3 id 7",
      "sum temperature where -1 <= temperature <= 30",
      "sum temperature where 1e308 <= temperature <= 1e309",
      "between between between",
      "where 1 <= x <= 2",
  };
  for (const char* seed : seeds) {
    auto q = engine::ParseQuerySpec(seed);
    if (q.ok() && q.value().band.has_value()) {
      EXPECT_LE(q.value().band->lo, q.value().band->hi) << seed;
    }
  }
  // Random recombinations of the grammar's vocabulary.
  const char* words[] = {"sum",   "count", "avg",   "variance", "temperature",
                         "humidity", "where", "between", "and", "<=", "<",
                         ">=", "=", "20", "30", "-5", "1e12", "id", "scale",
                         "2", "abc", ""};
  Xoshiro256 rng(14);
  for (int t = 0; t < kTrials; ++t) {
    std::string line;
    const size_t tokens = 1 + rng.NextBelow(10);
    for (size_t i = 0; i < tokens; ++i) {
      if (i) line.push_back(' ');
      line += words[rng.NextBelow(sizeof(words) / sizeof(words[0]))];
    }
    auto q = engine::ParseQuerySpec(line);
    (void)q;  // must not crash; either outcome is acceptable
  }
  // Multi-line text parser: blank lines, comments, and hostile mixes.
  auto text = engine::ParseQueriesText(
      "# comment\n\nsum temperature where 20 <= temperature <= 30\n"
      "count humidity between 35 and 55\nbogus line here\n");
  EXPECT_FALSE(text.ok());
  for (int t = 0; t < 50; ++t) {
    std::string blob;
    for (size_t i = rng.NextBelow(200); i > 0; --i) {
      blob.push_back(static_cast<char>(rng.NextBelow(128)));
    }
    auto parsed = engine::ParseQueriesText(blob);
    (void)parsed;
  }
}

TEST(FuzzTest, DyadicDecomposeRandomRangesHoldInvariants) {
  // The predicate compiler's dyadic cover: random (including hostile)
  // bounds must produce either an error or an exact disjoint cover —
  // never a crash, never an interval outside [lo, hi].
  Xoshiro256 rng(15);
  for (int t = 0; t < kTrials; ++t) {
    uint64_t lo = rng.Next() >> rng.NextBelow(64);
    uint64_t hi = rng.Next() >> rng.NextBelow(64);
    auto cover = predicate::DyadicDecompose(lo, hi);
    if (!cover.ok()) {
      EXPECT_TRUE(lo > hi || hi > predicate::kMaxDomainValue)
          << "valid range [" << lo << ", " << hi << "] rejected";
      continue;
    }
    uint64_t cursor = lo;
    for (const predicate::DyadicInterval& iv : cover.value()) {
      ASSERT_EQ(iv.Lo(), cursor);
      ASSERT_GE(iv.Hi(), iv.Lo());
      cursor = iv.Hi() + 1;
    }
    EXPECT_EQ(cursor, hi + 1);
    EXPECT_LE(cover.value().size(),
              predicate::MaxIntervalsForDomain(hi - lo + 1));
  }
  // Boundary seeds around the domain cap.
  EXPECT_TRUE(predicate::DyadicDecompose(0, predicate::kMaxDomainValue).ok());
  EXPECT_FALSE(
      predicate::DyadicDecompose(0, predicate::kMaxDomainValue + 1).ok());
  EXPECT_FALSE(predicate::DyadicDecompose(UINT64_MAX, UINT64_MAX).ok());
  EXPECT_TRUE(predicate::DyadicDecompose(predicate::kMaxDomainValue,
                                         predicate::kMaxDomainValue)
                  .ok());
}

TEST(FuzzTest, BigUintDifferentialAgainstNativeArithmetic) {
  // Cross-check BigUint against unsigned __int128 on random operands.
  Xoshiro256 rng(10);
  using u128 = unsigned __int128;
  for (int t = 0; t < 2000; ++t) {
    uint64_t a = rng.Next() >> (rng.NextBelow(64));
    uint64_t b = rng.Next() >> (rng.NextBelow(64));
    crypto::BigUint ba(a), bb(b);
    // add
    u128 sum = static_cast<u128>(a) + b;
    crypto::BigUint bsum = crypto::BigUint::Add(ba, bb);
    EXPECT_EQ(bsum.Low64(), static_cast<uint64_t>(sum));
    EXPECT_EQ(bsum.BitLength() > 64, sum >> 64 ? true : false);
    // mul
    u128 prod = static_cast<u128>(a) * b;
    crypto::BigUint bprod = crypto::BigUint::Mul(ba, bb);
    EXPECT_EQ(bprod.Low64(), static_cast<uint64_t>(prod));
    // divmod
    if (b != 0) {
      auto dm = crypto::BigUint::DivMod(ba, bb).value();
      EXPECT_EQ(dm.quotient.Low64(), a / b);
      EXPECT_EQ(dm.remainder.Low64(), a % b);
    }
    // sub (ordered)
    if (a >= b) {
      EXPECT_EQ(crypto::BigUint::Sub(ba, bb).Low64(), a - b);
    }
  }
}

}  // namespace
}  // namespace sies
