// Scrapes a LIVE SIES run: the admin server answers from another
// thread while RunExperiment is mid-flight. Admission at epoch t
// must be visible at t, teardown must free the query's slots, and the
// epoch timeline's phase arithmetic must be consistent with wall time.
// This is also the scraper-vs-engine race shape the `ops` ctest label
// runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "engine/query_spec.h"
#include "http_client.h"
#include "runner/runner.h"
#include "telemetry/telemetry.h"

namespace sies::runner {
namespace {

using ops::testing::Get;
using ops::testing::HttpResult;

/// One mid-run scrape of every endpoint, keyed by the epoch it ran at.
struct Scrape {
  uint64_t epoch = 0;
  HttpResult readyz, queries, epochs, metrics;
};

TEST(OpsIntegrationTest, LiveRunServesAdmissionTeardownAndTimeline) {
  auto& timeline = telemetry::EpochTimeline::Global();
  timeline.Reset();
  timeline.Enable();

  auto queries = engine::ParseQueriesText(
      "sum temperature id 0\n"
      "avg temperature id 1\n");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  ExperimentConfig config;
  config.queries.push_back({queries.value()[0], /*admit_epoch=*/1,
                            /*teardown_epoch=*/0});
  // The second query lives only in epochs [3, 6): its admission and its
  // teardown both happen while the server is being scraped.
  config.queries.push_back({queries.value()[1], /*admit_epoch=*/3,
                            /*teardown_epoch=*/6});
  config.num_sources = 16;
  config.epochs = 8;
  config.ops_port = 0;
  config.threads = 2;

  uint16_t port = 0;
  config.on_ops_ready = [&port](uint16_t p) { port = p; };
  std::vector<Scrape> scrapes;
  config.after_epoch = [&](uint64_t epoch) {
    Scrape s;
    s.epoch = epoch;
    s.readyz = Get(port, "/readyz");
    s.queries = Get(port, "/queries");
    s.epochs = Get(port, "/epochs?last=1");
    s.metrics = Get(port, "/metrics");
    scrapes.push_back(std::move(s));
  };

  auto result = RunExperiment(config);
  timeline.Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().all_verified);
  ASSERT_EQ(scrapes.size(), 8u);
  ASSERT_NE(port, 0);

  for (const Scrape& s : scrapes) {
    ASSERT_TRUE(s.readyz.ok && s.queries.ok && s.epochs.ok && s.metrics.ok)
        << "scrape failed at epoch " << s.epoch;
    EXPECT_EQ(s.queries.status, 200);
    EXPECT_EQ(s.epochs.status, 200);
    EXPECT_EQ(s.metrics.status, 200);

    // Admission visibility: q1 appears exactly in its live window.
    const bool q1_visible =
        s.queries.body.find("\"id\": 1") != std::string::npos;
    EXPECT_EQ(q1_visible, s.epoch >= 3 && s.epoch < 6)
        << "epoch " << s.epoch << ": " << s.queries.body;
    EXPECT_NE(s.queries.body.find("\"id\": 0"), std::string::npos);

    // Readiness: keys warm after epoch 1 finished, fresh ever since.
    EXPECT_EQ(s.readyz.status, 200) << s.readyz.body;

    // /metrics stays a parseable Prometheus scrape mid-run.
    EXPECT_NE(s.metrics.body.find("# TYPE"), std::string::npos);
  }

  // Teardown frees slots: q0 (SUM) needs one channel once q1 is gone,
  // and the final scrape's count drops back to 1.
  const Scrape& last = scrapes.back();
  EXPECT_NE(last.queries.body.find("\"count\": 1"), std::string::npos)
      << last.queries.body;

  // Timeline arithmetic invariants (the ≥90%-of-wall coverage check
  // runs in PacedRunServesEveryEndpointAndAttributesItsWall, on a paced
  // single-threaded run where wall time is meaningful): critical path
  // is positive, never exceeds the wall, and never exceeds the
  // attributed CPU total.
  const std::vector<telemetry::EpochRecord> records = timeline.Last(8);
  ASSERT_FALSE(records.empty());
  for (const telemetry::EpochRecord& r : records) {
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_GT(r.critical_path_seconds, 0.0);
    EXPECT_LE(r.critical_path_seconds, r.wall_seconds);
    EXPECT_LE(r.critical_path_seconds, r.attributed_seconds);
    EXPECT_TRUE(r.answered);
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.channels.empty());
    EXPECT_EQ(r.tampered_channels, 0u);
  }
  timeline.Reset();
}

// Readiness waits for the first round that runs, not for epoch 1: a run
// whose only query is admitted at epoch 3 idles through epochs 1-2 (no
// keys derived yet) and turns ready once epoch 3's round has run.
TEST(OpsIntegrationTest, ReadyOnlyAfterTheFirstRoundRuns) {
  auto queries = engine::ParseQueriesText("sum temperature id 0\n");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  ExperimentConfig config;
  config.queries.push_back({queries.value()[0], /*admit_epoch=*/3});
  config.num_sources = 16;
  config.epochs = 6;
  config.threads = 1;
  config.ops_port = 0;
  uint16_t port = 0;
  config.on_ops_ready = [&port](uint16_t p) { port = p; };
  std::vector<HttpResult> readyz;
  config.after_epoch = [&](uint64_t) {
    readyz.push_back(Get(port, "/readyz"));
  };
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().idle_epochs, 2u);
  ASSERT_EQ(readyz.size(), 6u);
  for (size_t i = 0; i < readyz.size(); ++i) {
    const uint64_t epoch = i + 1;
    ASSERT_TRUE(readyz[i].ok) << "scrape failed at epoch " << epoch;
    EXPECT_EQ(readyz[i].status, epoch < 3 ? 503 : 200)
        << "epoch " << epoch << ": " << readyz[i].body;
  }
}

/// The number after the first `"key": ` at or after `from` in `json`
/// (NaN when the key is absent).
double NumberAfter(const std::string& json, const std::string& key,
                   size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

// The live ops plane end to end, on the run `sies_sim --queries=4
// --sources=64 --epochs=40 --threads=1 --epoch-ms=50 --seed=5
// --ops-port=0` serves: paced and on one lane, so wall time is
// meaningful. Every endpoint is scraped between epochs; the phase
// probes must explain >= 90% of the best epoch's wall. Registered as
// its own serial ctest (ops_attribution_guard) outside the TSan label
// set: the guard reads wall time, which a loaded or instrumented
// process distorts.
TEST(OpsIntegrationTest, PacedRunServesEveryEndpointAndAttributesItsWall) {
  auto& timeline = telemetry::EpochTimeline::Global();
  timeline.Reset();
  timeline.Enable();

  constexpr uint32_t kEpochs = 40;
  ExperimentConfig config;
  for (const core::Query& q : engine::DefaultQueryMix(4)) {
    config.queries.push_back({q});
  }
  config.num_sources = 64;
  config.epochs = kEpochs;
  config.threads = 1;
  config.epoch_pacing_ms = 50;
  config.seed = 5;
  config.ops_port = 0;
  uint16_t port = 0;
  config.on_ops_ready = [&port](uint16_t p) { port = p; };
  HttpResult healthz, readyz, queries, metrics, metrics_again, nope, epochs;
  config.after_epoch = [&](uint64_t epoch) {
    if (epoch == 1) {
      healthz = Get(port, "/healthz");
      readyz = Get(port, "/readyz");
      queries = Get(port, "/queries");
      metrics = Get(port, "/metrics");
      metrics_again = Get(port, "/metrics");
      nope = Get(port, "/nope");
    }
    if (epoch == kEpochs) epochs = Get(port, "/epochs?last=16");
  };
  auto result = RunExperiment(config);
  timeline.Disable();
  timeline.Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");
  // Ready once epoch 1 finished (keys warm) and fresh.
  EXPECT_EQ(readyz.status, 200) << readyz.body;
  EXPECT_NE(readyz.body.find("\"ready\": true"), std::string::npos)
      << readyz.body;
  // Four live queries, each reading at least one slot.
  EXPECT_EQ(queries.status, 200);
  EXPECT_NE(queries.body.find("\"count\": 4"), std::string::npos)
      << queries.body;
  const std::string slots_key = "\"slots\": [";
  size_t slot_lists = 0;
  for (size_t at = queries.body.find(slots_key); at != std::string::npos;
       at = queries.body.find(slots_key, at + 1)) {
    ++slot_lists;
    EXPECT_NE(queries.body[at + slots_key.size()], ']') << queries.body;
  }
  EXPECT_EQ(slot_lists, 4u);
  // The first scrape is a counted 200 in the second: the server
  // observes itself.
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics_again.body.find("ops_http_responses_total{code=\"200\"}"),
            std::string::npos);
  EXPECT_EQ(nope.status, 404);

  // The timeline arithmetic of every served record.
  ASSERT_EQ(epochs.status, 200) << epochs.body;
  double best = 0.0;
  size_t records = 0;
  const std::string record_key = "{\"epoch\": ";
  for (size_t at = epochs.body.find(record_key); at != std::string::npos;) {
    const size_t next = epochs.body.find(record_key, at + 1);
    const std::string rec = epochs.body.substr(at, next - at);
    ++records;
    const double wall = NumberAfter(rec, "wall_seconds");
    const double attributed = NumberAfter(rec, "attributed_seconds");
    const double critical = NumberAfter(rec, "critical_path_seconds");
    EXPECT_GT(wall, 0.0) << rec;
    EXPECT_GT(critical, 0.0) << rec;
    EXPECT_LE(critical, wall) << rec;
    EXPECT_LE(critical, attributed) << rec;
    EXPECT_NE(rec.find("\"verified\": true, \"coverage\""), std::string::npos)
        << rec;
    EXPECT_EQ(NumberAfter(rec, "tampered_channels"), 0.0) << rec;
    double phase_total = 0.0;
    for (size_t p = rec.find("\"total_seconds\": "); p != std::string::npos;
         p = rec.find("\"total_seconds\": ", p + 1)) {
      phase_total += NumberAfter(rec, "total_seconds", p);
    }
    EXPECT_GT(phase_total, 0.0) << rec;
    best = std::max(best, attributed / wall);
    at = next;
  }
  EXPECT_EQ(records, 16u) << epochs.body;
  RecordProperty("best_attributed_share", std::to_string(best));
  EXPECT_GE(best, 0.9) << "the phase probes explain only " << best
                       << " of the best epoch's wall";
}

TEST(OpsIntegrationTest, RunWithoutOpsPortStartsNoServer) {
  auto queries = engine::ParseQueriesText("sum temperature id 0\n");
  ASSERT_TRUE(queries.ok());
  ExperimentConfig config;
  config.queries.push_back({queries.value()[0]});
  config.num_sources = 8;
  config.epochs = 2;
  config.threads = 1;
  bool ready_called = false;
  config.on_ops_ready = [&ready_called](uint16_t) { ready_called = true; };
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(ready_called) << "ops plane must be off by default";
}

}  // namespace
}  // namespace sies::runner
