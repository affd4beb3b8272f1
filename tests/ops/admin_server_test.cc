// AdminServer endpoint contract: Prometheus scrape shape, health and
// readiness semantics, query introspection JSON, and the /epochs
// window parameter — all against a synthetic snapshot, no engine.
#include "ops/admin_server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "http_client.h"
#include "telemetry/telemetry.h"

namespace sies::ops {
namespace {

using testing::Get;

std::vector<telemetry::QueryRecord> TwoQueries() {
  telemetry::QueryRecord avg;
  avg.query_id = 0;
  avg.sql = "SELECT AVG(temperature) FROM Sensors";
  avg.admitted_epoch = 1;
  avg.slots = {0, 1};
  avg.answered_epochs = 7;
  avg.verified_epochs = 6;
  avg.unverified_epochs = 1;
  avg.partial_epochs = 2;
  avg.last_value = 35.25;
  avg.last_coverage = 0.5;
  avg.last_epoch = 7;
  telemetry::QueryRecord count;
  count.query_id = 3;
  count.sql = "SELECT COUNT(pressure) FROM Sensors WHERE \"x\"";
  count.admitted_epoch = 4;
  count.slots = {2};
  return {avg, count};
}

TEST(AdminServerTest, MetricsEndpointServesPrometheusText) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("ops_test_scrapes_total")
      ->Increment();
  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto r = Get(server.value()->port(), "/metrics");
  ASSERT_TRUE(r.ok) << r.raw;
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.raw.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE ops_test_scrapes_total counter"),
            std::string::npos);
  EXPECT_NE(r.body.find("ops_test_scrapes_total 1"), std::string::npos);
  // The scrape itself is metered: the 200 we just received shows up on
  // the next scrape.
  auto again = Get(server.value()->port(), "/metrics");
  EXPECT_NE(again.body.find("ops_http_responses_total{code=\"200\"}"),
            std::string::npos);
}

TEST(AdminServerTest, HealthzIsAliveWhileRunning) {
  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok());
  auto r = Get(server.value()->port(), "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
}

TEST(AdminServerTest, ReadyzTracksProvisioningKeysAndFreshness) {
  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok());
  AdminServer& admin = *server.value();

  // Nothing reported yet: 503 with every gate visible in the body.
  auto r = Get(admin.port(), "/readyz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"ready\": false"), std::string::npos);
  EXPECT_NE(r.body.find("\"provisioned\": false"), std::string::npos);
  EXPECT_NE(r.body.find("\"keys_warm\": false"), std::string::npos);

  // All three gates satisfied: ready.
  admin.SetProvisioned(true);
  admin.SetKeysWarm(true);
  admin.ReportEpoch(12, /*verified=*/true);
  r = Get(admin.port(), "/readyz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"ready\": true"), std::string::npos);
  EXPECT_NE(r.body.find("\"last_epoch\": 12"), std::string::npos);
  EXPECT_NE(r.body.find("\"last_epoch_verified\": true"), std::string::npos);

  // An unverified epoch is reported but does NOT flip readiness: under
  // attack, rejecting the aggregate is the engine working as designed.
  admin.ReportEpoch(13, /*verified=*/false);
  r = Get(admin.port(), "/readyz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"last_epoch_verified\": false"), std::string::npos);

  // Losing a gate drops readiness again.
  admin.SetKeysWarm(false);
  EXPECT_EQ(Get(admin.port(), "/readyz").status, 503);
}

TEST(AdminServerTest, ReadyzGoesStaleWithoutEpochProgress) {
  AdminOptions options;
  options.ready_staleness_seconds = 1e-9;  // everything is stale
  auto server = AdminServer::Start(options, nullptr);
  ASSERT_TRUE(server.ok());
  AdminServer& admin = *server.value();
  admin.SetProvisioned(true);
  admin.SetKeysWarm(true);
  admin.ReportEpoch(1, true);
  auto r = Get(admin.port(), "/readyz");
  EXPECT_EQ(r.status, 503) << r.body;
  EXPECT_NE(r.body.find("\"ready\": false"), std::string::npos);
}

TEST(AdminServerTest, QueriesEndpointSerializesTheSnapshot) {
  auto server = AdminServer::Start(AdminOptions{}, TwoQueries);
  ASSERT_TRUE(server.ok());
  auto r = Get(server.value()->port(), "/queries");
  ASSERT_TRUE(r.ok) << r.raw;
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(r.body.find(
                "{\"id\": 0, \"sql\": \"SELECT AVG(temperature) FROM "
                "Sensors\", \"admitted_epoch\": 1, \"slots\": [0, 1], "
                "\"answered_epochs\": 7, \"verified_epochs\": 6, "
                "\"unverified_epochs\": 1, \"partial_epochs\": 2, "
                "\"last_epoch\": 7, \"last_value\": 35.25, "
                "\"last_coverage\": 0.5}"),
            std::string::npos)
      << r.body;
  // Embedded quotes in SQL must arrive escaped.
  EXPECT_NE(r.body.find("WHERE \\\"x\\\""), std::string::npos) << r.body;
}

TEST(AdminServerTest, QueriesEndpointWithoutSnapshotIsEmpty) {
  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok());
  auto r = Get(server.value()->port(), "/queries");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"count\": 0"), std::string::npos);
}

TEST(AdminServerTest, EpochsEndpointServesTheTimelineWindow) {
  auto& timeline = telemetry::EpochTimeline::Global();
  timeline.Reset();
  timeline.Enable();
  for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
    timeline.BeginEpoch(epoch);
    timeline.RecordPhase(telemetry::EpochPhase::kPsrCreate, 0.001);
    telemetry::EpochVerdict verdict;
    verdict.answered = true;
    verdict.verified = true;
    verdict.coverage = 1.0;
    timeline.EndEpoch(verdict);
  }
  timeline.Disable();

  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok());
  auto r = Get(server.value()->port(), "/epochs?last=2");
  ASSERT_TRUE(r.ok) << r.raw;
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"window\": 2"), std::string::npos);
  EXPECT_NE(r.body.find("\"epochs_recorded\": 4"), std::string::npos);
  EXPECT_EQ(r.body.find("\"epoch\": 2"), std::string::npos) << "outside window";
  EXPECT_NE(r.body.find("\"epoch\": 3"), std::string::npos);
  EXPECT_NE(r.body.find("\"epoch\": 4"), std::string::npos);
  EXPECT_NE(r.body.find("\"phase\": \"psr_create\""), std::string::npos);
  timeline.Reset();
}

TEST(AdminServerTest, EpochsRejectsBadWindow) {
  auto server = AdminServer::Start(AdminOptions{}, nullptr);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(Get(server.value()->port(), "/epochs?last=0").status, 400);
  EXPECT_EQ(Get(server.value()->port(), "/epochs?last=banana").status, 400);
  EXPECT_EQ(Get(server.value()->port(), "/epochs?last=999999999").status, 400);
  EXPECT_EQ(Get(server.value()->port(), "/epochs").status, 200);
}

}  // namespace
}  // namespace sies::ops
