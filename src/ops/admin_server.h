// AdminServer: the live ops plane of a running querier.
//
// Binds an embedded HttpServer (one thread, poll() accept loop) and
// serves four endpoints from a live run:
//
//   GET /metrics        Prometheus text scrape of the global
//                       MetricsRegistry — incremental, not exit-only.
//   GET /healthz        liveness: 200 "ok" while the server thread runs.
//   GET /readyz         readiness: 200 iff provisioned AND keys warm AND
//                       the last epoch finished within the staleness
//                       threshold; otherwise 503. The body is JSON either
//                       way and includes the last epoch's verification
//                       verdict (an unverified epoch under attack is the
//                       engine doing its job, so it is reported but does
//                       not flip readiness).
//   GET /queries        JSON introspection of the live query set: ids,
//                       SQL, admission epochs, wire slots, per-query
//                       outcome counters — the live queries' records of
//                       the scheduler's ledger (via the snapshot
//                       callback).
//   GET /epochs?last=K  the EpochTimeline ring: per-epoch phase
//                       breakdowns, per-channel verify attribution,
//                       critical path, and verdicts.
//
// All endpoint state is mutex-guarded snapshots or relaxed atomics, so
// scraping from the server thread races with nothing in the engine
// (ctest label `ops` runs this shape under TSan).
#ifndef SIES_OPS_ADMIN_SERVER_H_
#define SIES_OPS_ADMIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ops/http_server.h"
#include "telemetry/query_record.h"

namespace sies::ops {

/// Supplies a consistent snapshot of the live queries' records, served
/// by GET /queries. Called on the server thread; implementations must
/// be internally synchronized.
using QuerySnapshotFn =
    std::function<std::vector<telemetry::QueryRecord>()>;

struct AdminOptions {
  /// Loopback by default: the ops plane is unauthenticated by design
  /// and must not be exposed beyond the host without a fronting proxy.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  /// /readyz turns 503 when no epoch has finished for this long.
  double ready_staleness_seconds = 30.0;
  /// /epochs window when the scrape omits ?last=K.
  size_t default_epoch_window = 16;
};

class AdminServer {
 public:
  /// Binds and starts serving. `queries` may be null (the /queries
  /// endpoint then serves an empty set — e.g. single-query schemes).
  static StatusOr<std::unique_ptr<AdminServer>> Start(
      const AdminOptions& options, QuerySnapshotFn queries);

  ~AdminServer();
  void Stop();

  uint16_t port() const { return http_.port(); }
  uint64_t requests_served() const { return http_.requests_served(); }

  /// Run-loop liveness reporting (all relaxed atomics, call freely).
  void SetProvisioned(bool provisioned) {
    provisioned_.store(provisioned, std::memory_order_relaxed);
  }
  void SetKeysWarm(bool warm) {
    keys_warm_.store(warm, std::memory_order_relaxed);
  }
  /// Stamps the freshness clock; call once per finished epoch.
  void ReportEpoch(uint64_t epoch, bool verified);

 private:
  explicit AdminServer(const AdminOptions& options, QuerySnapshotFn queries);
  void RegisterEndpoints();
  HttpResponse Readyz() const;

  AdminOptions options_;
  QuerySnapshotFn queries_;
  HttpServer http_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> provisioned_{false};
  std::atomic<bool> keys_warm_{false};
  std::atomic<uint64_t> last_epoch_{0};
  std::atomic<bool> last_epoch_verified_{false};
  /// Nanoseconds since start_ of the last ReportEpoch (-1 = never).
  std::atomic<int64_t> last_progress_ns_{-1};
};

}  // namespace sies::ops

#endif  // SIES_OPS_ADMIN_SERVER_H_
