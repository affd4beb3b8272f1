#include "ops/admin_server.h"

#include <cstdio>
#include <cstdlib>

#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"

namespace sies::ops {

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

std::string QueriesJson(const std::vector<telemetry::QueryRecord>& queries) {
  std::string out = "{\"count\": " + std::to_string(queries.size()) +
                    ", \"queries\": [\n";
  for (size_t i = 0; i < queries.size(); ++i) {
    const telemetry::QueryRecord& q = queries[i];
    out += "  {\"id\": " + std::to_string(q.query_id) + ", \"sql\": \"" +
           JsonEscape(q.sql) + "\", \"admitted_epoch\": " +
           std::to_string(q.admitted_epoch) + ", \"slots\": [";
    for (size_t s = 0; s < q.slots.size(); ++s) {
      if (s > 0) out += ", ";
      out += std::to_string(q.slots[s]);
    }
    out += "], \"answered_epochs\": " + std::to_string(q.answered_epochs) +
           ", \"verified_epochs\": " + std::to_string(q.verified_epochs) +
           ", \"unverified_epochs\": " + std::to_string(q.unverified_epochs) +
           ", \"partial_epochs\": " + std::to_string(q.partial_epochs) +
           ", \"last_epoch\": " + std::to_string(q.last_epoch) +
           ", \"last_value\": ";
    AppendDouble(out, q.last_value);
    out += ", \"last_coverage\": ";
    AppendDouble(out, q.last_coverage);
    out += "}";
    out += (i + 1 < queries.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace

AdminServer::AdminServer(const AdminOptions& options, QuerySnapshotFn queries)
    : options_(options),
      queries_(std::move(queries)),
      start_(std::chrono::steady_clock::now()) {}

StatusOr<std::unique_ptr<AdminServer>> AdminServer::Start(
    const AdminOptions& options, QuerySnapshotFn queries) {
  std::unique_ptr<AdminServer> server(
      new AdminServer(options, std::move(queries)));
  server->RegisterEndpoints();
  SIES_RETURN_IF_ERROR(
      server->http_.Start(options.bind_address, options.port));
  return StatusOr<std::unique_ptr<AdminServer>>(std::move(server));
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Stop() { http_.Stop(); }

void AdminServer::ReportEpoch(uint64_t epoch, bool verified) {
  last_epoch_.store(epoch, std::memory_order_relaxed);
  last_epoch_verified_.store(verified, std::memory_order_relaxed);
  last_progress_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count(),
      std::memory_order_relaxed);
}

HttpResponse AdminServer::Readyz() const {
  const bool provisioned = provisioned_.load(std::memory_order_relaxed);
  const bool keys_warm = keys_warm_.load(std::memory_order_relaxed);
  const int64_t progress_ns =
      last_progress_ns_.load(std::memory_order_relaxed);
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const double staleness_seconds =
      progress_ns < 0 ? -1.0
                      : static_cast<double>(now_ns - progress_ns) * 1e-9;
  const bool fresh = progress_ns >= 0 &&
                     staleness_seconds <= options_.ready_staleness_seconds;
  const bool ready = provisioned && keys_warm && fresh;

  std::string body = "{\"ready\": ";
  body += ready ? "true" : "false";
  body += ", \"provisioned\": ";
  body += provisioned ? "true" : "false";
  body += ", \"keys_warm\": ";
  body += keys_warm ? "true" : "false";
  body += ", \"last_epoch\": " +
          std::to_string(last_epoch_.load(std::memory_order_relaxed));
  body += ", \"last_epoch_verified\": ";
  body += last_epoch_verified_.load(std::memory_order_relaxed) ? "true"
                                                               : "false";
  body += ", \"staleness_seconds\": ";
  AppendDouble(body, staleness_seconds);
  body += ", \"staleness_threshold_seconds\": ";
  AppendDouble(body, options_.ready_staleness_seconds);
  body += "}\n";
  return HttpResponse{ready ? 200 : 503, "application/json", std::move(body)};
}

void AdminServer::RegisterEndpoints() {
  http_.Handle("/metrics", [](const HttpRequest&) {
    return HttpResponse{
        200, "text/plain; version=0.0.4; charset=utf-8",
        telemetry::MetricsRegistry::Global().ToPrometheus()};
  });
  http_.Handle("/healthz", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  http_.Handle("/readyz",
               [this](const HttpRequest&) { return Readyz(); });
  http_.Handle("/queries", [this](const HttpRequest&) {
    std::vector<telemetry::QueryRecord> queries;
    if (queries_) queries = queries_();
    return HttpResponse{200, "application/json", QueriesJson(queries)};
  });
  http_.Handle("/epochs", [this](const HttpRequest& request) {
    size_t window = options_.default_epoch_window;
    const auto it = request.params.find("last");
    if (it != request.params.end()) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(it->second.c_str(), &end, 10);
      if (end == it->second.c_str() || *end != '\0' || parsed == 0 ||
          parsed > 100000) {
        return HttpResponse{400, "text/plain; charset=utf-8",
                            "bad request: ?last must be a positive integer "
                            "<= 100000\n"};
      }
      window = static_cast<size_t>(parsed);
    }
    return HttpResponse{200, "application/json",
                        telemetry::EpochTimeline::Global().ToJson(window)};
  });
}

}  // namespace sies::ops
