// sies_sim: command-line experiment driver.
//
// Runs any scheme over a configurable simulated network and prints a
// machine-readable summary (and optionally CSV) — the tool behind "try
// the paper's experiment grid yourself".
//
//   ./build/examples/sies_sim --scheme=sies --sources=1024 --fanout=4
//       --scale=2 --epochs=20
//   ./build/examples/sies_sim --scheme=secoa --sources=64 --j=300 --csv
//   ./build/examples/sies_sim --adversary=tamper --audit-out=audit.json
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/query_registry.h"
#include "engine/query_spec.h"
#include "predicate/answer.h"
#include "runner/runner.h"
#include "telemetry/telemetry.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: sies_sim [flags]\n"
      "  --scheme=sies|cmt|secoa   scheme to run (default sies)\n"
      "  --sources=N               number of sources (default 1024)\n"
      "  --fanout=F                aggregator fanout (default 4)\n"
      "  --scale=K                 domain = [18,50] * 10^K (default 2)\n"
      "  --epochs=E                epochs to average over (default 20)\n"
      "  --j=J                     SECOA sketch instances (default 300)\n"
      "  --rsa-bits=B              SECOA SEAL modulus bits (default 1024)\n"
      "  --seed=S                  deterministic seed (default 7)\n"
      "  --threads=T               simulator lanes: 0 = hardware "
      "concurrency,\n"
      "                            1 = serial; results are identical for "
      "any T\n"
      "  --loss-rate=P             radio loss probability per attempt in "
      "[0,1]\n"
      "                            (default 0; deterministic per --seed)\n"
      "  --max-retries=R           link-layer retransmissions per message "
      "(default 0)\n"
      "  --adversary=none|tamper|replay|drop\n"
      "                            in-flight attack to run under "
      "(default none)\n"
      "  --queries=K               SIES: run K concurrent queries instead\n"
      "                            of SUM(temperature) (one wire round per\n"
      "                            epoch; default mix cycles avg/variance/\n"
      "                            stddev/sum/count)\n"
      "  --queries-file=PATH       like --queries, but load the query mix\n"
      "                            from PATH (one `AGG ATTR [scale K]\n"
      "                            [where ...] [between ...] [id N]` per\n"
      "                            line; bands compile to dyadic buckets)\n"
      "  --histogram=FIELD:LO:HI:BUCKETS\n"
      "                            SIES: COUNT per equal-width cell\n"
      "                            of FIELD's [LO,HI] — each cell is a band\n"
      "                            query compiled to dyadic channels; prints\n"
      "                            the per-bucket counts and p50/p90/p99\n"
      "  --group-by=AGG:ATTR:FIELD:LO:HI:GROUPS\n"
      "                            SIES: AGG(ATTR) rolled up per\n"
      "                            equal-width cell of FIELD's [LO,HI]\n"
      "  --transport=sim|udp       SIES only: deliver epochs through\n"
      "                            the in-process simulator (default) or\n"
      "                            real UDP datagrams + acks on loopback.\n"
      "                            Loss injection stays deterministic, so\n"
      "                            both backends produce identical outcomes\n"
      "                            for the same seed\n"
      "  --ack-timeout-ms=T        UDP backend: per-attempt ack deadline\n"
      "                            (default 200)\n"
      "  --pipeline                SIES only: derive epoch t+1 keys\n"
      "                            on an idle-priority thread while epoch\n"
      "                            t's verification is consumed (identical\n"
      "                            outcomes, lower epoch latency)\n"
      "  --ops-port=P              SIES only: serve the live ops\n"
      "                            plane (GET /metrics /healthz /readyz\n"
      "                            /queries /epochs) on 127.0.0.1:P while\n"
      "                            the run is in flight; 0 = pick a free\n"
      "                            port (printed to stderr). Enables the\n"
      "                            per-epoch latency timeline.\n"
      "  --ops-staleness=S         /readyz turns 503 after S seconds\n"
      "                            without a finished epoch (default 30)\n"
      "  --epoch-ms=M              minimum wall time per epoch, so a\n"
      "                            scraper sees a live run (default 0)\n"
      "  --metrics-out=PATH        write the metrics registry as JSON "
      "(.prom\n"
      "                            suffix: Prometheus text format)\n"
      "  --trace-out=PATH          write a Chrome trace_event JSON "
      "(load in\n"
      "                            about://tracing or ui.perfetto.dev);\n"
      "                            enables the per-epoch latency timeline,\n"
      "                            whose records are the phase spans\n"
      "  --audit-out=PATH          write the security audit trail as "
      "JSON\n"
      "  --csv                     emit one CSV row instead of text\n"
      "  --dot                     print the topology as Graphviz DOT "
      "and exit\n");
}

/// Writes `contents` to `path`; returns false (with a message) on error.
bool WriteFileOrComplain(const std::string& path,
                         const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write to '%s'\n", path.c_str());
  return ok;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes the opted-in telemetry exports; returns false on any failure.
bool ExportTelemetry(const std::string& metrics_out,
                     const std::string& trace_out,
                     const std::string& audit_out) {
  bool ok = true;
  if (!metrics_out.empty()) {
    const auto& registry = sies::telemetry::MetricsRegistry::Global();
    ok &= WriteFileOrComplain(metrics_out, EndsWith(metrics_out, ".prom")
                                               ? registry.ToPrometheus()
                                               : registry.ToJson());
  }
  if (!trace_out.empty()) {
    ok &= WriteFileOrComplain(
        trace_out, sies::telemetry::Tracer::Global().ToChromeTrace());
  }
  if (!audit_out.empty()) {
    ok &= WriteFileOrComplain(
        audit_out, sies::telemetry::AuditTrail::Global().ToJson());
  }
  return ok;
}

std::vector<std::string> SplitColon(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = s.find(':', start);
    parts.push_back(s.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return parts;
}

bool ParseFieldName(const std::string& name, sies::core::Field* out) {
  if (name == "temperature") *out = sies::core::Field::kTemperature;
  else if (name == "humidity") *out = sies::core::Field::kHumidity;
  else if (name == "light") *out = sies::core::Field::kLight;
  else if (name == "voltage") *out = sies::core::Field::kVoltage;
  else return false;
  return true;
}

bool ParseAggName(const std::string& name, sies::core::Aggregate* out) {
  if (name == "sum") *out = sies::core::Aggregate::kSum;
  else if (name == "count") *out = sies::core::Aggregate::kCount;
  else if (name == "avg") *out = sies::core::Aggregate::kAvg;
  else if (name == "variance") *out = sies::core::Aggregate::kVariance;
  else if (name == "stddev") *out = sies::core::Aggregate::kStddev;
  else return false;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  try {
    size_t end = 0;
    *out = std::stod(s, &end);
    return end == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseU32(const std::string& s, uint32_t* out) {
  double v = 0.0;
  if (!ParseDouble(s, &v)) return false;
  if (v < 1 || v > 4096 || v != static_cast<uint32_t>(v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// A histogram or GROUP-BY demo run: the cell queries feed the engine
/// like any mix; the last answered epoch's outcomes assemble the shape.
struct ShapeDemo {
  bool active = false;
  bool is_histogram = false;
  double lo = 0.0;
  double hi = 0.0;
  uint32_t cells = 0;
  std::string title;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sies;
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = flags_or.value();
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }

  runner::ExperimentConfig config;
  std::string scheme = flags.GetString("scheme", "sies");
  if (scheme == "sies") {
    config.scheme = runner::Scheme::kSies;
  } else if (scheme == "cmt") {
    config.scheme = runner::Scheme::kCmt;
  } else if (scheme == "secoa") {
    config.scheme = runner::Scheme::kSecoa;
  } else {
    std::fprintf(stderr, "unknown --scheme '%s'\n", scheme.c_str());
    PrintUsage();
    return 2;
  }

  auto get = [&](const char* name, int64_t def) -> int64_t {
    auto v = flags.GetInt(name, def);
    if (!v.ok()) {
      std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
      std::exit(2);
    }
    return v.value();
  };
  config.num_sources = static_cast<uint32_t>(get("sources", 1024));
  config.fanout = static_cast<uint32_t>(get("fanout", 4));
  config.scale_pow10 = static_cast<uint32_t>(get("scale", 2));
  config.epochs = static_cast<uint32_t>(get("epochs", 20));
  config.secoa_j = static_cast<uint32_t>(get("j", 300));
  config.rsa_modulus_bits = static_cast<size_t>(get("rsa-bits", 1024));
  config.seed = static_cast<uint64_t>(get("seed", 7));
  config.threads = static_cast<uint32_t>(get("threads", 0));
  config.max_retries = static_cast<uint32_t>(get("max-retries", 0));
  auto loss_rate = flags.GetDouble("loss-rate", 0.0);
  if (!loss_rate.ok()) {
    std::fprintf(stderr, "%s\n", loss_rate.status().ToString().c_str());
    return 2;
  }
  config.loss_rate = loss_rate.value();
  if (config.loss_rate < 0.0 || config.loss_rate > 1.0) {
    std::fprintf(stderr, "--loss-rate must be in [0, 1]\n");
    return 2;
  }
  bool csv = flags.GetBool("csv", false).value_or(false);

  bool dot = flags.GetBool("dot", false).value_or(false);

  std::string adversary = flags.GetString("adversary", "none");
  if (adversary == "none") {
    config.adversary = runner::AdversaryKind::kNone;
  } else if (adversary == "tamper") {
    config.adversary = runner::AdversaryKind::kTamper;
  } else if (adversary == "replay") {
    config.adversary = runner::AdversaryKind::kReplay;
  } else if (adversary == "drop") {
    config.adversary = runner::AdversaryKind::kDrop;
  } else {
    std::fprintf(stderr, "unknown --adversary '%s'\n", adversary.c_str());
    PrintUsage();
    return 2;
  }

  // SIES query mix: --queries / --queries-file replace the default
  // SUM(temperature) with K concurrent queries (one wire round per epoch
  // for the whole mix).
  const bool mix_given = flags.Has("queries") || flags.Has("queries-file");
  if (flags.Has("queries") && flags.Has("queries-file")) {
    std::fprintf(stderr, "give either --queries or --queries-file, not both\n");
    return 2;
  }
  if (flags.Has("queries-file")) {
    auto loaded = engine::LoadQueriesFile(flags.GetString("queries-file", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    for (const core::Query& q : loaded.value()) config.queries.push_back({q});
  } else {
    auto k = flags.GetIntInRange("queries", 0, 1,
                                 engine::kMaxQueryId + 1);
    if (!k.ok()) {
      std::fprintf(stderr, "%s\n", k.status().ToString().c_str());
      return 2;
    }
    if (flags.Has("queries")) {
      for (const core::Query& q :
           engine::DefaultQueryMix(static_cast<uint32_t>(k.value()))) {
        config.queries.push_back({q});
      }
    }
  }
  // Shape demos: --histogram / --group-by compile a partition of band
  // queries (predicate/answer) and run them as an ordinary engine mix.
  ShapeDemo demo;
  if (flags.Has("histogram") || flags.Has("group-by")) {
    if (mix_given || (flags.Has("histogram") && flags.Has("group-by"))) {
      std::fprintf(stderr,
                   "give exactly one of --queries, --queries-file, "
                   "--histogram, --group-by\n");
      return 2;
    }
    StatusOr<std::vector<core::Query>> cells =
        Status::InvalidArgument("unparsed shape spec");
    if (flags.Has("histogram")) {
      const auto parts = SplitColon(flags.GetString("histogram", ""));
      predicate::HistogramSpec spec;
      if (parts.size() != 4 || !ParseFieldName(parts[0], &spec.field) ||
          !ParseDouble(parts[1], &spec.lo) ||
          !ParseDouble(parts[2], &spec.hi) ||
          !ParseU32(parts[3], &spec.buckets)) {
        std::fprintf(stderr, "--histogram needs FIELD:LO:HI:BUCKETS\n");
        return 2;
      }
      spec.scale_pow10 = config.scale_pow10;
      spec.attribute = spec.field;
      demo.is_histogram = true;
      demo.lo = spec.lo;
      demo.hi = spec.hi;
      demo.cells = spec.buckets;
      demo.title = "COUNT(" + parts[0] + ") in [" + parts[1] + ", " +
                   parts[2] + "], " + parts[3] + " buckets";
      cells = predicate::CompileHistogram(spec, /*first_query_id=*/0);
    } else {
      const auto parts = SplitColon(flags.GetString("group-by", ""));
      predicate::GroupBySpec spec;
      if (parts.size() != 6 || !ParseAggName(parts[0], &spec.aggregate) ||
          !ParseFieldName(parts[1], &spec.attribute) ||
          !ParseFieldName(parts[2], &spec.group_field) ||
          !ParseDouble(parts[3], &spec.lo) ||
          !ParseDouble(parts[4], &spec.hi) ||
          !ParseU32(parts[5], &spec.groups)) {
        std::fprintf(stderr,
                     "--group-by needs AGG:ATTR:FIELD:LO:HI:GROUPS\n");
        return 2;
      }
      spec.scale_pow10 = config.scale_pow10;
      demo.lo = spec.lo;
      demo.hi = spec.hi;
      demo.cells = spec.groups;
      demo.title = parts[0] + "(" + parts[1] + ") by " + parts[2] +
                   " in [" + parts[3] + ", " + parts[4] + "], " + parts[5] +
                   " groups";
      cells = predicate::CompileGroupBy(spec, /*first_query_id=*/0);
    }
    if (!cells.ok()) {
      std::fprintf(stderr, "%s\n", cells.status().ToString().c_str());
      return 2;
    }
    for (const core::Query& q : cells.value()) config.queries.push_back({q});
    demo.active = true;
  }

  std::string transport = flags.GetString("transport", "sim");
  if (transport != "sim" && transport != "udp") {
    std::fprintf(stderr, "unknown --transport '%s' (sim|udp)\n",
                 transport.c_str());
    return 2;
  }
  config.transport = transport == "udp" ? runner::TransportKind::kUdp
                                        : runner::TransportKind::kSim;
  config.pipeline = flags.GetBool("pipeline", false).value_or(false);
  auto ack_timeout_ms = flags.GetIntInRange("ack-timeout-ms", 200, 1, 60'000);
  if (!ack_timeout_ms.ok()) {
    std::fprintf(stderr, "%s\n", ack_timeout_ms.status().ToString().c_str());
    return 2;
  }
  config.udp_ack_timeout_ms = static_cast<uint32_t>(ack_timeout_ms.value());

  // Ops plane: --ops-port starts the embedded admin server inside the
  // run and turns the per-epoch latency timeline on.
  if (flags.Has("ops-port")) {
    auto p = flags.GetIntInRange("ops-port", 0, 0, 65535);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 2;
    }
    config.ops_port = static_cast<int>(p.value());
    config.on_ops_ready = [](uint16_t port) {
      // stderr, flushed immediately: scripts block on this line to
      // learn the resolved ephemeral port (ctest example_sies_sim_ops).
      std::fprintf(stderr, "ops: serving http://127.0.0.1:%u\n", port);
      std::fflush(stderr);
    };
    telemetry::EpochTimeline::Global().Enable();
  }
  auto ops_staleness = flags.GetDouble("ops-staleness", 30.0);
  if (!ops_staleness.ok() || ops_staleness.value() <= 0.0) {
    std::fprintf(stderr, "--ops-staleness must be a positive number\n");
    return 2;
  }
  config.ops_staleness_seconds = ops_staleness.value();
  auto epoch_ms = flags.GetIntInRange("epoch-ms", 0, 0, 60'000);
  if (!epoch_ms.ok()) {
    std::fprintf(stderr, "%s\n", epoch_ms.status().ToString().c_str());
    return 2;
  }
  config.epoch_pacing_ms = static_cast<uint32_t>(epoch_ms.value());

  std::string metrics_out = flags.GetString("metrics-out", "");
  std::string trace_out = flags.GetString("trace-out", "");
  std::string audit_out = flags.GetString("audit-out", "");
  // Metrics are always collected (relaxed atomics, effectively free);
  // tracing and auditing are opt-in because they record real payload
  // comparisons and timeline entries. The trace's phase and epoch spans
  // are the epoch timeline's records, so tracing turns the timeline on.
  if (!trace_out.empty()) {
    sies::telemetry::Tracer::Global().Enable();
    sies::telemetry::EpochTimeline::Global().Enable();
  }
  if (!audit_out.empty()) sies::telemetry::AuditTrail::Global().Enable();

  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unused.c_str());
  }

  if (dot) {
    auto topology =
        net::Topology::BuildCompleteTree(config.num_sources, config.fanout);
    if (!topology.ok()) {
      std::fprintf(stderr, "%s\n", topology.status().ToString().c_str());
      return 1;
    }
    std::fputs(topology.value().ToDot().c_str(), stdout);
    return 0;
  }

  if (config.scheme == runner::Scheme::kSecoa &&
      config.num_sources * config.secoa_j > 2'000'000) {
    std::fprintf(stderr,
                 "note: SECOA at N=%u, J=%u is expensive; this may take "
                 "minutes\n",
                 config.num_sources, config.secoa_j);
  }

  // The shape assembles from the LAST answered epoch's verified per-cell
  // outcomes.
  std::vector<engine::QueryEpochOutcome> last_outcomes;
  if (demo.active) {
    config.on_epoch_outcomes =
        [&last_outcomes](uint64_t /*epoch*/, bool answered,
                         const std::vector<engine::QueryEpochOutcome>&
                             outcomes) {
          if (answered) last_outcomes = outcomes;
        };
  }
  auto result = runner::RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return result.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  const runner::ExperimentResult& r = result.value();

  // Telemetry exports. `--metrics-out=foo.prom` selects the Prometheus
  // text format; any other suffix gets the JSON export.
  if (!ExportTelemetry(metrics_out, trace_out, audit_out)) return 1;

  if (csv) {
    // One row per SIES query (CMT and SECOA_S: one row, query columns
    // empty); the run-wide columns repeat on every row. sql stays last
    // so `cut -d,` on the other columns is safe.
    std::printf(
        "scheme,sources,fanout,scale,epochs,src_us,agg_us,qry_ms,"
        "sa_bytes,aa_bytes,aq_bytes,verified,rel_err,"
        "answered,unanswered,partial,coverage,retransmits,lost,idle,"
        "channel_epochs,naive_channel_epochs,query_id,query_answered,"
        "query_verified,query_unverified,query_partial,query_coverage,"
        "last_value,channels,sql\n");
    char run[512];
    std::snprintf(
        run, sizeof run,
        "%s,%u,%u,%u,%u,%.3f,%.3f,%.3f,%.0f,%.0f,%.0f,%d,%.6f,"
        "%u,%u,%u,%.6f,%llu,%llu,%u,%llu,%llu",
        r.scheme_name.c_str(), config.num_sources, config.fanout,
        config.scale_pow10, r.epochs, r.source_cpu_seconds * 1e6,
        r.aggregator_cpu_seconds * 1e6, r.querier_cpu_seconds * 1e3,
        r.source_to_aggregator_bytes, r.aggregator_to_aggregator_bytes,
        r.aggregator_to_querier_bytes, r.all_verified ? 1 : 0,
        r.mean_relative_error, r.answered_epochs, r.unanswered_epochs,
        r.partial_epochs, r.mean_coverage,
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.lost_messages), r.idle_epochs,
        static_cast<unsigned long long>(r.channel_epochs),
        static_cast<unsigned long long>(r.naive_channel_epochs));
    if (r.queries.empty()) std::printf("%s,,,,,,,,,\n", run);
    for (const telemetry::QueryRecord& qs : r.queries) {
      std::printf("%s,%u,%llu,%llu,%llu,%llu,%.6f,%.6f,%u,\"%s\"\n", run,
                  qs.query_id,
                  static_cast<unsigned long long>(qs.answered_epochs),
                  static_cast<unsigned long long>(qs.verified_epochs),
                  static_cast<unsigned long long>(qs.unverified_epochs),
                  static_cast<unsigned long long>(qs.partial_epochs),
                  qs.mean_coverage, qs.last_value, qs.wire_channels,
                  qs.sql.c_str());
    }
    return 0;
  }

  std::printf("scheme            : %s", r.scheme_name.c_str());
  if (!r.queries.empty()) {
    std::printf(" (%zu %s)", r.queries.size(),
                r.queries.size() == 1 ? "query" : "queries");
  }
  std::printf("\nnetwork           : N=%u, F=%u, D=[18,50]x10^%u, %u epochs\n",
              config.num_sources, config.fanout, config.scale_pow10,
              r.epochs);
  std::printf("transport         : %s%s\n", transport.c_str(),
              config.pipeline ? " (pipelined)" : "");
  if (config.transport == runner::TransportKind::kUdp) {
    std::printf("udp               : %llu datagrams sent, %llu malformed "
                "dropped\n",
                static_cast<unsigned long long>(r.udp_datagrams_sent),
                static_cast<unsigned long long>(r.udp_malformed_datagrams));
  }
  std::printf("source CPU        : %.3f us/epoch (min %.3f, max %.3f, "
              "sd %.3f)\n",
              r.source_cpu_seconds * 1e6, r.source_cpu_spread.min_seconds * 1e6,
              r.source_cpu_spread.max_seconds * 1e6,
              r.source_cpu_spread.stddev_seconds * 1e6);
  std::printf("aggregator CPU    : %.3f us/epoch (min %.3f, max %.3f, "
              "sd %.3f)\n",
              r.aggregator_cpu_seconds * 1e6,
              r.aggregator_cpu_spread.min_seconds * 1e6,
              r.aggregator_cpu_spread.max_seconds * 1e6,
              r.aggregator_cpu_spread.stddev_seconds * 1e6);
  std::printf("querier CPU       : %.3f ms/epoch (min %.3f, max %.3f, "
              "sd %.3f)\n",
              r.querier_cpu_seconds * 1e3, r.querier_cpu_spread.min_seconds * 1e3,
              r.querier_cpu_spread.max_seconds * 1e3,
              r.querier_cpu_spread.stddev_seconds * 1e3);
  std::printf("edge bytes        : S-A %.0f, A-A %.0f, A-Q %.0f\n",
              r.source_to_aggregator_bytes,
              r.aggregator_to_aggregator_bytes,
              r.aggregator_to_querier_bytes);
  std::printf("all verified      : %s (%u/%u epochs unverified)\n",
              r.all_verified ? "yes" : "NO", r.unverified_epochs, r.epochs);
  std::printf("epochs            : %u answered, %u unanswered, %u idle\n",
              r.answered_epochs, r.unanswered_epochs, r.idle_epochs);
  if (config.loss_rate > 0.0) {
    std::printf("radio loss        : rate %.3f, retries %u: %u partial "
                "epochs\n",
                config.loss_rate, config.max_retries, r.partial_epochs);
    std::printf("coverage          : %.4f mean over answered epochs\n",
                r.mean_coverage);
    std::printf("link layer        : %llu retransmits, %llu messages lost "
                "for good\n",
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.lost_messages));
  }
  if (config.adversary != runner::AdversaryKind::kNone) {
    std::printf("adversary         : %s, %llu events\n", adversary.c_str(),
                static_cast<unsigned long long>(r.adversary_events));
  }
  std::printf("mean relative err : %.4f%%\n", r.mean_relative_error * 100);
  if (!r.queries.empty()) {
    std::printf("channel epochs    : %llu on the wire vs %llu naive "
                "(dedup saved %llu)\n",
                static_cast<unsigned long long>(r.channel_epochs),
                static_cast<unsigned long long>(r.naive_channel_epochs),
                static_cast<unsigned long long>(r.naive_channel_epochs -
                                                r.channel_epochs));
  }
  for (const telemetry::QueryRecord& qs : r.queries) {
    std::printf("  q%-4u %-44s : %llu/%llu verified (%llu partial), "
                "last=%.4f, %u wire channels\n",
                qs.query_id, qs.sql.c_str(),
                static_cast<unsigned long long>(qs.verified_epochs),
                static_cast<unsigned long long>(qs.answered_epochs),
                static_cast<unsigned long long>(qs.partial_epochs),
                qs.last_value, qs.wire_channels);
  }

  if (demo.active) {
    std::vector<core::EpochOutcome> cell_outcomes(demo.cells);
    for (const engine::QueryEpochOutcome& qo : last_outcomes) {
      if (qo.query_id < demo.cells) cell_outcomes[qo.query_id] = qo.outcome;
    }
    auto shape = predicate::AssembleCells(demo.lo, demo.hi, demo.cells,
                                          config.scale_pow10, cell_outcomes);
    if (!shape.ok()) {
      std::fprintf(stderr, "shape assembly failed: %s\n",
                   shape.status().ToString().c_str());
      return 1;
    }
    const predicate::ShapeAnswer& answer = shape.value();
    std::printf("%-18s: %s (last answered epoch, %s)\n",
                demo.is_histogram ? "histogram" : "group-by",
                demo.title.c_str(),
                answer.all_verified ? "all cells verified"
                                    : "UNVERIFIED cells");
    uint64_t max_count = 1;
    for (const predicate::AnswerCell& cell : answer.cells) {
      max_count = std::max(max_count, cell.count);
    }
    for (const predicate::AnswerCell& cell : answer.cells) {
      const int bar = static_cast<int>(40 * cell.count / max_count);
      std::printf("  [%8.2f, %8.2f]  value=%-12.4f count=%-6llu %s %.*s\n",
                  cell.lo, cell.hi, cell.value,
                  static_cast<unsigned long long>(cell.count),
                  cell.verified ? "ok " : "BAD", bar,
                  "########################################");
    }
    if (demo.is_histogram && answer.all_verified &&
        answer.total_count > 0) {
      auto p50 = answer.Quantile(0.5);
      auto p90 = answer.Quantile(0.9);
      auto p99 = answer.Quantile(0.99);
      if (p50.ok() && p90.ok() && p99.ok()) {
        std::printf("  quantiles         : p50=%.3f p90=%.3f p99=%.3f "
                    "(n=%llu, exact to one cell width)\n",
                    p50.value(), p90.value(), p99.value(),
                    static_cast<unsigned long long>(answer.total_count));
      }
    }
  }
  // Under a deliberate attack, unverified epochs are the expected
  // outcome, not a failure of the tool. Same for radio loss: unanswered
  // and partial epochs are graceful degradation, and `all_verified`
  // already covers every answered epoch.
  if (config.adversary != runner::AdversaryKind::kNone) return 0;
  return r.all_verified ? 0 : 1;
}
