// Predicate compiler: compiled dyadic range queries vs the naive
// per-value channel layout, and exact vs sketch-approximate answers.
//
// A band query over a scaled domain of D integers could be served
// naively with one COUNT/SUM channel per domain value (D channels) or a
// per-bucket session per dyadic leaf; the compiler instead emits at
// most 2 * ceil(log2 D) bucketed channels per kind. This bench sweeps
// band widths over the same trace and reports, per range:
//
//   * compiled wire channels vs the dyadic bound and the naive D;
//   * querier ms per epoch as the bucket count grows;
//   * the exact verified engine COUNT vs the AMS sketch estimate
//     (ApproxBandAggregate) over one epoch's readings.
//
// Emits BENCH_predicate.json (row key: "range"). The claims to check:
// bound_met on every row (compiled <= 2 * ceil(log2 D)), compiled
// channels orders of magnitude under naive_leaf_channels, all_verified.
//
//   ./build/bench/predicate_ranges --smoke   # tiny grid, JSON plumbing
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_json.h"
#include "predicate/answer.h"
#include "predicate/compiler.h"
#include "predicate/dyadic.h"
#include "runner/runner.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace sies;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t sources = smoke ? 64 : 256;
  const uint32_t epochs = smoke ? 4 : 12;
  constexpr uint64_t kSeed = 9;
  constexpr uint32_t kScale = 2;

  bench::BenchReport report("predicate");
  report.config().Add("sources", sources);
  report.config().Add("epochs", epochs);
  report.config().Add("seed", kSeed);
  report.config().Add("scale_pow10", kScale);
  report.config().Add("smoke", smoke);

  struct RangePoint {
    const char* label;
    double lo, hi;
  };
  // Scaled domain sizes 2 .. 2501: wide enough to watch the dyadic
  // cover grow logarithmically while the naive layout grows linearly.
  const RangePoint points[] = {
      {"[20.00,20.01]", 20.0, 20.01}, {"[20.0,20.5]", 20.0, 20.5},
      {"[20,25]", 20.0, 25.0},        {"[20,30]", 20.0, 30.0},
      {"[20,45]", 20.0, 45.0},
  };

  std::printf("=== Compiled range queries vs naive per-value channels "
              "(N=%u, %u epochs, scale 10^-%u) ===\n",
              sources, epochs, kScale);
  std::printf("%-16s | %7s %7s %9s | %10s | %12s %12s %8s\n", "range",
              "domain", "chans", "2ceil(lg)", "naive", "exact", "approx",
              "qry ms");

  for (const RangePoint& pt : points) {
    core::Query q;
    q.aggregate = core::Aggregate::kCount;
    q.attribute = core::Field::kTemperature;
    q.scale_pow10 = kScale;
    q.query_id = 0;
    core::Band band;
    band.field = core::Field::kTemperature;
    band.lo = pt.lo;
    band.hi = pt.hi;
    q.band = band;

    auto scaled = predicate::QuantizeBand(band, kScale);
    if (!scaled.ok()) {
      std::fprintf(stderr, "quantize failed: %s\n",
                   scaled.status().ToString().c_str());
      return 1;
    }
    const uint64_t domain = scaled.value().hi - scaled.value().lo + 1;
    const uint32_t bound = predicate::MaxIntervalsForDomain(domain);

    runner::ExperimentConfig config;
    config.num_sources = sources;
    config.epochs = epochs;
    config.seed = kSeed;
    config.threads = 1;
    config.queries.push_back({q});
    auto run = runner::RunExperiment(config);
    if (!run.ok()) {
      std::fprintf(stderr, "engine run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    const runner::ExperimentResult& er = run.value();
    const uint32_t compiled = er.queries.empty()
                                  ? 0
                                  : er.queries.front().wire_channels;
    const bool bound_met = compiled <= bound && compiled > 0;

    // Exact vs approximate over one epoch's readings: brute-force
    // membership on the source side (the ground truth the verified
    // engine answer equals bit-for-bit) against the AMS estimate.
    workload::TraceConfig tc;
    tc.num_sources = sources;
    tc.seed = kSeed;
    workload::TraceGenerator trace(tc);
    std::vector<core::SensorReading> readings;
    for (uint32_t i = 0; i < sources; ++i) {
      readings.push_back(trace.ReadingAt(i, /*epoch=*/1));
    }
    uint64_t exact = 0;
    for (const core::SensorReading& r : readings) {
      auto v = core::ScaledFieldValue(r, band.field, kScale);
      if (v.ok() && v.value() >= scaled.value().lo &&
          v.value() <= scaled.value().hi) {
        ++exact;
      }
    }
    auto approx = predicate::ApproxBandAggregate(
        band, kScale, readings, /*j=*/smoke ? 64 : 256, /*seed=*/kSeed);
    if (!approx.ok()) {
      std::fprintf(stderr, "sketch estimate failed: %s\n",
                   approx.status().ToString().c_str());
      return 1;
    }
    const double err_pct =
        exact == 0 ? 0.0
                   : 100.0 * std::fabs(approx.value() -
                                       static_cast<double>(exact)) /
                         static_cast<double>(exact);

    const double querier_ms = er.querier_cpu_seconds * 1e3;
    std::printf("%-16s | %7llu %7u %9u | %10llu | %12llu %12.2f %8.3f\n",
                pt.label, static_cast<unsigned long long>(domain), compiled,
                bound, static_cast<unsigned long long>(domain),
                static_cast<unsigned long long>(exact), approx.value(),
                querier_ms);
    if (!er.all_verified || !bound_met) {
      std::fprintf(stderr,
                   "FAIL at %s: verified=%d compiled=%u bound=%u\n",
                   pt.label, er.all_verified ? 1 : 0, compiled, bound);
      return 1;
    }

    bench::JsonObject row;
    row.Add("range", pt.label);
    row.Add("scaled_domain", domain);
    row.Add("compiled_channels", compiled);
    row.Add("dyadic_channel_bound", bound);
    row.Add("naive_leaf_channels", domain);
    row.Add("channel_epochs", er.channel_epochs);
    row.Add("naive_channel_epochs", er.naive_channel_epochs);
    row.Add("querier_ms", querier_ms);
    row.Add("source_us", er.source_cpu_seconds * 1e6);
    row.Add("aggregator_us", er.aggregator_cpu_seconds * 1e6);
    row.Add("exact_count", exact);
    row.Add("approx_count", approx.value());
    row.Add("approx_err_pct", err_pct);
    row.Add("bound_met", bound_met);
    row.Add("all_verified", er.all_verified);
    report.AddRow(std::move(row));
  }

  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf(
      "\nshape check: compiled channels grow ~logarithmically (never past "
      "2*ceil(log2 D)) while the naive per-value layout grows linearly "
      "with the scaled domain; every engine answer is verified and the "
      "sketch estimate tracks the exact count within sketch error.\n"
      "wrote %s\n", path.c_str());
  return 0;
}
