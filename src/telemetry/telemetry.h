// Umbrella header for the telemetry layer: metrics registry, phase
// tracer, and security audit trail (see docs/OBSERVABILITY.md for
// metric names, label conventions, and exporter formats).
//
// The layer is compiled in unconditionally and designed to be cheap
// when nothing reads it:
//   * counters/gauges/histograms update via relaxed atomics (always on;
//     an unread registry is the no-op sink),
//   * spans and audit events are gated behind a relaxed atomic "enabled"
//     flag (off by default),
//   * bench/telemetry_overhead guards the total at <2% of the fig6a
//     warm-evaluate hot path with sinks disabled.
#ifndef SIES_TELEMETRY_TELEMETRY_H_
#define SIES_TELEMETRY_TELEMETRY_H_

#include "telemetry/audit.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::telemetry {

/// Turns span tracing, audit recording, and the epoch timeline off.
inline void DisableAll() {
  Tracer::Global().Disable();
  AuditTrail::Global().Disable();
  EpochTimeline::Global().Disable();
}

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_TELEMETRY_H_
