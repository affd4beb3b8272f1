// Phase tracer: per-epoch span events with a Chrome trace_event
// exporter (about://tracing, ui.perfetto.dev), one row per thread, so a
// `--threads` run shows its psr_create spans overlapping.
//
// Spans carry readings other probes already took: the EpochTimeline
// traces each phase record and each epoch, Network::RunEpoch each
// querier call (`evaluate`). Only the epoch-key cache's cold
// derivations use ScopedSpan: nothing else times a derivation on the
// pipelining prefetch thread.
//
// Tracing is OFF by default. A disabled tracer costs one relaxed atomic
// load per probe: no clock read, no allocation, no lock. Recording takes
// a mutex per completed span.
#ifndef SIES_TELEMETRY_TRACE_H_
#define SIES_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sies::telemetry {

/// One completed span. `name`/`category` must point at storage that
/// outlives the tracer — in practice, string literals at call sites.
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  uint64_t epoch = 0;    ///< protocol epoch the span belongs to (0 = n/a)
  uint64_t ts_us = 0;    ///< start, microseconds since tracer creation
  uint64_t dur_us = 0;   ///< duration in microseconds
  uint32_t tid = 0;      ///< dense thread id (0 = first thread seen)
};

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops all recorded spans (does not change enabled state).
  void Reset();

  /// Microseconds since tracer construction (monotonic clock).
  uint64_t NowMicros() const;

  /// Records one completed span; thread id is captured from the caller.
  void Record(const char* name, const char* category, uint64_t epoch,
              uint64_t ts_us, uint64_t dur_us);

  /// Records a span that ends now and lasted `seconds` (rounded to the
  /// microsecond): how a probe hands its one reading to the trace.
  /// No-op while disabled.
  void RecordElapsed(const char* name, const char* category, uint64_t epoch,
                     double seconds);

  std::vector<SpanEvent> Events() const;
  size_t size() const;

  /// Chrome trace_event JSON: {"traceEvents": [{"ph": "X", ...}, ...]}.
  /// Loadable directly in about://tracing and ui.perfetto.dev.
  std::string ToChromeTrace() const;

  /// Dense id of the calling thread (stable for the thread's lifetime).
  static uint32_t CurrentThreadId();

  /// The tracer all built-in instrumentation reports to.
  static Tracer& Global();

 private:
  std::atomic<bool> enabled_{false};
  uint64_t base_ns_ = 0;  // steady_clock at construction
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
};

/// RAII span: captures the start time on construction (only if the
/// tracer is enabled) and records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, uint64_t epoch,
             Tracer& tracer = Tracer::Global())
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        category_(category),
        epoch_(epoch) {
    if (tracer_ != nullptr) start_us_ = tracer_->NowMicros();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, category_, epoch_, start_us_,
                      tracer_->NowMicros() - start_us_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  uint64_t epoch_;
  uint64_t start_us_ = 0;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_TRACE_H_
