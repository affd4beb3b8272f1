// EpochTimeline: per-epoch latency attribution for the live ops plane.
//
// The timeline answers the operator's question mid-run: "where did THIS
// epoch's time go". Every epoch is decomposed into named phases
// (key-derive, PSR-create, tree-aggregate, wire-parse, per-channel
// verify, assemble, transport); each phase accumulates total attributed
// seconds, call count, the slowest single call, and — for phases fanned
// out over the ThreadPool — the busiest lane, from which EndEpoch
// computes the epoch's critical path (Σ per-phase busiest-lane times, a
// lower bound on wall time by construction). Per-channel verify samples
// keep their slot / salt / kind identity so a tampered channel's cost is
// attributable to the exact wire slot that burned it.
//
// Each record is the reading of the one stopwatch that times the
// interval (Network::RunEpoch's per-call stopwatches, the engine's
// querier sub-phases), which also feeds EpochReport and
// `sies_phase_seconds`. While the tracer is on, each record is also a
// span named after its phase, and each epoch an `epoch` span.
//
// Finished epochs land in a bounded ring buffer (default 256 records)
// served by the admin server's `GET /epochs?last=K`.
//
// Recording is OFF by default; a disabled timeline costs one relaxed
// atomic load per probe (guarded by bench/telemetry_overhead). An
// enabled timeline takes a mutex per probe — the opt-in price of live
// attribution, paid only while an operator is watching.
#ifndef SIES_TELEMETRY_EPOCH_TIMELINE_H_
#define SIES_TELEMETRY_EPOCH_TIMELINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"

namespace sies::telemetry {

/// Where an epoch's time can go. Order is export order.
enum class EpochPhase : uint8_t {
  kKeyDerive = 0,     ///< epoch key/share derivation (querier warm-up)
  kPsrCreate = 1,     ///< source calls (AggregationProtocol::SourceInitialize)
  kTreeAggregate = 2, ///< aggregator calls (AggregatorMerge), whole tree
  kWireParse = 3,     ///< final envelope parse at the querier
  kVerify = 4,        ///< per-channel decrypt + verify fan-out
  kAssemble = 5,      ///< per-query outcome assembly from channel sums
  kTransport = 6,     ///< link-layer delivery (sim loss model or real UDP)
};
inline constexpr size_t kEpochPhaseCount = 7;

/// Stable lowercase name ("key_derive", "psr_create", ...).
const char* EpochPhaseName(EpochPhase phase);

/// One phase's accumulated attribution within one epoch.
struct PhaseStat {
  double total_seconds = 0.0;     ///< Σ over calls (CPU view)
  double max_call_seconds = 0.0;  ///< slowest single call
  /// Busiest thread's share of total_seconds — the phase's contribution
  /// to the critical path. Equals total_seconds for serial phases.
  double lane_max_seconds = 0.0;
  uint64_t calls = 0;
};

/// One physical channel's verification, attributed to its wire slot.
struct ChannelVerifySample {
  uint32_t slot = 0;      ///< index into the epoch's wire plan
  uint32_t salt_id = 0;   ///< PRF-salt identity of the slot
  const char* kind = "";  ///< "sum" / "sum_squares" / "count"
  /// Dyadic bucket identity of a compiled range channel (predicate
  /// compiler): level = log2 of the bucket width on the scaled domain,
  /// index = its position. level is -1 for full-domain channels.
  int32_t bucket_level = -1;
  uint64_t bucket_index = 0;
  double seconds = 0.0;
  bool verified = true;
  uint32_t tid = 0;       ///< dense thread id (Tracer::CurrentThreadId)
};

/// Run-loop verdicts stamped onto the record at EndEpoch.
struct EpochVerdict {
  bool answered = false;
  bool verified = false;
  double coverage = 0.0;
  uint32_t live_queries = 0;
  uint32_t contributors = 0;
  uint32_t expected_contributors = 0;
};

/// One finished epoch, as served by `GET /epochs`.
struct EpochRecord {
  uint64_t epoch = 0;
  double wall_seconds = 0.0;
  /// Σ phase totals: how much of the wall the probes explain.
  double attributed_seconds = 0.0;
  /// Σ per-phase busiest-lane times, clamped to wall_seconds (clock
  /// noise on sub-microsecond phases must not report a critical path
  /// longer than the epoch itself).
  double critical_path_seconds = 0.0;
  std::array<PhaseStat, kEpochPhaseCount> phases{};
  std::vector<ChannelVerifySample> channels;  ///< wire-slot order
  uint32_t tampered_channels = 0;  ///< channels with verified == false
  bool answered = false;
  bool verified = false;
  double coverage = 0.0;
  uint32_t live_queries = 0;
  uint32_t contributors = 0;
  uint32_t expected_contributors = 0;
};

class EpochTimeline {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Ring capacity in finished epochs (default 256; clamped to >= 1).
  /// Shrinking drops the oldest records immediately.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Opens the record for `epoch` (no-op while disabled). An already
  /// open record is discarded — a crash mid-epoch must not poison the
  /// next one.
  void BeginEpoch(uint64_t epoch);

  /// Accumulates `seconds` into `phase` of the open record, on the
  /// calling thread's lane, and traces it as a span named after the
  /// phase. Safe to call from pool lanes; no-op (one relaxed load) while
  /// disabled, and no-op with no open record.
  void RecordPhase(EpochPhase phase, double seconds) {
    if (enabled()) Record(phase, seconds, nullptr);
  }

  /// Records one channel verification (also accumulates into kVerify
  /// and traces a `verify` span).
  void RecordChannelVerify(const ChannelVerifySample& sample) {
    if (enabled()) Record(EpochPhase::kVerify, sample.seconds, &sample);
  }

  /// Seals the open record with the run loop's verdicts, computes the
  /// critical path, pushes it into the ring (evicting the oldest record
  /// when full) and traces its wall as the `epoch` span. No-op while
  /// disabled or with no open record.
  void EndEpoch(const EpochVerdict& verdict);

  /// The most recent min(k, size()) finished epochs, oldest first.
  std::vector<EpochRecord> Last(size_t k) const;

  /// Finished epochs currently held (<= capacity()).
  size_t size() const;
  /// Finished epochs ever recorded (monotone across evictions).
  uint64_t epochs_recorded() const;

  /// Drops all records and any open epoch (keeps enabled state and
  /// capacity).
  void Reset();

  /// {"window": K, "capacity": ..., "epochs_recorded": ...,
  ///  "epochs": [...]} for the most recent min(k, size()) epochs,
  ///  oldest first.
  std::string ToJson(size_t last_k) const;

  /// The timeline all built-in instrumentation reports to.
  static EpochTimeline& Global();

 private:
  struct LaneAcc {
    uint32_t tid = 0;
    double seconds = 0.0;
  };

  /// Accumulates one call (and `sample`, when non-null) into the open
  /// record on its lane, then traces it.
  void Record(EpochPhase phase, double seconds,
              const ChannelVerifySample* sample);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  size_t capacity_ = 256;
  std::deque<EpochRecord> ring_;
  uint64_t epochs_recorded_ = 0;
  bool open_ = false;
  EpochRecord current_;
  std::array<std::vector<LaneAcc>, kEpochPhaseCount> lanes_;
  Stopwatch epoch_watch_;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_EPOCH_TIMELINE_H_
