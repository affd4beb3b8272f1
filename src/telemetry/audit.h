// Security audit trail: a machine-readable record of WHY a run was not
// clean. Every adversary mutation or drop observed on the wire, every
// radio loss, every verification failure at the querier, and every
// μTesla freshness/authentication rejection is recorded as a structured
// event with epoch, node id, and cause — queryable after a run and
// dumped by `sies_sim --audit-out`.
//
// Rationale (RSAED, Merad Boudia & Feham): robust aggregation
// deployments must *attribute* tampering, not just reject the result.
// The simulator sits in a privileged position — it sees payloads before
// and after the adversary — so it can attribute exactly.
//
// Recording is OFF by default; a disabled trail costs one relaxed
// atomic load per probe. Crucially, the byte-compare the network needs
// to detect in-flight mutation only happens when the trail is enabled.
//
// The trail is a bounded ring (SetCapacity): a soak run under sustained
// attack evicts its oldest events instead of growing without limit, and
// every eviction is counted (dropped_events(), exported as
// `sies_audit_dropped_events_total` on the ops plane's /metrics).
#ifndef SIES_TELEMETRY_AUDIT_H_
#define SIES_TELEMETRY_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace sies::telemetry {

/// What happened. kTamper/kAdversaryDrop are attributed by the network
/// (payload byte-compare around the adversary hook); kRadioLoss by the
/// loss model; kVerificationFailure by the querier outcome;
/// kReportedLoss when a verified epoch covered fewer contributors than
/// expected (the contributor set reported the gap in-band — graceful
/// degradation, not tampering); kFreshnessViolation / kAuthFailure by
/// μTesla receivers.
enum class AuditKind {
  kTamper,
  kAdversaryDrop,
  kRadioLoss,
  kVerificationFailure,
  kReportedLoss,
  kFreshnessViolation,
  kAuthFailure,
  kQueryAdmitted,  ///< multi-query engine admitted a live query
  kQueryTeardown,  ///< multi-query engine tore a live query down
};

/// Stable lowercase name ("tamper", "adversary_drop", ...).
const char* AuditKindName(AuditKind kind);

/// Sentinel node id for events without a single attributable node.
inline constexpr uint32_t kAuditNoNode = 0xFFFFFFFFu;

struct AuditEvent {
  uint64_t seq = 0;  ///< monotonically increasing per trail
  AuditKind kind = AuditKind::kTamper;
  uint64_t epoch = 0;
  uint32_t node = kAuditNoNode;
  std::string cause;  ///< human-readable detail
};

class AuditTrail {
 public:
  /// Default ring capacity: enough for any test or smoke run, small
  /// enough that a week-long soak under sustained attack stays bounded
  /// (~64k events × ~100 B ≈ 6 MB worst case).
  static constexpr size_t kDefaultCapacity = 65536;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Bounds the trail: once `capacity` events are held, recording a new
  /// one evicts the oldest (clamped to >= 1). Eviction is counted in
  /// dropped_events() and in the `sies_audit_dropped_events_total`
  /// metric; `seq` stays monotone, so a gap at the front of Events() is
  /// detectable. Shrinking evicts immediately.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Events evicted by the ring bound since the last Reset().
  uint64_t dropped_events() const;

  /// Drops all recorded events and zeroes the dropped-events counter
  /// (does not change enabled state or capacity).
  void Reset();

  /// Records one event (no-op while disabled).
  void Record(AuditKind kind, uint64_t epoch, uint32_t node,
              std::string cause);

  std::vector<AuditEvent> Events() const;
  /// Events of one kind, in order.
  std::vector<AuditEvent> Query(AuditKind kind) const;
  size_t CountOf(AuditKind kind) const;
  size_t size() const;

  /// {"events": [{"seq":..,"kind":"tamper","epoch":..,"node":..,
  ///              "cause":".."}, ...]}
  std::string ToJson() const;

  /// The trail all built-in instrumentation reports to.
  static AuditTrail& Global();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  size_t capacity_ = kDefaultCapacity;
  uint64_t dropped_ = 0;
  std::deque<AuditEvent> events_;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_AUDIT_H_
