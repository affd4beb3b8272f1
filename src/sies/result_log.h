// ResultLog: querier-side bookkeeping over a continuous query's epochs.
//
// A long-running deployment needs more than a per-epoch verdict: it
// needs to notice missed epochs (a possible DoS — "such cases are
// trivially detected if the querier does not receive any data", Section
// III-C), track the verified-result stream, and maintain rolling
// statistics over it. This module provides that operational layer.
#ifndef SIES_SIES_RESULT_LOG_H_
#define SIES_SIES_RESULT_LOG_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/status.h"

namespace sies::core {

/// What the querier records for one epoch.
struct EpochRecord {
  uint64_t epoch = 0;
  double value = 0.0;
  bool verified = false;
  /// False when no final payload reached the querier at all (radio
  /// blackout / total adversarial drop): value and verified carry no
  /// information for such epochs.
  bool answered = true;
  /// Fraction of expected sources covered by the (verified) aggregate,
  /// per the contributor set; 1.0 for a full epoch, 0.0 unanswered.
  double coverage = 1.0;
};

/// Rolling statistics over the last verified results.
struct RollingStats {
  uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// An append-only log of epoch outcomes with gap and tamper accounting.
class ResultLog {
 public:
  /// `window` bounds the rolling-statistics horizon (and memory).
  explicit ResultLog(size_t window = 64) : window_(window) {}

  /// Records the outcome of `epoch`. Epochs must be recorded in
  /// strictly increasing order; gaps are detected and counted as missed
  /// (potential DoS per the paper's threat model). `coverage` is the
  /// contributor-set fraction; partial (< 1) verified epochs are
  /// counted separately from full ones.
  Status Record(uint64_t epoch, double value, bool verified,
                double coverage = 1.0);

  /// Records an epoch whose final payload never arrived. Unlike a gap
  /// (querier silently skipped), an unanswered epoch was run and lost —
  /// graceful degradation keeps the deployment going and tallies it.
  Status RecordUnanswered(uint64_t epoch);

  /// Epochs recorded (answered or not).
  uint64_t recorded_epochs() const { return recorded_; }
  /// Epochs skipped between records (no data = suspected DoS).
  uint64_t missed_epochs() const { return missed_; }
  /// Records that failed verification (suspected tampering/replay).
  uint64_t rejected_epochs() const { return rejected_; }
  /// Epochs recorded via RecordUnanswered.
  uint64_t unanswered_epochs() const { return unanswered_; }
  /// Verified epochs whose coverage was below 1 (reported loss).
  uint64_t partial_epochs() const { return partial_; }
  /// Most recent verified value, if any.
  std::optional<double> LastVerified() const;
  /// Rolling stats over the verified results in the window.
  RollingStats Stats() const;

  /// True when the rejected fraction over the window exceeds
  /// `threshold` — the operational "network is under attack" alarm.
  bool UnderAttack(double threshold = 0.25) const;

 private:
  Status Append(EpochRecord record);

  size_t window_;
  std::deque<EpochRecord> recent_;
  std::optional<uint64_t> last_epoch_;
  uint64_t recorded_ = 0;
  uint64_t missed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t unanswered_ = 0;
  uint64_t partial_ = 0;
};

}  // namespace sies::core

#endif  // SIES_SIES_RESULT_LOG_H_
