// Wall-clock timing helpers used by the experiment runner and benches.
#ifndef SIES_COMMON_TIMER_H_
#define SIES_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <optional>

namespace sies {

/// Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A stopwatch started only when `start` holds, so a probe whose sinks
/// are all off reads no clock.
inline std::optional<Stopwatch> StartIf(bool start) {
  std::optional<Stopwatch> watch;
  if (start) watch.emplace();
  return watch;
}

/// Accumulates CPU time attributed to one party (source/aggregator/querier)
/// across the epochs of an experiment. Tracks mean, extremes, and running
/// variance (Welford's algorithm, numerically stable in one pass) so
/// reports can show the spread of per-epoch costs, not just the average.
class CostAccumulator {
 public:
  /// Adds `seconds` of measured work.
  void Add(double seconds) {
    total_seconds_ += seconds;
    ++samples_;
    if (seconds < min_seconds_) min_seconds_ = seconds;
    if (seconds > max_seconds_) max_seconds_ = seconds;
    const double delta = seconds - welford_mean_;
    welford_mean_ += delta / static_cast<double>(samples_);
    welford_m2_ += delta * (seconds - welford_mean_);
  }

  /// Total accumulated seconds.
  double total_seconds() const { return total_seconds_; }
  /// Number of Add() calls.
  uint64_t samples() const { return samples_; }
  /// Mean seconds per sample (0 if empty).
  double MeanSeconds() const {
    return samples_ == 0 ? 0.0 : total_seconds_ / static_cast<double>(samples_);
  }
  /// Smallest sample (0 if empty).
  double MinSeconds() const { return samples_ == 0 ? 0.0 : min_seconds_; }
  /// Largest sample (0 if empty).
  double MaxSeconds() const { return samples_ == 0 ? 0.0 : max_seconds_; }
  /// Population variance of the samples (0 with fewer than 2 samples).
  double VarianceSeconds() const {
    return samples_ < 2 ? 0.0
                        : welford_m2_ / static_cast<double>(samples_);
  }
  /// Population standard deviation (0 with fewer than 2 samples).
  double StdDevSeconds() const;

  /// Clears the accumulator.
  void Reset() {
    total_seconds_ = 0.0;
    samples_ = 0;
    min_seconds_ = kNoSample;
    max_seconds_ = -kNoSample;
    welford_mean_ = 0.0;
    welford_m2_ = 0.0;
  }

 private:
  static constexpr double kNoSample = 1e300;  // sentinel before first Add

  double total_seconds_ = 0.0;
  uint64_t samples_ = 0;
  double min_seconds_ = kNoSample;
  double max_seconds_ = -kNoSample;
  double welford_mean_ = 0.0;
  double welford_m2_ = 0.0;
};

}  // namespace sies

#endif  // SIES_COMMON_TIMER_H_
