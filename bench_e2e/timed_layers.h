// Layer timing for the epoch_e2e benchmark.
//
// Every per-layer number of the benchmark comes from this file. Two
// decorators sit around public interfaces the program already has:
//
//   TimedProtocol   net::AggregationProtocol around an EpochScheduler
//                   (source init, merge, evaluate, key derivation)
//   TimedTransport  net::Transport around SimTransport / UdpTransport
//                   (every Deliver, plus a delivery log)
//
// An untraced run installs neither, so it runs exactly the program a
// user runs. All calls are recorded on the run thread: the benchmark
// lends the network a one-lane pool, whose ParallelFor runs inline.
#ifndef SIES_BENCH_E2E_TIMED_LAYERS_H_
#define SIES_BENCH_E2E_TIMED_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "net/network.h"
#include "net/transport.h"

namespace sies::bench_e2e {

/// The layers a span can belong to, outermost first. Names follow the
/// repository's modules.
enum class Layer : uint8_t {
  kEpoch,         ///< one whole epoch: control plane + round
  kApplyPending,  ///< EpochScheduler::ApplyPending
  kRunEpoch,      ///< net::Network::RunEpoch
  kSourceInit,    ///< AggregationProtocol::SourceInitialize
  kMerge,         ///< AggregationProtocol::AggregatorMerge
  kEvaluate,      ///< AggregationProtocol::QuerierEvaluate
  kKeyDerive,     ///< MultiQueryEngine::PrefetchEpochKeys inside evaluate
  kTransport,     ///< net::Transport::Deliver
};
inline constexpr size_t kLayerCount = 8;

inline const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "epoch",    "engine.apply_pending", "net.run_epoch",
      "engine.source_init", "engine.merge", "engine.evaluate",
      "sies.key_derive",    "net.transport"};
  return kNames[static_cast<size_t>(layer)];
}

/// Calls, busy time and longest call of one layer within one epoch.
struct LayerTotals {
  uint64_t calls = 0;
  double busy_s = 0.0;
  double max_s = 0.0;
};
using EpochTotals = std::array<LayerTotals, kLayerCount>;

/// Collects spans. Each closed span is summed into the current epoch's
/// per-layer totals and its duration kept for percentiles; full spans
/// (name, start, end, parent, epoch) are kept only for epochs opened
/// with keep_spans, which bounds memory at large N.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts recording epoch `epoch` with fresh totals.
  void BeginEpoch(uint64_t epoch, bool keep_spans) {
    epoch_ = epoch;
    keep_spans_ = keep_spans;
    totals_ = EpochTotals{};
    active_ = true;
  }
  /// Stops recording until the next BeginEpoch: the decorators then
  /// forward calls untouched.
  void Pause() { active_ = false; }
  bool active() const { return active_; }

  /// Opens a span as a child of the innermost open one.
  void Open(Layer layer) {
    Frame frame{layer, Clock::now(), -1};
    if (keep_spans_) {
      const int32_t parent = open_.empty() ? -1 : open_.back().span;
      frame.span = static_cast<int32_t>(spans_.size());
      spans_.push_back(Span{layer, epoch_, frame.start, frame.start, parent});
    }
    open_.push_back(frame);
  }
  /// Closes the innermost open span.
  void Close() {
    const Clock::time_point end = Clock::now();
    const Frame frame = open_.back();
    open_.pop_back();
    const double seconds =
        std::chrono::duration<double>(end - frame.start).count();
    LayerTotals& t = totals_[static_cast<size_t>(frame.layer)];
    ++t.calls;
    t.busy_s += seconds;
    if (seconds > t.max_s) t.max_s = seconds;
    call_us_[static_cast<size_t>(frame.layer)].push_back(
        static_cast<float>(seconds * 1e6));
    if (frame.span >= 0) spans_[static_cast<size_t>(frame.span)].end = end;
  }

  const EpochTotals& totals() const { return totals_; }
  /// Every recorded call's duration in microseconds, all epochs.
  const std::vector<float>& call_us(Layer layer) const {
    return call_us_[static_cast<size_t>(layer)];
  }

  /// Writes the kept spans as a Chrome trace (chrome://tracing or
  /// ui.perfetto.dev). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"epoch_e2e\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"epoch\": %llu, \"id\": %zu, \"parent\": %d}}",
                   i == 0 ? "" : ",\n", LayerName(s.layer), ts, dur,
                   static_cast<unsigned long long>(s.epoch), i, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    int32_t span;  ///< index into spans_, -1 when spans are not kept
  };
  struct Span {
    Layer layer;
    uint64_t epoch;
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent;  ///< index of the enclosing span, -1 at the top
  };

  bool active_ = false;
  bool keep_spans_ = false;
  uint64_t epoch_ = 0;
  EpochTotals totals_{};
  std::vector<Frame> open_;
  std::vector<Span> spans_;
  std::array<std::vector<float>, kLayerCount> call_us_;
};

/// Times one call when the recorder is active; a no-op otherwise.
class ScopedLayer {
 public:
  ScopedLayer(SpanRecorder& recorder, Layer layer)
      : recorder_(recorder.active() ? &recorder : nullptr) {
    if (recorder_ != nullptr) recorder_->Open(layer);
  }
  ~ScopedLayer() {
    if (recorder_ != nullptr) recorder_->Close();
  }
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// EpochScheduler with every protocol call timed. QuerierEvaluate first
/// joins the scheduler's t+1 prefetch and derives this epoch's keys as
/// its own span, so key derivation and verification separate.
class TimedProtocol final : public net::AggregationProtocol {
 public:
  TimedProtocol(engine::EpochScheduler& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string Name() const override { return inner_.Name(); }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    ScopedLayer span(recorder_, Layer::kSourceInit);
    return inner_.SourceInitialize(id, epoch);
  }
  StatusOr<Bytes> AggregatorMerge(net::NodeId id, uint64_t epoch,
                                  const std::vector<Bytes>& children) override {
    ScopedLayer span(recorder_, Layer::kMerge);
    return inner_.AggregatorMerge(id, epoch, children);
  }
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override {
    ScopedLayer span(recorder_, Layer::kEvaluate);
    inner_.JoinPrefetch();
    {
      ScopedLayer derive(recorder_, Layer::kKeyDerive);
      inner_.engine().PrefetchEpochKeys(epoch);
    }
    return inner_.QuerierEvaluate(epoch, final_payload, participating);
  }
  bool ParallelSourceInitSafe() const override {
    return inner_.ParallelSourceInitSafe();
  }
  void SetThreadPool(common::ThreadPool* pool) override {
    inner_.SetThreadPool(pool);
  }

 private:
  engine::EpochScheduler& inner_;
  SpanRecorder& recorder_;
};

/// A backend with every Deliver timed and, while recording, logged.
class TimedTransport final : public net::Transport {
 public:
  /// One Deliver as the sender saw it.
  struct Sent {
    net::NodeId from = 0;
    uint32_t attempts = 0;
    bool delivered = false;
  };

  TimedTransport(net::Transport& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string Name() const override { return inner_.Name(); }
  Status SetLossRate(double loss_rate, uint64_t seed) override {
    return inner_.SetLossRate(loss_rate, seed);
  }
  void SetMaxRetries(uint32_t max_retries) override {
    inner_.SetMaxRetries(max_retries);
  }
  uint32_t max_retries() const override { return inner_.max_retries(); }
  StatusOr<net::Delivery> Deliver(net::NodeId from, net::NodeId to,
                                  uint64_t epoch, Bytes payload) override {
    StatusOr<net::Delivery> delivery = Status::Internal("not delivered");
    {
      ScopedLayer span(recorder_, Layer::kTransport);
      delivery = inner_.Deliver(from, to, epoch, std::move(payload));
    }
    if (recorder_.active() && delivery.ok()) {
      log_.push_back(
          Sent{from, delivery.value().attempts, delivery.value().delivered});
    }
    return delivery;
  }

  /// Hands over the log of the recorded deliveries and starts a new one.
  std::vector<Sent> TakeLog() { return std::exchange(log_, {}); }

 private:
  net::Transport& inner_;
  SpanRecorder& recorder_;
  std::vector<Sent> log_;
};

}  // namespace sies::bench_e2e

#endif  // SIES_BENCH_E2E_TIMED_LAYERS_H_
