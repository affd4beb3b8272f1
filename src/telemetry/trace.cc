#include "telemetry/trace.h"

#include <chrono>
#include <cmath>

namespace sies::telemetry {

namespace {
uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Tracer::Tracer() : base_ns_(SteadyNowNanos()) {}

uint64_t Tracer::NowMicros() const {
  return (SteadyNowNanos() - base_ns_) / 1000;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void Tracer::Record(const char* name, const char* category, uint64_t epoch,
                    uint64_t ts_us, uint64_t dur_us) {
  SpanEvent event;
  event.name = name;
  event.category = category;
  event.epoch = epoch;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

void Tracer::RecordElapsed(const char* name, const char* category,
                           uint64_t epoch, double seconds) {
  if (!enabled()) return;
  const uint64_t now_us = NowMicros();
  const uint64_t dur_us = static_cast<uint64_t>(std::llround(seconds * 1e6));
  Record(name, category, epoch, now_us > dur_us ? now_us - dur_us : 0,
         dur_us);
}

std::vector<SpanEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::ToChromeTrace() const {
  std::vector<SpanEvent> events = Events();
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    out += "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(e.tid) + ", \"name\": \"" + e.name +
           "\", \"cat\": \"" + e.category +
           "\", \"ts\": " + std::to_string(e.ts_us) +
           ", \"dur\": " + std::to_string(e.dur_us) +
           ", \"args\": {\"epoch\": " + std::to_string(e.epoch) + "}}";
    out += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

uint32_t Tracer::CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace sies::telemetry
