#include "telemetry/epoch_timeline.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/trace.h"

namespace sies::telemetry {

namespace {

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

}  // namespace

const char* EpochPhaseName(EpochPhase phase) {
  switch (phase) {
    case EpochPhase::kKeyDerive:
      return "key_derive";
    case EpochPhase::kPsrCreate:
      return "psr_create";
    case EpochPhase::kTreeAggregate:
      return "tree_aggregate";
    case EpochPhase::kWireParse:
      return "wire_parse";
    case EpochPhase::kVerify:
      return "verify";
    case EpochPhase::kAssemble:
      return "assemble";
    case EpochPhase::kTransport:
      return "transport";
  }
  return "?";
}

void EpochTimeline::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t EpochTimeline::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void EpochTimeline::BeginEpoch(uint64_t epoch) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  current_ = EpochRecord{};
  current_.epoch = epoch;
  for (auto& lanes : lanes_) lanes.clear();
  open_ = true;
  epoch_watch_.Restart();
}

void EpochTimeline::Record(EpochPhase phase, double seconds,
                           const ChannelVerifySample* sample) {
  // A sample declares its own lane — critical-path math must follow the
  // lane that paid for the verify, not whoever relays the sample.
  const uint32_t tid =
      sample != nullptr ? sample->tid : Tracer::CurrentThreadId();
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return;
    epoch = current_.epoch;
    PhaseStat& stat = current_.phases[static_cast<size_t>(phase)];
    stat.total_seconds += seconds;
    stat.max_call_seconds = std::max(stat.max_call_seconds, seconds);
    ++stat.calls;
    if (sample != nullptr) {
      current_.channels.push_back(*sample);
      if (!sample->verified) ++current_.tampered_channels;
    }
    std::vector<LaneAcc>& lanes = lanes_[static_cast<size_t>(phase)];
    auto lane = std::find_if(lanes.begin(), lanes.end(),
                             [tid](const LaneAcc& l) { return l.tid == tid; });
    if (lane != lanes.end()) {
      lane->seconds += seconds;
    } else {
      lanes.push_back(LaneAcc{tid, seconds});
    }
  }
  Tracer::Global().RecordElapsed(EpochPhaseName(phase), "phase", epoch,
                                 seconds);
}

void EpochTimeline::EndEpoch(const EpochVerdict& verdict) {
  if (!enabled()) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_) return;
  open_ = false;
  const double wall = epoch_watch_.ElapsedSeconds();
  const uint64_t epoch = current_.epoch;
  current_.wall_seconds = wall;
  current_.answered = verdict.answered;
  current_.verified = verdict.verified;
  current_.coverage = verdict.coverage;
  current_.live_queries = verdict.live_queries;
  current_.contributors = verdict.contributors;
  current_.expected_contributors = verdict.expected_contributors;
  // Channel samples arrive in pool-completion order; serve them in wire
  // order so consecutive scrapes of the same epoch compare equal.
  std::stable_sort(current_.channels.begin(), current_.channels.end(),
                   [](const ChannelVerifySample& a,
                      const ChannelVerifySample& b) { return a.slot < b.slot; });
  double attributed = 0.0;
  double critical = 0.0;
  for (size_t p = 0; p < kEpochPhaseCount; ++p) {
    PhaseStat& stat = current_.phases[p];
    attributed += stat.total_seconds;
    double lane_max = 0.0;
    for (const LaneAcc& lane : lanes_[p]) {
      lane_max = std::max(lane_max, lane.seconds);
    }
    stat.lane_max_seconds = lane_max;
    critical += lane_max;
  }
  current_.attributed_seconds = attributed;
  current_.critical_path_seconds = std::min(critical, current_.wall_seconds);
  ring_.push_back(std::move(current_));
  current_ = EpochRecord{};
  ++epochs_recorded_;
  while (ring_.size() > capacity_) ring_.pop_front();
  lock.unlock();
  Tracer::Global().RecordElapsed("epoch", "epoch", epoch, wall);
}

std::vector<EpochRecord> EpochTimeline::Last(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min(k, ring_.size());
  return std::vector<EpochRecord>(ring_.end() - static_cast<ptrdiff_t>(n),
                                  ring_.end());
}

size_t EpochTimeline::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t EpochTimeline::epochs_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_recorded_;
}

void EpochTimeline::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  epochs_recorded_ = 0;
  open_ = false;
  current_ = EpochRecord{};
  for (auto& lanes : lanes_) lanes.clear();
}

std::string EpochTimeline::ToJson(size_t last_k) const {
  const std::vector<EpochRecord> records = Last(last_k);
  std::string out = "{\"window\": " + std::to_string(last_k) +
                    ", \"capacity\": " + std::to_string(capacity()) +
                    ", \"epochs_recorded\": " +
                    std::to_string(epochs_recorded()) + ", \"epochs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const EpochRecord& r = records[i];
    out += "  {\"epoch\": " + std::to_string(r.epoch) + ", \"wall_seconds\": ";
    AppendDouble(out, r.wall_seconds);
    out += ", \"attributed_seconds\": ";
    AppendDouble(out, r.attributed_seconds);
    out += ", \"critical_path_seconds\": ";
    AppendDouble(out, r.critical_path_seconds);
    out += ", \"answered\": ";
    out += r.answered ? "true" : "false";
    out += ", \"verified\": ";
    out += r.verified ? "true" : "false";
    out += ", \"coverage\": ";
    AppendDouble(out, r.coverage);
    out += ", \"live_queries\": " + std::to_string(r.live_queries);
    out += ", \"contributors\": " + std::to_string(r.contributors);
    out += ", \"expected_contributors\": " +
           std::to_string(r.expected_contributors);
    out += ", \"tampered_channels\": " + std::to_string(r.tampered_channels);
    out += ",\n   \"phases\": [";
    for (size_t p = 0; p < kEpochPhaseCount; ++p) {
      const PhaseStat& stat = r.phases[p];
      if (p > 0) out += ", ";
      out += "{\"phase\": \"";
      out += EpochPhaseName(static_cast<EpochPhase>(p));
      out += "\", \"total_seconds\": ";
      AppendDouble(out, stat.total_seconds);
      out += ", \"lane_max_seconds\": ";
      AppendDouble(out, stat.lane_max_seconds);
      out += ", \"max_call_seconds\": ";
      AppendDouble(out, stat.max_call_seconds);
      out += ", \"calls\": " + std::to_string(stat.calls) + "}";
    }
    out += "],\n   \"channels\": [";
    for (size_t c = 0; c < r.channels.size(); ++c) {
      const ChannelVerifySample& ch = r.channels[c];
      if (c > 0) out += ", ";
      out += "{\"slot\": " + std::to_string(ch.slot) +
             ", \"salt_id\": " + std::to_string(ch.salt_id) + ", \"kind\": \"";
      out += ch.kind;
      out += "\"";
      if (ch.bucket_level >= 0) {
        out += ", \"bucket_level\": " + std::to_string(ch.bucket_level) +
               ", \"bucket_index\": " + std::to_string(ch.bucket_index);
      }
      out += ", \"seconds\": ";
      AppendDouble(out, ch.seconds);
      out += ", \"verified\": ";
      out += ch.verified ? "true" : "false";
      out += ", \"tid\": " + std::to_string(ch.tid) + "}";
    }
    out += "]}";
    out += (i + 1 < records.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

EpochTimeline& EpochTimeline::Global() {
  static EpochTimeline* timeline = new EpochTimeline();
  return *timeline;
}

}  // namespace sies::telemetry
