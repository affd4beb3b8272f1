// A small library of concrete adversaries for the threat model of the
// paper (Section III-C): tampering with payloads in flight, replaying
// stale results, dropping contributions, and arbitrary custom attacks.
#ifndef SIES_NET_ADVERSARY_H_
#define SIES_NET_ADVERSARY_H_

#include <functional>
#include <map>
#include <optional>

#include "net/network.h"

namespace sies::net {

/// Runs a user callback for every message. The callback may mutate the
/// message and returns false to drop it.
class CallbackAdversary : public Adversary {
 public:
  using Callback = std::function<bool(Message&)>;
  explicit CallbackAdversary(Callback cb) : cb_(std::move(cb)) {}
  bool OnMessage(Message& msg) override { return cb_(msg); }

 private:
  Callback cb_;
};

/// Flips one bit of every payload sent by `target` (or by anyone when
/// `target` is nullopt). Models data tampering on the wireless channel.
class BitFlipAdversary : public Adversary {
 public:
  /// Flips bit `bit_index % (8 * payload size)` of matching payloads.
  /// With `from_end`, indexes backward from the final payload bit —
  /// useful to reliably hit the ciphertext of wire payloads that lead
  /// with a metadata prefix (e.g. a SIES contributor field).
  explicit BitFlipAdversary(std::optional<NodeId> target = std::nullopt,
                            size_t bit_index = 0, bool from_end = false)
      : target_(target), bit_index_(bit_index), from_end_(from_end) {}
  bool OnMessage(Message& msg) override;

  /// Number of payloads modified so far.
  uint64_t tampered_count() const { return tampered_; }

 private:
  std::optional<NodeId> target_;
  size_t bit_index_;
  bool from_end_ = false;
  uint64_t tampered_ = 0;
};

/// Records payloads during a "capture" epoch and replays them verbatim in
/// all later epochs (the freshness attack of Theorem 4).
class ReplayAdversary : public Adversary {
 public:
  /// Captures everything sent during `capture_epoch`, replays after it.
  explicit ReplayAdversary(uint64_t capture_epoch)
      : capture_epoch_(capture_epoch) {}
  bool OnMessage(Message& msg) override;

  /// Number of payloads replaced with stale captures.
  uint64_t replayed_count() const { return replayed_; }

 private:
  uint64_t capture_epoch_;
  std::map<NodeId, Bytes> captured_;
  uint64_t replayed_ = 0;
};

/// Silently drops every payload sent by `target` (a compromised
/// aggregator discarding a subtree's contribution).
class DropAdversary : public Adversary {
 public:
  explicit DropAdversary(NodeId target) : target_(target) {}
  bool OnMessage(Message& msg) override;

  /// Number of messages suppressed.
  uint64_t dropped_count() const { return dropped_; }

 private:
  NodeId target_;
  uint64_t dropped_ = 0;
};

}  // namespace sies::net

#endif  // SIES_NET_ADVERSARY_H_
