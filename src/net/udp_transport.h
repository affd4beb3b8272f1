// UdpTransport: real datagram sockets on loopback behind net::Transport.
//
// Start() binds one UDP socket per node (plus the querier endpoint) on
// 127.0.0.1 with kernel-assigned ports, and spawns ONE epoll receiver
// thread servicing every socket. Deliver() serializes the payload into
// a datagram frame (net/datagram.h), sends it from the sender's socket
// to the receiver's, and blocks until the receiver's ack frame lands
// back on the sender's socket — or the per-attempt deadline expires, in
// which case it retransmits with the same RetryBackoffSlots accounting
// as the simulator, up to max_retries().
//
// Determinism: real sockets cannot promise the simulator's bit-exact
// loss sequence, so the Bernoulli loss model stays SENDER-SIDE and
// deterministic — SetLossRate installs the same one-draw-per-attempt
// Xoshiro256 sequence as SimTransport, and a "lost" attempt is simply
// never radiated (no ack wait either: the sender knows it destroyed the
// datagram, so waiting out the deadline would only slow the run). On a
// healthy loopback every radiated datagram arrives, so a UDP run's
// delivered/lost pattern, retry counts, and backoff slots are
// bit-identical to a sim run with the same seed — the property the
// transport differential test pins down. Genuine socket losses (buffer
// pressure, ack timeout) surface as extra retries/losses on top; they
// are real, rare on loopback, and exactly what this backend exists to
// experience.
//
// Scope: single-process, loopback-only. Peer discovery is an in-process
// address map; a multi-host deployment would replace Start() with a
// discovery service. A lossless SIES envelope is channels × 32 B at any
// N, and a partial one grows by its absent list, so one datagram always
// suffices except for a partial envelope from a subtree of more than
// ~520k sources whose absent set needs the bitmap form (over ~10k
// absent runs); such an envelope exceeds kMaxDatagramPayload and is
// rejected, since the backend does no chunking.
#ifndef SIES_NET_UDP_TRANSPORT_H_
#define SIES_NET_UDP_TRANSPORT_H_

#include <netinet/in.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"

namespace sies::net {

struct UdpTransportOptions {
  /// Per-attempt deadline for the receiver's ack. Loopback RTTs are
  /// microseconds; the default absorbs scheduler hiccups under load.
  uint32_t ack_timeout_ms = 200;
};

class UdpTransport final : public Transport {
 public:
  using Options = UdpTransportOptions;

  explicit UdpTransport(Options options = Options()) : options_(options) {}
  ~UdpTransport() override;

  /// Binds one loopback socket per id in `nodes` and starts the
  /// receiver thread. Ids must be unique; include kQuerierId when the
  /// tree root reports to the querier (it always does).
  Status Start(const std::vector<NodeId>& nodes);

  /// Stops the receiver thread and closes every socket. Idempotent;
  /// called by the destructor.
  void Stop();

  // Transport:
  std::string Name() const override { return "udp"; }
  Status SetLossRate(double loss_rate, uint64_t seed) override;
  void SetMaxRetries(uint32_t max_retries) override {
    max_retries_ = max_retries;
  }
  uint32_t max_retries() const override { return max_retries_; }
  StatusOr<Delivery> Deliver(NodeId from, NodeId to, uint64_t epoch,
                             Bytes payload) override;

  /// Data datagrams actually radiated (injected-loss attempts excluded).
  uint64_t datagrams_sent() const {
    return datagrams_sent_.load(std::memory_order_relaxed);
  }
  /// Datagrams the receiver thread rejected as malformed (fuzzed,
  /// truncated, or misdelivered frames). These are dropped, not fatal.
  uint64_t malformed_datagrams() const {
    return malformed_datagrams_.load(std::memory_order_relaxed);
  }
  /// Ack frames the receiver thread sent back to senders.
  uint64_t acks_sent() const {
    return acks_sent_.load(std::memory_order_relaxed);
  }

  /// Bound loopback port of `id`'s socket, 0 when unknown/not started.
  /// Exists so robustness tests can blast raw garbage at a live socket.
  uint16_t PortOf(NodeId id) const;

 private:
  struct Endpoint {
    NodeId id = 0;
    int fd = -1;
    sockaddr_in addr{};
  };
  /// One in-flight Deliver() waiting for its ack; lives on the caller's
  /// stack and is registered in waiters_ under mu_.
  struct Rendezvous {
    bool have_payload = false;
    bool acked = false;
    Bytes payload;
  };
  /// (epoch, from, to) packed for the waiter map. Retransmissions share
  /// the key: any attempt's ack completes the delivery.
  struct Key {
    uint64_t epoch;
    uint64_t edge;  // from << 32 | to
    bool operator==(const Key& o) const {
      return epoch == o.epoch && edge == o.edge;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>{}(k.epoch * 0x9E3779B97F4A7C15ull ^ k.edge);
    }
  };

  void ReceiveLoop();
  void HandleDatagram(const Endpoint& at, const uint8_t* data, size_t size,
                      const sockaddr_in& sender);
  void CloseAll();

  Options options_;
  uint32_t max_retries_ = 0;
  double loss_rate_ = 0.0;
  std::unique_ptr<Xoshiro256> loss_rng_;

  std::vector<Endpoint> endpoints_;
  std::unordered_map<NodeId, size_t> endpoint_index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread receiver_;
  std::atomic<bool> running_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<Key, Rendezvous*, KeyHash> waiters_;

  std::atomic<uint64_t> datagrams_sent_{0};
  std::atomic<uint64_t> malformed_datagrams_{0};
  std::atomic<uint64_t> acks_sent_{0};
};

}  // namespace sies::net

#endif  // SIES_NET_UDP_TRANSPORT_H_
