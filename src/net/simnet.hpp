// Deterministic discrete-event network simulator.
//
// Models the paper's network assumptions (§III-B):
//  * synchronous channels inside a committee (delay <= Delta),
//  * synchronous but slower channels among key members / referees
//    (delay <= Gamma),
//  * partially synchronous channels everywhere else (bounded delay with
//    adversarial jitter — the adversary may reorder messages, §III-C).
//
// The simulator is single-threaded and deterministic per seed: events are
// ordered by (time, sequence number), and all jitter comes from a named
// rng::Stream. Monte-Carlo sweeps parallelize across *independent*
// simulator instances, never inside one.
//
// Delay jitter is drawn from the stream *at send time*, in global send
// order, so the send order of send()/multicast()/send_shared() fixes
// every later delivery time (see "Execution model" in
// src/protocol/README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "net/faults.hpp"
#include "net/message.hpp"
#include "net/stats.hpp"
#include "support/rng.hpp"

namespace cyc::net {

/// Channel classes with distinct delay behaviour.
enum class LinkClass : std::uint8_t {
  kIntraCommittee,   // delay = Delta
  kKeyMesh,          // delay = Gamma
  kPartialSync,      // delay in [Gamma, Gamma * (1 + jitter)], reorderable
  kUnconnected,      // no channel: sends are dropped and counted
};

struct DelayModel {
  Time delta = 1.0;            ///< intra-committee bound
  Time gamma = 5.0;            ///< key-member / referee mesh bound
  double jitter = 1.0;         ///< partial-sync jitter factor
};

/// Classifies the channel between two nodes. Installed by the protocol
/// engine, which knows committee membership and roles.
using LinkClassifier = std::function<LinkClass(NodeId from, NodeId to)>;

/// Receiver callback; invoked at delivery time.
using Handler = std::function<void(const Message&, Time now)>;

/// Observability probes (src/obs/). Pure pass-through: installing a
/// probe consumes no randomness and changes no delivery decision, so a
/// probed run is byte-identical to an unprobed one.
struct SendInfo {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Tag tag = Tag::kConfig;
  Phase phase = Phase::kIdle;
  std::size_t bytes = 0;  ///< wire size (payload + header)
  LinkClass link;
  FaultInjector::Fault fault = FaultInjector::Fault::kNone;
  bool duplicated = false;
  bool reordered = false;
  bool delivered = true;  ///< false: no channel, or dropped by a fault
};
struct DeliverInfo {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Tag tag = Tag::kConfig;
  Phase phase = Phase::kIdle;  ///< phase active when the message was *sent*
  std::size_t bytes = 0;
};
using SendProbe = std::function<void(const SendInfo&)>;
using DeliverProbe = std::function<void(const DeliverInfo&)>;

class SimNet {
 public:
  SimNet(std::size_t node_count, DelayModel delays, rng::Stream rng);

  /// Install the channel classifier (defaults to everything kKeyMesh).
  void set_link_classifier(LinkClassifier classifier);

  /// Install a fault injector evaluated on every send. The injector
  /// composes with the classifier: the classifier decides which channel
  /// exists, the injector decides what the adversary does to it. `rng`
  /// must be a stream independent of the delay stream (the protocol
  /// engine forks "faults") so fault-free plans leave every delay draw
  /// byte-identical to an uninstrumented run.
  void install_faults(FaultPlan plan, rng::Stream rng);

  /// The installed injector, or nullptr. Mutable access lets the
  /// harness add partitions / blackouts and heal mid-run.
  FaultInjector* faults() { return injector_ ? &*injector_ : nullptr; }
  const FaultInjector* faults() const {
    return injector_ ? &*injector_ : nullptr;
  }

  /// Advance the injector's round clock (no-op without an injector);
  /// partitions and blackouts activate / expire on round boundaries.
  void begin_round(std::uint64_t round) {
    if (injector_) injector_->begin_round(round);
  }

  /// Install the delivery handler for a node.
  void set_handler(NodeId node, Handler handler);

  /// Label subsequent traffic with a protocol phase for accounting.
  void set_phase(Phase phase) { phase_ = phase; }
  Phase phase() const { return phase_; }

  /// Install / clear observability probes (empty function clears).
  void set_send_probe(SendProbe probe) { send_probe_ = std::move(probe); }
  void set_deliver_probe(DeliverProbe probe) {
    deliver_probe_ = std::move(probe);
  }

  /// Queue a message for delivery. Drops (and counts) sends over
  /// kUnconnected links — the hierarchical topology simply has no channel
  /// there, which is the point of the "Burden on Connection" row.
  void send(NodeId from, NodeId to, Tag tag, Bytes payload);

  /// Zero-copy send: the queued event and the delivered Message alias
  /// `payload`. Callers that fan one payload out to several receivers
  /// (outside of multicast) wrap it once with make_payload and reuse it.
  void send_shared(NodeId from, NodeId to, Tag tag, PayloadPtr payload);

  /// Send to many receivers (the BROADCAST of the pseudocode — multicast
  /// to known members, each counted individually). The payload is
  /// materialised exactly once per logical broadcast; every receiver's
  /// Message aliases the same immutable buffer.
  void multicast(NodeId from, const std::vector<NodeId>& to, Tag tag,
                 Bytes payload);

  /// Zero-copy multicast over an already-shared payload (no allocation).
  void multicast_shared(NodeId from, const std::vector<NodeId>& to, Tag tag,
                        const PayloadPtr& payload);

  /// Schedule a local timer callback for `node` at absolute time `when`.
  void schedule(Time when, std::function<void(Time)> fn);

  /// Run until the event queue is empty or `deadline` is passed.
  /// Returns the time of the last processed event.
  Time run(Time deadline = 1e18);

  Time now() const { return now_; }
  bool idle() const { return queue_.empty(); }

  const TrafficStats& stats() const { return stats_; }
  TrafficStats& stats() { return stats_; }
  std::uint64_t dropped_sends() const { return dropped_; }
  std::size_t node_count() const { return handlers_.size(); }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    // Exactly one of message / timer is active.
    bool is_timer;
    Message msg;
    Phase send_phase;
    std::function<void(Time)> timer;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Time class_delay(LinkClass cls);

  DelayModel delays_;
  rng::Stream rng_;
  LinkClassifier classifier_;
  SendProbe send_probe_;
  DeliverProbe deliver_probe_;
  std::optional<FaultInjector> injector_;
  std::vector<Handler> handlers_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  TrafficStats stats_;
  Phase phase_ = Phase::kIdle;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cyc::net
