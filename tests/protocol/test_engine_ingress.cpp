// Ingress bounds: a wire-supplied committee index that is out of range
// must be dropped at Engine::handle's handlers, never used as an index,
// and a malformed payload is dropped (and counted) at its single catch.
// Each test hands one hostile message straight to a node's handler and
// checks that the next round matches a twin engine that never saw it.
#include <gtest/gtest.h>

#include "obs/observer.hpp"
#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"

namespace cyc::protocol {

/// Test-only access to Engine::handle (the one hook the engine grants).
struct EngineTestPeer {
  static void deliver(Engine& engine, net::NodeId to, net::Tag tag,
                      Bytes payload) {
    deliver_shared(engine, to, tag, net::make_payload(std::move(payload)));
  }
  /// One payload object delivered to several receivers, as a multicast
  /// delivers it.
  static void deliver_shared(Engine& engine, net::NodeId to, net::Tag tag,
                             const net::PayloadPtr& payload) {
    net::Message msg;
    msg.from = to;
    msg.to = to;
    msg.tag = tag;
    msg.body = payload;
    engine.handle(to, msg, engine.net().now());
  }
};

namespace {

Params small_params() {
  Params p;
  p.m = 3;
  p.c = 8;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.3;
  p.seed = 11;
  return p;
}

void expect_same_round(Engine& probed, Engine& twin) {
  const RoundReport a = probed.run_round();
  const RoundReport b = twin.run_round();
  EXPECT_EQ(a.txs_committed, b.txs_committed);
  EXPECT_EQ(a.cross_committed, b.cross_committed);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.traffic_total.msgs_sent, b.traffic_total.msgs_sent);
  EXPECT_EQ(a.traffic_total.bytes_sent, b.traffic_total.bytes_sent);
  EXPECT_EQ(a.round_latency, b.round_latency);
  EXPECT_EQ(probed.chain().tip().hash(), twin.chain().tip().hash());
  for (net::NodeId id = 0; id < probed.node_count(); ++id) {
    EXPECT_EQ(probed.reputation(id), twin.reputation(id)) << "node " << id;
  }
}

TEST(EngineIngress, VoteForCommitteeMIsDropped) {
  const Params p = small_params();
  Engine probed(p, AdversaryConfig{});
  Engine twin(p, AdversaryConfig{});
  probed.run_round();
  twin.run_round();
  // No adversary, so the round-1 leaders were never replaced.
  const net::NodeId leader = probed.last_assignment().committees[0].leader;
  wire::VoteMsg vote;
  vote.committee = p.m;  // one past the last committee
  EngineTestPeer::deliver(probed, leader, net::Tag::kVote, vote.serialize());
  expect_same_round(probed, twin);
}

TEST(EngineIngress, ImitatorIgnoresCrossListFromOriginM) {
  const Params p = small_params();
  Engine probed(p, AdversaryConfig{});
  Engine twin(p, AdversaryConfig{});
  // corrupt() takes effect one round later: the leader runs round 1
  // honestly (so it stays leader) and imitates from round 2 on.
  const net::NodeId leader = probed.assignment().committees[0].leader;
  probed.corrupt(leader, Behavior::kImitator);
  twin.corrupt(leader, Behavior::kImitator);
  probed.run_round();
  twin.run_round();
  wire::CrossTxListMsg request;
  request.origin = p.m;  // one past the last committee
  request.dest = 0;
  EngineTestPeer::deliver(probed, leader, net::Tag::kCrossTxList,
                          request.serialize());
  expect_same_round(probed, twin);
}

TEST(EngineIngress, TruncatedVoteIsCountedAndDropped) {
  const Params p = small_params();
  Engine probed(p, AdversaryConfig{});
  Engine twin(p, AdversaryConfig{});
  obs::Observer observer;
  probed.attach_observer(&observer);
  probed.run_round();
  twin.run_round();
  const net::NodeId leader = probed.last_assignment().committees[0].leader;
  wire::VoteMsg vote;
  vote.committee = 0;
  Bytes payload = vote.serialize();
  payload.pop_back();  // the signed vote's length prefix overruns the input
  EngineTestPeer::deliver(probed, leader, net::Tag::kVote, payload);
  const obs::MetricCounter* malformed =
      observer.metrics.find_counter("net.malformed.VOTE");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), 1u);
  EXPECT_NE(observer.export_json().find("\"name\":\"malformed\""),
            std::string::npos);
  expect_same_round(probed, twin);
}

TEST(EngineIngress, TruncatedMulticastEchoIsCountedPerDelivery) {
  // Receivers of one multicast share its decoded view; a payload whose
  // decode throws keeps no view, so every delivery throws and counts.
  const Params p = small_params();
  Engine probed(p, AdversaryConfig{});
  Engine twin(p, AdversaryConfig{});
  obs::Observer observer;
  probed.attach_observer(&observer);
  probed.run_round();
  twin.run_round();
  const std::vector<net::NodeId> members =
      probed.last_assignment().committees[0].all_members();
  wire::ConsensusEnvelope env;
  env.scope = 0;
  env.wire = Bytes(40, 0x5a);
  Bytes truncated = env.serialize();
  truncated.pop_back();  // the wire's length prefix overruns the input
  const net::PayloadPtr payload = net::make_payload(std::move(truncated));
  const std::uint64_t decodes_before = net::payload_decodes();
  for (net::NodeId id : members) {
    EngineTestPeer::deliver_shared(probed, id, net::Tag::kEcho, payload);
  }
  const obs::MetricCounter* malformed =
      observer.metrics.find_counter("net.malformed.ECHO");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), members.size());
  EXPECT_EQ(net::payload_decodes() - decodes_before, members.size());
  expect_same_round(probed, twin);
}

}  // namespace
}  // namespace cyc::protocol
