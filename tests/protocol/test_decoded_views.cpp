// Decode once per shared payload: every receiver of one buffer reads the
// same decoded view (wire::decoded), the view equals a fresh decode, and
// its lazily filled verdicts equal the checks they stand for.
#include <gtest/gtest.h>

#include <vector>

#include "ledger/validator.hpp"
#include "net/simnet.hpp"
#include "protocol/payloads.hpp"

namespace cyc::protocol {
namespace {

constexpr net::NodeId kReceivers = 12;

/// A signed ECHO from member 1 of a 4-member instance, relaying the
/// leader's PROPOSE.
consensus::EchoWire make_echo() {
  const auto leader = crypto::KeyPair::from_seed(70);
  const consensus::InstanceId id{3, 9};
  consensus::LeaderInstance lead(leader, id, bytes_of("M"), 4);
  consensus::MemberInstance member(crypto::KeyPair::from_seed(71), 1, id,
                                   leader.pk, 4);
  return *member.on_propose(lead.make_propose()).echo_broadcast;
}

/// Multicast `payload` from node 0 to nodes 1..kReceivers, run `check` in
/// every receiver's handler, and return the payload decodes it took.
std::uint64_t multicast_and_check(
    net::Tag tag, Bytes payload,
    const std::function<void(const net::Message&)>& check) {
  net::SimNet net(kReceivers + 1, net::DelayModel{}, rng::Stream(5));
  std::vector<net::NodeId> receivers;
  int delivered = 0;
  for (net::NodeId id = 1; id <= kReceivers; ++id) {
    receivers.push_back(id);
    net.set_handler(id, [&](const net::Message& msg, net::Time) {
      check(msg);
      ++delivered;
    });
  }
  const std::uint64_t before = net::payload_decodes();
  net.multicast(0, receivers, tag, std::move(payload));
  net.run();
  EXPECT_EQ(delivered, static_cast<int>(kReceivers));
  return net::payload_decodes() - before;
}

TEST(DecodedViews, MulticastEchoDecodesOnceAndMatchesAFreshDecode) {
  const wire::ConsensusEnvelope env{0, 9, make_echo().serialize()};
  const std::uint64_t decodes =
      multicast_and_check(net::Tag::kEcho, env.serialize(), [](const auto& msg) {
        const auto& view =
            wire::decoded<wire::ConsensusMsg<consensus::EchoView>>(msg);
        const auto fresh_env = wire::ConsensusEnvelope::deserialize(msg.payload());
        const auto fresh = consensus::EchoWire::deserialize(fresh_env.wire);
        EXPECT_EQ(view.scope(), fresh_env.scope);
        EXPECT_EQ(view.sn(), fresh_env.sn);
        const consensus::EchoView& echo = view.wire();
        EXPECT_EQ(echo.wire().serialize(), fresh.serialize());
        EXPECT_EQ(echo.sig_valid(), fresh.sig.valid());
        EXPECT_EQ(echo.bound(),
                  equal(fresh.sig.payload, fresh.body.signed_part()));
        EXPECT_EQ(echo.propose_valid(), fresh.body.propose_sig.valid());
        EXPECT_TRUE(echo.sig_valid() && echo.bound() && echo.propose_valid());
      });
  EXPECT_EQ(decodes, 1u);
}

TEST(DecodedViews, MulticastTxListSharesVerdictsThatEqualV) {
  constexpr std::uint32_t kShards = 4;
  std::vector<crypto::KeyPair> users;
  for (std::uint64_t i = 0; users.size() < 2; ++i) {
    const auto kp = crypto::KeyPair::from_seed(i + 800);
    if (ledger::shard_of(kp.pk, kShards) == 0) users.push_back(kp);
  }
  ledger::UtxoStore shard(0, kShards);
  const auto funded = [&](int i) {
    const ledger::OutPoint op{crypto::sha256(concat({bytes_of("f"), be64(i)})), 0};
    shard.add(op, ledger::TxOut{users[0].pk, 50});
    return op;
  };
  const auto tx_from = [&](const ledger::OutPoint& op,
                           const crypto::KeyPair& signer, ledger::Amount pay) {
    ledger::Transaction tx;
    tx.spender = users[0].pk;
    tx.inputs.push_back(op);
    tx.outputs.push_back(ledger::TxOut{users[1].pk, pay});
    ledger::sign_tx(tx, signer);
    return tx;
  };
  // Valid, wrong signer, overspend, and malformed (zero-value output).
  const std::vector<ledger::Transaction> txs = {
      tx_from(funded(0), users[0], 10), tx_from(funded(1), users[1], 10),
      tx_from(funded(2), users[0], 99), tx_from(funded(3), users[0], 0)};
  const auto leader = crypto::KeyPair::from_seed(90);
  wire::TxListMsg msg;
  msg.committee = 0;
  msg.signed_list = crypto::make_signed(leader, wire::encode_tx_vec(txs));

  const std::uint64_t decodes =
      multicast_and_check(net::Tag::kTxList, msg.serialize(), [&](const auto& m) {
        const auto& view = wire::decoded<wire::TxListView>(m);
        const auto fresh = wire::TxListMsg::deserialize(m.payload());
        EXPECT_EQ(view.signature_valid(), fresh.signed_list.valid());
        const auto fresh_txs = wire::decode_tx_vec(fresh.signed_list.payload);
        ASSERT_EQ(view.txs(), fresh_txs);
        for (std::size_t i = 0; i < fresh_txs.size(); ++i) {
          EXPECT_EQ(view.V(i, shard), ledger::V(fresh_txs[i], shard)) << i;
        }
      });
  EXPECT_EQ(decodes, 1u);
}

TEST(DecodedViews, SemiCommitVerdictsMatchTheSignatures) {
  const auto leader = crypto::KeyPair::from_seed(91);
  wire::SemiCommitMsg msg;
  msg.committee = 2;
  msg.commitment_msg = crypto::make_signed(leader, bytes_of("commitment"));
  msg.list_msg = crypto::make_signed(leader, bytes_of("list"));
  msg.list_msg.payload.push_back(0);  // signature no longer covers it

  const std::uint64_t decodes =
      multicast_and_check(net::Tag::kSemiCommit, msg.serialize(), [](const auto& m) {
        const auto& view = wire::decoded<wire::SemiCommitView>(m);
        const auto fresh = wire::SemiCommitMsg::deserialize(m.payload());
        EXPECT_EQ(view.msg().committee, fresh.committee);
        EXPECT_TRUE(view.commitment_valid());
        EXPECT_FALSE(view.list_valid());
        EXPECT_EQ(view.commitment_valid(), fresh.commitment_msg.valid());
        EXPECT_EQ(view.list_valid(), fresh.list_msg.valid());
      });
  EXPECT_EQ(decodes, 1u);
}

TEST(DecodedViews, MalformedPayloadThrowsForEveryReceiver) {
  Bytes truncated = wire::ConsensusEnvelope{0, 9, make_echo().serialize()}
                        .serialize();
  truncated.pop_back();  // the wire's length prefix overruns the input
  int thrown = 0;
  const std::uint64_t decodes = multicast_and_check(
      net::Tag::kEcho, std::move(truncated), [&](const auto& msg) {
        EXPECT_THROW(
            (wire::decoded<wire::ConsensusMsg<consensus::EchoView>>(msg)),
            std::exception);
        ++thrown;
      });
  EXPECT_EQ(thrown, static_cast<int>(kReceivers));
  EXPECT_EQ(decodes, kReceivers);  // nothing kept, so each one decodes
}

TEST(DecodedViews, OnePayloadHasOneViewType) {
  net::Message msg;
  msg.body = net::make_payload(wire::NewLeaderMsg{}.serialize());
  (void)wire::decoded<wire::NewLeaderMsg>(msg);
  EXPECT_THROW((void)wire::decoded<wire::Intro>(msg), std::logic_error);
  EXPECT_THROW((void)wire::decoded<wire::Intro>(net::Message{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cyc::protocol
