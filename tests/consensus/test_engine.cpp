// Tests for the Algorithm 3 state machines, driven without a network:
// messages are shuttled by hand so every rule is observable.
#include "consensus/engine.hpp"

#include <gtest/gtest.h>

namespace cyc::consensus {
namespace {

using crypto::KeyPair;

struct Committee {
  std::vector<KeyPair> keys;
  InstanceId id{1, 42};
  Bytes message = bytes_of("TXdecSET");

  explicit Committee(std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      keys.push_back(KeyPair::from_seed(900 + i));
    }
  }

  std::size_t size() const { return keys.size(); }
  const KeyPair& leader_keys() const { return keys[0]; }
};

/// Run a full happy-path round: leader proposes, members echo to all,
/// members confirm, leader collects. Returns the cert if reached.
std::optional<QuorumCert> run_happy_path(Committee& c) {
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
  }

  const ProposeWire propose = leader.make_propose();
  std::vector<EchoWire> echoes;
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    auto out = m.on_propose(propose);
    EXPECT_FALSE(out.witness.has_value());
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
    // A size-1 committee confirms straight from the proposal.
    if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
  }
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      EXPECT_FALSE(out.witness.has_value());
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  std::optional<QuorumCert> cert;
  for (const auto& confirm : confirms) {
    auto maybe = leader.on_confirm(confirm);
    if (maybe) cert = maybe;
  }
  return cert;
}

TEST(Alg3, HappyPathReachesQuorum) {
  Committee c(5);
  const auto cert = run_happy_path(c);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->digest, crypto::sha256(c.message));
  std::vector<crypto::PublicKey> pks;
  for (const auto& kp : c.keys) pks.push_back(kp.pk);
  EXPECT_TRUE(cert->verify(pks, c.size()));
}

TEST(Alg3, WorksForVariousSizes) {
  for (std::size_t size : {1u, 2u, 3u, 4u, 7u, 10u, 15u}) {
    Committee c(size);
    EXPECT_TRUE(run_happy_path(c).has_value()) << "size=" << size;
  }
}

TEST(Alg3, MemberAcceptsMessageContent) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  member.on_propose(leader.make_propose());
  ASSERT_TRUE(member.accepted_message().has_value());
  EXPECT_EQ(*member.accepted_message(), c.message);
}

TEST(Alg3, NonLeaderProposeIgnored) {
  Committee c(4);
  LeaderInstance impostor(c.keys[2], c.id, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  auto out = member.on_propose(impostor.make_propose());
  EXPECT_FALSE(out.echo_broadcast.has_value());
  EXPECT_FALSE(out.witness.has_value());
}

TEST(Alg3, BadDigestIgnored) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  ProposeWire propose = leader.make_propose();
  propose.message.push_back(0xFF);  // H(M) no longer matches
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  auto out = member.on_propose(propose);
  EXPECT_FALSE(out.echo_broadcast.has_value());
}

TEST(Alg3, WrongInstanceIgnored) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), {1, 999}, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  auto out = member.on_propose(leader.make_propose());
  EXPECT_FALSE(out.echo_broadcast.has_value());
}

TEST(Alg3, NoQuorumWithoutMajority) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  auto out = member.on_propose(leader.make_propose());
  ASSERT_TRUE(out.echo_broadcast.has_value());
  // Only its own echo: 1 of 5 is not > C/2, so no confirm.
  EXPECT_FALSE(out.confirm_to_leader.has_value());
  EXPECT_FALSE(member.has_confirmed());
}

TEST(Alg3, LeaderNeedsMajorityConfirms) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
  }
  const ProposeWire propose = leader.make_propose();
  std::vector<EchoWire> echoes;
  for (auto& m : members) {
    auto out = m.on_propose(propose);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  ASSERT_GE(confirms.size(), 3u);
  EXPECT_FALSE(leader.on_confirm(confirms[0]).has_value());
  EXPECT_FALSE(leader.on_confirm(confirms[1]).has_value());
  EXPECT_TRUE(leader.on_confirm(confirms[2]).has_value());  // 3 of 5
}

TEST(Alg3, DuplicateConfirmsNotDoubleCounted) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  const ProposeWire propose = leader.make_propose();
  auto out = member.on_propose(propose);
  std::vector<EchoWire> echoes;
  // Manufacture echoes from all members so member 1 confirms.
  for (std::size_t i = 0; i < c.size(); ++i) {
    MemberInstance other(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
    auto o = other.on_propose(propose);
    if (o.echo_broadcast) echoes.push_back(*o.echo_broadcast);
  }
  std::optional<ConfirmWire> confirm;
  for (const auto& echo : echoes) {
    auto o = member.on_echo(echo);
    if (o.confirm_to_leader) confirm = o.confirm_to_leader;
  }
  ASSERT_TRUE(confirm.has_value());
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());  // replay
  EXPECT_FALSE(leader.on_confirm(*confirm).has_value());
}

TEST(Alg3, ForgedConfirmRejected) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  Confirm body;
  body.id = c.id;
  body.digest = crypto::sha256(bytes_of("different"));
  body.member = 1;
  ConfirmWire wire;
  wire.body = body;
  wire.sig = crypto::make_signed(c.keys[1], body.signed_part());
  EXPECT_FALSE(leader.on_confirm(wire).has_value());
}

TEST(Alg3, EquivocationDetectedViaSecondPropose) {
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance member(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  member.on_propose(leader.make_propose());
  auto out = member.on_propose(
      leader.make_equivocating_propose(bytes_of("conflicting")));
  ASSERT_TRUE(out.witness.has_value());
  EXPECT_TRUE(out.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, EquivocationDetectedViaRelayedEcho) {
  // Leader sends M to member 1 and M' to member 2; member 1 catches the
  // contradiction from member 2's relayed PROPOSE.
  Committee c(4);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());

  m1.on_propose(leader.make_propose());
  auto out2 =
      m2.on_propose(leader.make_equivocating_propose(bytes_of("other")));
  ASSERT_TRUE(out2.echo_broadcast.has_value());

  auto out1 = m1.on_echo(*out2.echo_broadcast);
  ASSERT_TRUE(out1.witness.has_value());
  EXPECT_TRUE(out1.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, EquivocatingLeaderCannotReachQuorumOnBothValues) {
  // With the committee split between two proposals, neither digest can
  // gather > C/2 echoes, so nobody confirms either value.
  Committee c(6);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  const ProposeWire honest = leader.make_propose();
  const ProposeWire evil = leader.make_equivocating_propose(bytes_of("evil"));

  std::vector<MemberInstance> members;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
  }
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    auto out = members[i].on_propose(i % 2 == 0 ? honest : evil);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::size_t confirms = 0;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) ++confirms;
    }
  }
  EXPECT_EQ(confirms, 0u);
}

TEST(Alg3, MemberLearnsFromRelayWithoutDirectPropose) {
  // A member that never received the leader's PROPOSE directly can still
  // echo/confirm from relayed echoes (digest-only path).
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());

  auto out1 = m1.on_propose(leader.make_propose());
  ASSERT_TRUE(out1.echo_broadcast.has_value());
  auto out2 = m2.on_echo(*out1.echo_broadcast);
  // m2 learned the proposal via the relay and echoes it.
  ASSERT_TRUE(out2.echo_broadcast.has_value());
}

TEST(Alg3, TamperedEchoIgnored) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());
  auto out1 = m1.on_propose(leader.make_propose());
  ASSERT_TRUE(out1.echo_broadcast.has_value());
  EchoWire tampered = *out1.echo_broadcast;
  tampered.body.member = 99;  // body no longer matches signature
  auto out2 = m2.on_echo(tampered);
  EXPECT_FALSE(out2.echo_broadcast.has_value());
  EXPECT_FALSE(out2.confirm_to_leader.has_value());
}

// The ECHO handler skips signature checks for relays of the PROPOSE a
// member already holds. These pin what that shortcut may and may not do.

TEST(Alg3, KnownRelayAfterConfirmMakesNoCacheLookups) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  const ProposeWire propose = leader.make_propose();
  MemberInstance m0(c.keys[0], 0, c.id, c.leader_keys().pk, c.size());
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());
  const auto echo0 = m0.on_propose(propose).echo_broadcast;
  const auto echo2 = m2.on_propose(propose).echo_broadcast;
  ASSERT_TRUE(echo0 && echo2);
  m1.on_propose(propose);
  ASSERT_TRUE(m1.on_echo(*echo0).confirm_to_leader.has_value());

  const std::uint64_t hits = crypto::verify_cache::hits();
  const std::uint64_t misses = crypto::verify_cache::misses();
  const MemberOutput out = m1.on_echo(*echo2);
  EXPECT_EQ(crypto::verify_cache::hits(), hits);
  EXPECT_EQ(crypto::verify_cache::misses(), misses);
  EXPECT_FALSE(out.echo_broadcast || out.confirm_to_leader || out.witness);
}

TEST(Alg3, EquivocatingRelayAfterConfirmYieldsWitness) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance m0(c.keys[0], 0, c.id, c.leader_keys().pk, c.size());
  MemberInstance m1(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  MemberInstance m2(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());
  const auto echo0 = m0.on_propose(leader.make_propose()).echo_broadcast;
  ASSERT_TRUE(echo0.has_value());
  m1.on_propose(leader.make_propose());
  m1.on_echo(*echo0);
  ASSERT_TRUE(m1.has_confirmed());

  const auto evil_echo =
      m2.on_propose(leader.make_equivocating_propose(bytes_of("other")))
          .echo_broadcast;
  ASSERT_TRUE(evil_echo.has_value());
  const MemberOutput out = m1.on_echo(*evil_echo);
  ASSERT_TRUE(out.witness.has_value());
  EXPECT_TRUE(out.witness->valid(c.leader_keys().pk));
}

TEST(Alg3, ForgedEchoSignatureNotCountedBeforeConfirm) {
  // Five members need three echoes. m1 holds its own; a forged echo of a
  // known relay plus one genuine echo must not reach three.
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  const ProposeWire propose = leader.make_propose();
  std::vector<MemberInstance> members;
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < c.size(); ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
    echoes.push_back(*members.back().on_propose(propose).echo_broadcast);
  }
  EchoWire forged = echoes[0];
  forged.sig.sig.s ^= 1;  // payload untouched: still relays the PROPOSE
  MemberInstance& m1 = members[1];
  EXPECT_FALSE(m1.on_echo(forged).confirm_to_leader.has_value());
  EXPECT_FALSE(m1.on_echo(echoes[2]).confirm_to_leader.has_value());
  EXPECT_FALSE(m1.has_confirmed());
  EXPECT_TRUE(m1.on_echo(echoes[3]).confirm_to_leader.has_value());
}

TEST(Alg3, WireSerializationRoundTrips) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  const ProposeWire propose = leader.make_propose();
  const ProposeWire propose2 = ProposeWire::deserialize(propose.serialize());
  EXPECT_EQ(propose2.message, propose.message);
  EXPECT_EQ(propose2.sig, propose.sig);

  MemberInstance m(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  auto out = m.on_propose(propose);
  ASSERT_TRUE(out.echo_broadcast.has_value());
  const EchoWire echo2 =
      EchoWire::deserialize(out.echo_broadcast->serialize());
  EXPECT_EQ(echo2.sig, out.echo_broadcast->sig);
  EXPECT_EQ(echo2.body.member, 1u);
}

// --- decoded views: lazy verdicts shared by every receiver ---------------------

/// Total verify-cache lookups so far (hits + misses).
std::uint64_t lookups() {
  return crypto::verify_cache::hits() + crypto::verify_cache::misses();
}

TEST(DecodedView, SecondMemberReadsSharedEchoVerdictsWithoutLookups) {
  Committee c(5);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance sender(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  const EchoWire echo = *sender.on_propose(leader.make_propose()).echo_broadcast;
  // Three receivers in the same state: none holds the PROPOSE yet, so the
  // relayed PROPOSE's signature is checked too.
  auto receiver = [&](std::size_t i) {
    return MemberInstance(c.keys[i], i, c.id, c.leader_keys().pk, c.size());
  };
  MemberInstance control = receiver(2), first = receiver(3), second = receiver(4);

  // Control: an unshared copy, as every receiver decoded before.
  crypto::verify_cache::clear();
  const MemberOutput control_out = control.on_echo(echo);
  const std::uint64_t control_misses = crypto::verify_cache::misses();
  ASSERT_GT(control_misses, 0u);

  crypto::verify_cache::clear();
  const EchoView shared = EchoView::deserialize(echo.serialize());
  const MemberOutput first_out = first.on_echo(shared);
  EXPECT_EQ(crypto::verify_cache::misses(), control_misses);
  const std::uint64_t before = lookups();
  const MemberOutput second_out = second.on_echo(shared);
  EXPECT_EQ(lookups(), before) << "the second receiver reads the verdicts";

  // Same outcome for all three: each learns the proposal and echoes.
  for (const MemberOutput* out : {&control_out, &first_out, &second_out}) {
    EXPECT_TRUE(out->echo_broadcast.has_value());
    EXPECT_FALSE(out->witness.has_value());
  }
}

TEST(DecodedView, EditedCopyOfADecodedWireGetsFreshVerdicts) {
  Committee c(3);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  MemberInstance sender(c.keys[1], 1, c.id, c.leader_keys().pk, c.size());
  const EchoWire echo = *sender.on_propose(leader.make_propose()).echo_broadcast;
  const EchoView view = EchoView::deserialize(echo.serialize());
  ASSERT_TRUE(view.sig_valid() && view.bound() && view.propose_valid());

  EchoWire edited = view.wire();
  edited.body.member = 3;  // no longer what the signature covers
  const EchoView fresh(edited);
  EXPECT_TRUE(fresh.sig_valid());
  EXPECT_FALSE(fresh.bound());
  edited.body.propose_sig.sig.s ^= 1;
  EXPECT_FALSE(EchoView(edited).propose_valid());
  EXPECT_TRUE(view.bound() && view.propose_valid()) << "the original keeps its own";

  // A member fed an edited copy rejects it; the original echo then makes
  // its quorum of two.
  MemberInstance receiver(c.keys[2], 2, c.id, c.leader_keys().pk, c.size());
  receiver.on_propose(leader.make_propose());
  EXPECT_FALSE(receiver.on_echo(edited).confirm_to_leader.has_value());
  EXPECT_FALSE(receiver.on_echo(fresh).confirm_to_leader.has_value());
  EXPECT_TRUE(receiver.on_echo(view).confirm_to_leader.has_value());

  const ProposeWire propose = leader.make_propose();
  ProposeWire forged = propose;
  forged.message.push_back('!');
  EXPECT_EQ(ProposeView(propose).message_digest(), crypto::sha256(propose.message));
  EXPECT_NE(ProposeView(forged).message_digest(),
            ProposeView(propose).message_digest());
}

// Quorum property sweep: cert emerges exactly when confirms > C/2.
class QuorumSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuorumSweep, ThresholdExact) {
  const std::size_t size = GetParam();
  Committee c(size);
  LeaderInstance leader(c.leader_keys(), c.id, c.message, c.size());
  const ProposeWire propose = leader.make_propose();

  std::vector<MemberInstance> members;
  std::vector<EchoWire> echoes;
  for (std::size_t i = 0; i < size; ++i) {
    members.emplace_back(c.keys[i], i, c.id, c.leader_keys().pk, size);
    auto out = members.back().on_propose(propose);
    if (out.echo_broadcast) echoes.push_back(*out.echo_broadcast);
  }
  std::vector<ConfirmWire> confirms;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) confirms.push_back(*out.confirm_to_leader);
    }
  }
  ASSERT_EQ(confirms.size(), size);
  std::optional<QuorumCert> cert;
  std::size_t fed = 0;
  for (const auto& confirm : confirms) {
    cert = leader.on_confirm(confirm);
    ++fed;
    if (cert) break;
  }
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(fed, size / 2 + 1);  // strictly more than half
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 9, 12, 21));

}  // namespace
}  // namespace cyc::consensus
