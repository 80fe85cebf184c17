// EpochHandoff record mechanics: canonical serialization round-trip,
// content digest sensitivity, and the order-sensitive carryover digest.
#include "epoch/handoff.hpp"

#include <gtest/gtest.h>

#include "ledger/validator.hpp"

namespace cyc::epoch {
namespace {

EpochHandoff sample_handoff() {
  EpochHandoff h;
  h.epoch = 3;
  h.boundary_round = 7;
  h.randomness = crypto::sha256(bytes_of("rand"));
  h.chain_tip = crypto::sha256(bytes_of("tip"));
  h.chain_height = 6;
  h.shard_digests = {crypto::sha256(bytes_of("s0")),
                     crypto::sha256(bytes_of("s1"))};
  h.carried_txs = 4;
  h.carried_digest = crypto::sha256(bytes_of("carry"));
  h.surviving_reputation = 123.5;
  h.members = {0, 1, 2, 5, 9};
  h.joined = {9};
  h.retired = {3};
  h.join_candidates = 2;
  h.beacon_disqualified = 1;
  return h;
}

TEST(EpochHandoff, SerializationRoundTrips) {
  const EpochHandoff h = sample_handoff();
  const EpochHandoff back = EpochHandoff::deserialize(h.serialize());
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.digest(), h.digest());
}

TEST(EpochHandoff, RejectsForeignBytes) {
  EXPECT_THROW(EpochHandoff::deserialize(bytes_of("not a handoff")),
               std::exception);
}

TEST(EpochHandoff, DigestPinsEveryField) {
  const EpochHandoff base = sample_handoff();
  // Every forgeable field must move the content digest — otherwise a
  // forged record could reuse an honest digest.
  EpochHandoff m = base;
  m.carried_txs -= 1;
  EXPECT_NE(m.digest(), base.digest()) << "carried_txs not pinned";
  m = base;
  m.surviving_reputation += 1.0;
  EXPECT_NE(m.digest(), base.digest()) << "surviving_reputation not pinned";
  m = base;
  m.chain_height += 1;
  EXPECT_NE(m.digest(), base.digest()) << "chain_height not pinned";
  m = base;
  m.members.push_back(99);
  EXPECT_NE(m.digest(), base.digest()) << "members not pinned";
  m = base;
  m.retired = {4};
  EXPECT_NE(m.digest(), base.digest()) << "retired not pinned";
  m = base;
  m.shard_digests[1] = crypto::sha256(bytes_of("tampered"));
  EXPECT_NE(m.digest(), base.digest()) << "shard digests not pinned";
}

ledger::Transaction tx_paying(ledger::Amount amount) {
  const crypto::KeyPair kp = crypto::KeyPair::from_seed(7);
  ledger::Transaction tx;
  tx.outputs = {{kp.pk, amount}};
  tx.spender = kp.pk;
  ledger::sign_tx(tx, kp);
  return tx;
}

TEST(CarryoverDigest, OrderAndContentSensitive) {
  const auto tx1 = tx_paying(10);
  const auto tx2 = tx_paying(20);
  const auto forward = carryover_digest({tx1, tx2});
  const auto backward = carryover_digest({tx2, tx1});
  EXPECT_NE(forward, backward) << "the Remaining TX List is ordered";
  EXPECT_NE(carryover_digest({tx1}), carryover_digest({tx1, tx1}))
      << "duplicated carried tx must change the digest";
  EXPECT_EQ(carryover_digest({}), carryover_digest({}));
  EXPECT_NE(carryover_digest({}), carryover_digest({tx1}));
  EXPECT_EQ(forward, carryover_digest({tx1, tx2})) << "deterministic";
}

}  // namespace
}  // namespace cyc::epoch
