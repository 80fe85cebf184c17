#include "ledger/validator.hpp"

#include <gtest/gtest.h>

namespace cyc::ledger {
namespace {

constexpr std::uint32_t kShards = 4;

struct Env {
  std::vector<crypto::KeyPair> users;
  UtxoStore store{0, kShards};
  crypto::KeyPair alice, bob;

  Env() {
    for (std::uint64_t i = 0; i < 64; ++i) {
      users.push_back(crypto::KeyPair::from_seed(i + 5000));
    }
    bool have_alice = false;
    for (const auto& u : users) {
      if (shard_of(u.pk, kShards) == 0) {
        if (!have_alice) {
          alice = u;
          have_alice = true;
        } else {
          bob = u;
          break;
        }
      }
    }
    store.add(outpoint(0), TxOut{alice.pk, 100});
    store.add(outpoint(1), TxOut{alice.pk, 40});
  }

  static OutPoint outpoint(int i) {
    return OutPoint{crypto::sha256(concat({bytes_of("gen"), be64(i)})), 0};
  }

  Transaction spend(Amount pay, Amount change) const {
    Transaction tx;
    tx.spender = alice.pk;
    tx.inputs.push_back(outpoint(0));
    tx.outputs.push_back(TxOut{bob.pk, pay});
    if (change > 0) tx.outputs.push_back(TxOut{alice.pk, change});
    sign_tx(tx, alice);
    return tx;
  }
};

TEST(Validator, ValidTransaction) {
  Env env;
  const auto tx = env.spend(60, 39);  // fee 1
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kValid);
  EXPECT_TRUE(V(tx, env.store));
  EXPECT_EQ(tx_fee(tx, env.store), 1u);
}

TEST(Validator, ExactConservationValid) {
  Env env;
  const auto tx = env.spend(60, 40);  // fee 0
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kValid);
  EXPECT_EQ(tx_fee(tx, env.store), 0u);
}

TEST(Validator, OverspendRejected) {
  Env env;
  const auto tx = env.spend(90, 20);  // 110 > 100
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kOverspend);
  EXPECT_FALSE(V(tx, env.store));
}

TEST(Validator, UnknownInputRejected) {
  Env env;
  Transaction tx;
  tx.spender = env.alice.pk;
  tx.inputs.push_back(OutPoint{crypto::sha256(bytes_of("nope")), 0});
  tx.outputs.push_back(TxOut{env.bob.pk, 1});
  sign_tx(tx, env.alice);
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kUnknownInput);
}

TEST(Validator, SpentInputRejected) {
  Env env;
  const auto tx = env.spend(60, 39);
  env.store.apply(tx);
  // Replaying the same tx must fail: its input is gone.
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kUnknownInput);
}

TEST(Validator, BadSignatureRejected) {
  Env env;
  auto tx = env.spend(60, 39);
  tx.outputs[0].amount = 61;  // tamper
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kBadSignature);
}

TEST(Validator, TheftRejected) {
  // Bob tries to spend Alice's output by naming her as spender but
  // signing with his own key.
  Env env;
  Transaction tx;
  tx.spender = env.alice.pk;
  tx.inputs.push_back(Env::outpoint(0));
  tx.outputs.push_back(TxOut{env.bob.pk, 100});
  sign_tx(tx, env.bob);
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kBadSignature);
}

TEST(Validator, NotOwnerRejected) {
  // Bob signs as himself but tries to spend an output owned by Alice.
  Env env;
  Transaction tx;
  tx.spender = env.bob.pk;
  tx.inputs.push_back(Env::outpoint(0));
  tx.outputs.push_back(TxOut{env.bob.pk, 100});
  sign_tx(tx, env.bob);
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kNotOwner);
}

TEST(Validator, InternalDoubleSpendRejected) {
  Env env;
  Transaction tx;
  tx.spender = env.alice.pk;
  tx.inputs.push_back(Env::outpoint(0));
  tx.inputs.push_back(Env::outpoint(0));  // same outpoint twice
  tx.outputs.push_back(TxOut{env.bob.pk, 150});
  sign_tx(tx, env.alice);
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kInternalDoubleSpend);
}

TEST(Validator, MalformedRejected) {
  Env env;
  Transaction no_inputs;
  no_inputs.spender = env.alice.pk;
  no_inputs.outputs.push_back(TxOut{env.bob.pk, 1});
  sign_tx(no_inputs, env.alice);
  EXPECT_EQ(verify_tx(no_inputs, env.store), TxVerdict::kMalformed);

  Transaction no_outputs;
  no_outputs.spender = env.alice.pk;
  no_outputs.inputs.push_back(Env::outpoint(0));
  sign_tx(no_outputs, env.alice);
  EXPECT_EQ(verify_tx(no_outputs, env.store), TxVerdict::kMalformed);

  Transaction zero_output = env.spend(60, 39);
  zero_output.outputs[0].amount = 0;
  sign_tx(zero_output, env.alice);
  EXPECT_EQ(verify_tx(zero_output, env.store), TxVerdict::kMalformed);
}

TEST(Validator, MultiInputSpend) {
  Env env;
  Transaction tx;
  tx.spender = env.alice.pk;
  tx.inputs.push_back(Env::outpoint(0));
  tx.inputs.push_back(Env::outpoint(1));
  tx.outputs.push_back(TxOut{env.bob.pk, 135});
  sign_tx(tx, env.alice);
  EXPECT_EQ(verify_tx(tx, env.store), TxVerdict::kValid);
  EXPECT_EQ(tx_fee(tx, env.store), 5u);
}

TEST(Validator, VerdictNames) {
  EXPECT_EQ(verdict_name(TxVerdict::kValid), "valid");
  EXPECT_EQ(verdict_name(TxVerdict::kOverspend), "overspend");
  EXPECT_EQ(verdict_name(TxVerdict::kInternalDoubleSpend),
            "internal-double-spend");
}

}  // namespace
}  // namespace cyc::ledger
