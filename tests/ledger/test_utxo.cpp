#include "ledger/utxo.hpp"

#include <gtest/gtest.h>

namespace cyc::ledger {
namespace {

struct Fixture {
  static constexpr std::uint32_t kShards = 4;
  std::vector<crypto::KeyPair> users;
  Fixture() {
    for (std::uint64_t i = 0; i < 64; ++i) {
      users.push_back(crypto::KeyPair::from_seed(i + 1000));
    }
  }
  const crypto::KeyPair& in_shard(ShardId s, std::size_t skip = 0) const {
    std::size_t found = 0;
    for (const auto& u : users) {
      if (shard_of(u.pk, kShards) == s) {
        if (found == skip) return u;
        ++found;
      }
    }
    throw std::runtime_error("no user in shard");
  }
};

OutPoint op(int i) {
  return OutPoint{crypto::sha256(be64(static_cast<std::uint64_t>(i))), 0};
}

TEST(Utxo, AddGetSpend) {
  Fixture f;
  UtxoStore store(0, Fixture::kShards);
  const auto& owner = f.in_shard(0);
  EXPECT_TRUE(store.add(op(1), TxOut{owner.pk, 100}));
  EXPECT_TRUE(store.contains(op(1)));
  const auto got = store.get(op(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->amount, 100u);
  EXPECT_TRUE(store.spend(op(1)));
  EXPECT_FALSE(store.contains(op(1)));
  EXPECT_FALSE(store.spend(op(1)));  // already spent
}

TEST(Utxo, RejectsForeignShardOutputs) {
  Fixture f;
  UtxoStore store(0, Fixture::kShards);
  const auto& foreign = f.in_shard(1);
  EXPECT_FALSE(store.add(op(2), TxOut{foreign.pk, 10}));
  EXPECT_EQ(store.size(), 0u);
}

TEST(Utxo, TotalValue) {
  Fixture f;
  UtxoStore store(2, Fixture::kShards);
  const auto& owner = f.in_shard(2);
  store.add(op(3), TxOut{owner.pk, 100});
  store.add(op(4), TxOut{owner.pk, 50});
  EXPECT_EQ(store.total_value(), 150u);
}

TEST(Utxo, ApplySpendsAndAdds) {
  Fixture f;
  const auto& alice = f.in_shard(0);
  const auto& bob = f.in_shard(0, 1);
  UtxoStore store(0, Fixture::kShards);
  store.add(op(5), TxOut{alice.pk, 100});

  Transaction tx;
  tx.spender = alice.pk;
  tx.inputs.push_back(op(5));
  tx.outputs.push_back(TxOut{bob.pk, 90});
  sign_tx(tx, alice);

  store.apply(tx);
  EXPECT_FALSE(store.contains(op(5)));
  EXPECT_TRUE(store.contains(OutPoint{tx.id(), 0}));
  EXPECT_EQ(store.total_value(), 90u);
}

TEST(Utxo, ApplyCrossShardOnlyTouchesOwnSide) {
  Fixture f;
  const auto& alice = f.in_shard(0);
  const auto& carol = f.in_shard(1);
  UtxoStore store0(0, Fixture::kShards);
  UtxoStore store1(1, Fixture::kShards);
  store0.add(op(6), TxOut{alice.pk, 100});

  Transaction tx;
  tx.spender = alice.pk;
  tx.inputs.push_back(op(6));
  tx.outputs.push_back(TxOut{carol.pk, 100});
  sign_tx(tx, alice);

  store0.apply(tx);
  store1.apply(tx);
  EXPECT_EQ(store0.size(), 0u);  // input spent, no output belongs here
  EXPECT_EQ(store1.size(), 1u);  // carol's output landed in shard 1
  EXPECT_EQ(store1.total_value(), 100u);
}

TEST(Utxo, DigestReflectsContent) {
  Fixture f;
  const auto& owner = f.in_shard(3);
  UtxoStore a(3, Fixture::kShards), b(3, Fixture::kShards);
  EXPECT_EQ(a.digest(), b.digest());
  a.add(op(7), TxOut{owner.pk, 10});
  EXPECT_NE(a.digest(), b.digest());
  b.add(op(7), TxOut{owner.pk, 10});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Utxo, DigestOrderIndependent) {
  Fixture f;
  const auto& owner = f.in_shard(1);
  UtxoStore a(1, Fixture::kShards), b(1, Fixture::kShards);
  a.add(op(8), TxOut{owner.pk, 1});
  a.add(op(9), TxOut{owner.pk, 2});
  b.add(op(9), TxOut{owner.pk, 2});
  b.add(op(8), TxOut{owner.pk, 1});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Utxo, OutpointsSorted) {
  Fixture f;
  const auto& owner = f.in_shard(0);
  UtxoStore store(0, Fixture::kShards);
  for (int i = 20; i > 10; --i) store.add(op(i), TxOut{owner.pk, 1});
  const auto ops = store.outpoints();
  EXPECT_TRUE(std::is_sorted(ops.begin(), ops.end()));
  EXPECT_EQ(ops.size(), 10u);
}

}  // namespace
}  // namespace cyc::ledger
