#include "ledger/light_client.hpp"

#include <gtest/gtest.h>

namespace cyc::ledger {
namespace {

Transaction sample_tx(std::uint64_t seed) {
  const auto a = crypto::KeyPair::from_seed(seed);
  const auto b = crypto::KeyPair::from_seed(seed + 1);
  Transaction tx;
  tx.spender = a.pk;
  tx.inputs.push_back(OutPoint{crypto::sha256(be64(seed)), 0});
  tx.outputs.push_back(TxOut{b.pk, 7});
  sign_tx(tx, a);
  return tx;
}

struct Env {
  Chain chain;
  LightClient client;
  std::vector<Block> blocks;

  void produce_round(std::size_t txs, std::uint64_t base) {
    std::vector<Transaction> body;
    for (std::size_t i = 0; i < txs; ++i) body.push_back(sample_tx(base + 2 * i));
    Block block = Block::build(chain.tip().round + 1, chain.tip().hash(),
                               crypto::sha256(be64(base)), std::move(body));
    ASSERT_TRUE(chain.append(block));
    blocks.push_back(block);
  }
};

TEST(LightClient, FollowsHeaderChain) {
  Env env;
  env.produce_round(3, 100);
  env.produce_round(2, 200);
  for (const auto& block : env.blocks) {
    EXPECT_TRUE(env.client.accept_header(block.header));
  }
  EXPECT_EQ(env.client.height(), 2u);
  EXPECT_EQ(env.client.tip(), env.blocks.back().header);
}

TEST(LightClient, RejectsForkedHeader) {
  Env env;
  env.produce_round(1, 300);
  ASSERT_TRUE(env.client.accept_header(env.blocks[0].header));
  // A competing round-1 header does not extend the tip.
  BlockHeader fork = env.blocks[0].header;
  fork.body_root = crypto::sha256(bytes_of("forked"));
  EXPECT_FALSE(env.client.accept_header(fork));
  // A round-3 header skips a round.
  BlockHeader skip = env.blocks[0].header;
  skip.round = 3;
  skip.prev_hash = env.client.tip().hash();
  EXPECT_FALSE(env.client.accept_header(skip));
}

TEST(LightClient, RejectsReplay) {
  Env env;
  env.produce_round(1, 400);
  ASSERT_TRUE(env.client.accept_header(env.blocks[0].header));
  EXPECT_FALSE(env.client.accept_header(env.blocks[0].header));
}

TEST(LightClient, VerifiesPayments) {
  Env env;
  env.produce_round(5, 500);
  ASSERT_TRUE(env.client.accept_header(env.blocks[0].header));
  for (std::size_t i = 0; i < env.blocks[0].txs.size(); ++i) {
    const auto proof = env.blocks[0].prove_inclusion(i);
    EXPECT_TRUE(
        env.client.verify_payment(1, env.blocks[0].txs[i], proof));
  }
}

TEST(LightClient, RejectsForeignPayment) {
  Env env;
  env.produce_round(4, 600);
  ASSERT_TRUE(env.client.accept_header(env.blocks[0].header));
  const auto proof = env.blocks[0].prove_inclusion(0);
  EXPECT_FALSE(env.client.verify_payment(1, sample_tx(999), proof));
  // Unknown heights fail closed.
  EXPECT_FALSE(env.client.verify_payment(0, env.blocks[0].txs[0], proof));
  EXPECT_FALSE(env.client.verify_payment(7, env.blocks[0].txs[0], proof));
}

TEST(LightClient, RandomnessLookup) {
  Env env;
  env.produce_round(1, 700);
  ASSERT_TRUE(env.client.accept_header(env.blocks[0].header));
  const auto randomness = env.client.randomness_at(1);
  ASSERT_TRUE(randomness.has_value());
  EXPECT_EQ(*randomness, env.blocks[0].header.randomness);
  EXPECT_FALSE(env.client.randomness_at(9).has_value());
}

TEST(LightClient, InteroperatesWithChainGenesis) {
  // The client starts from the same genesis sentinel as Chain, so the
  // first real header of any engine run is acceptable directly.
  Chain chain;
  LightClient client;
  EXPECT_EQ(client.tip(), chain.genesis());
}

}  // namespace
}  // namespace cyc::ledger
