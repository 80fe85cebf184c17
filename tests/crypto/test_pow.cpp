#include "crypto/pow.hpp"

#include <gtest/gtest.h>

namespace cyc::crypto {
namespace {

TEST(Pow, SolveAndVerify) {
  const Bytes challenge = bytes_of("round-5-challenge");
  const std::uint64_t target = pow_target_for_bits(8);
  const auto solution = pow_solve(challenge, target, 0, 1u << 16);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(pow_verify(challenge, target, *solution));
}

TEST(Pow, WrongChallengeRejected) {
  const Bytes challenge = bytes_of("challenge A");
  const std::uint64_t target = pow_target_for_bits(8);
  const auto solution = pow_solve(challenge, target, 0, 1u << 16);
  ASSERT_TRUE(solution.has_value());
  EXPECT_FALSE(pow_verify(bytes_of("challenge B"), target, *solution));
}

TEST(Pow, ForgedDigestRejected) {
  const Bytes challenge = bytes_of("challenge");
  const std::uint64_t target = pow_target_for_bits(8);
  auto solution = pow_solve(challenge, target, 0, 1u << 16);
  ASSERT_TRUE(solution.has_value());
  solution->digest[0] ^= 1;
  EXPECT_FALSE(pow_verify(challenge, target, *solution));
}

TEST(Pow, HarderTargetRejected) {
  const Bytes challenge = bytes_of("challenge");
  const auto solution = pow_solve(challenge, pow_target_for_bits(4), 0, 4096);
  ASSERT_TRUE(solution.has_value());
  // The 4-bit solution is (almost surely) not a 40-bit solution.
  EXPECT_FALSE(pow_verify(challenge, pow_target_for_bits(40), *solution));
}

TEST(Pow, ExhaustedIterationsReturnNullopt) {
  // A 60-bit target is unreachable in 16 iterations.
  const auto solution =
      pow_solve(bytes_of("x"), pow_target_for_bits(60), 0, 16);
  EXPECT_FALSE(solution.has_value());
}

TEST(Pow, TargetForBits) {
  EXPECT_EQ(pow_target_for_bits(0), ~0ull);
  EXPECT_EQ(pow_target_for_bits(1), 1ull << 63);
  EXPECT_EQ(pow_target_for_bits(8), 1ull << 56);
  EXPECT_EQ(pow_target_for_bits(64), 1u);
  EXPECT_EQ(pow_target_for_bits(100), 1u);
}

TEST(Pow, ExpectedWork) {
  EXPECT_NEAR(pow_expected_work(pow_target_for_bits(8)), 256.0, 1e-6);
  EXPECT_NEAR(pow_expected_work(pow_target_for_bits(1)), 2.0, 1e-6);
}

TEST(Pow, StartOffsetRespected) {
  const Bytes challenge = bytes_of("offset");
  const std::uint64_t target = pow_target_for_bits(6);
  const auto a = pow_solve(challenge, target, 0, 1u << 16);
  const auto b = pow_solve(challenge, target, a->nonce + 1, 1u << 16);
  ASSERT_TRUE(a && b);
  EXPECT_GT(b->nonce, a->nonce);
  EXPECT_TRUE(pow_verify(challenge, target, *b));
}

// Reference solver: one fresh context per nonce, no midstate, no
// prebuilt final block.
std::optional<PowSolution> reference_solve(BytesView challenge,
                                           std::uint64_t target,
                                           std::uint64_t start,
                                           std::uint64_t max_iters) {
  for (std::uint64_t i = 0; i < max_iters; ++i) {
    Sha256 ctx;
    ctx.update("cyc.pow");
    ctx.update(challenge);
    const Digest d = ctx.update_u64(start + i).finalize();
    if (digest_prefix_u64(d) < target) return PowSolution{start + i, d};
  }
  return std::nullopt;
}

TEST(Pow, SolveMatchesReferenceLoop) {
  // After the 7-byte "cyc.pow" tag, challenges of 0..80 bytes leave every
  // buffered length 0..63 before the nonce: the one-block template (at
  // most 47 buffered) and the two-block fallback (challenges of 41..56
  // bytes). The round puzzle's 57-byte challenge fills exactly one block.
  const std::uint64_t starts[] = {0, 977, ~0ull - 20};  // the last wraps
  const std::uint64_t targets[] = {pow_target_for_bits(3),
                                   pow_target_for_bits(64), 0};
  for (std::size_t len = 0; len <= 80; ++len) {
    Bytes challenge(len);
    for (std::size_t i = 0; i < len; ++i) {
      challenge[i] = static_cast<std::uint8_t>(31 * i + len);
    }
    for (std::uint64_t start : starts) {
      for (std::uint64_t target : targets) {
        const auto got = pow_solve(challenge, target, start, 64);
        const auto want = reference_solve(challenge, target, start, 64);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "len=" << len << " start=" << start << " target=" << target;
        if (want) {
          EXPECT_EQ(got->nonce, want->nonce) << "len=" << len;
          EXPECT_EQ(got->digest, want->digest) << "len=" << len;
        }
      }
      EXPECT_FALSE(pow_solve(challenge, ~0ull, start, 0).has_value());
    }
  }
}

TEST(Pow, DifficultyScalesWork) {
  // Average nonce needed grows roughly 2x per extra bit; check loosely
  // over a few challenges.
  double easy_total = 0, hard_total = 0;
  for (int i = 0; i < 10; ++i) {
    const Bytes ch = concat({bytes_of("scale"), be64(i)});
    easy_total += static_cast<double>(
        pow_solve(ch, pow_target_for_bits(4), 0, 1u << 20)->nonce + 1);
    hard_total += static_cast<double>(
        pow_solve(ch, pow_target_for_bits(10), 0, 1u << 20)->nonce + 1);
  }
  EXPECT_GT(hard_total, easy_total);
}

}  // namespace
}  // namespace cyc::crypto
