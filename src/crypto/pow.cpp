#include "crypto/pow.hpp"

namespace cyc::crypto {

namespace {
// Midstate with the fixed prefix ("cyc.pow" || challenge) absorbed; an
// attempt appends only the nonce. The byte stream — and so every digest —
// is identical to hashing the concatenation in one go.
Sha256 puzzle_prefix(BytesView challenge) {
  Sha256 ctx;
  ctx.update("cyc.pow");
  ctx.update(challenge);
  return ctx;
}

Digest puzzle_hash(const Sha256& prefix, std::uint64_t nonce) {
  Sha256 ctx = prefix;
  return ctx.update_u64(nonce).finalize();
}
}  // namespace

bool pow_verify(BytesView challenge, std::uint64_t target,
                const PowSolution& solution) {
  const Digest d = puzzle_hash(puzzle_prefix(challenge), solution.nonce);
  if (d != solution.digest) return false;
  return digest_prefix_u64(d) < target;
}

std::optional<PowSolution> pow_solve(BytesView challenge, std::uint64_t target,
                                     std::uint64_t start,
                                     std::uint64_t max_iters) {
  // The round puzzle's prefix is exactly one block, so each try is one
  // compression; the digest is formed for the winning nonce only.
  const Sha256 prefix = puzzle_prefix(challenge);
  const auto nonce = prefix.first_u64_suffix_below(start, max_iters, target);
  if (!nonce) return std::nullopt;
  return PowSolution{*nonce, puzzle_hash(prefix, *nonce)};
}

std::uint64_t pow_target_for_bits(unsigned bits) {
  if (bits == 0) return ~0ull;
  if (bits >= 64) return 1;
  return 1ull << (64 - bits);
}

double pow_expected_work(std::uint64_t target) {
  if (target == 0) return 0.0;
  return 18446744073709551616.0 /* 2^64 */ / static_cast<double>(target);
}

}  // namespace cyc::crypto
