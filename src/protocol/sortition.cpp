#include "protocol/sortition.hpp"

#include "support/serde.hpp"

namespace cyc::protocol {

namespace {
Bytes sortition_input(std::uint64_t round, const crypto::Digest& randomness) {
  Writer w;
  w.str("COMMON_MEMBER");
  w.u64(round);
  w.bytes(crypto::digest_to_bytes(randomness));
  return w.take();
}
}  // namespace

SortitionTicket crypto_sort(const crypto::KeyPair& keys, std::uint64_t round,
                            const crypto::Digest& randomness,
                            std::uint32_t m) {
  SortitionTicket ticket;
  ticket.proof = crypto::vrf_prove(keys, sortition_input(round, randomness));
  ticket.committee = static_cast<std::uint32_t>(
      crypto::digest_prefix_u64(ticket.proof.hash) % m);
  return ticket;
}

bool verify_sortition(const crypto::PublicKey& pk, std::uint64_t round,
                      const crypto::Digest& randomness, std::uint32_t m,
                      const SortitionTicket& ticket) {
  if (!crypto::vrf_verify(pk, sortition_input(round, randomness),
                          ticket.proof)) {
    return false;
  }
  return ticket.committee ==
         crypto::digest_prefix_u64(ticket.proof.hash) % m;
}

std::uint64_t role_hash(std::uint64_t next_round,
                        const crypto::Digest& randomness,
                        const crypto::PublicKey& pk, std::string_view role) {
  Writer w;
  w.u64(next_round);
  w.bytes(crypto::digest_to_bytes(randomness));
  w.u64(pk.y);
  w.str(role);
  return crypto::digest_prefix_u64(crypto::sha256(w.out()));
}

std::uint64_t role_difficulty(std::uint64_t population, std::uint64_t want) {
  if (population == 0) return 0;
  if (want >= population) return ~0ull;
  // Threshold = 2^64 * want / population, computed in 128 bits.
  const unsigned __int128 numerator =
      static_cast<unsigned __int128>(want) << 64;
  return static_cast<std::uint64_t>(numerator / population);
}

bool wins_role(std::uint64_t next_round, const crypto::Digest& randomness,
               const crypto::PublicKey& pk, std::string_view role,
               std::uint64_t difficulty) {
  return role_hash(next_round, randomness, pk, role) <= difficulty;
}

std::uint32_t partial_committee(std::uint64_t next_round,
                                const crypto::Digest& randomness,
                                const crypto::PublicKey& pk, std::uint32_t m) {
  return static_cast<std::uint32_t>(
      role_hash(next_round, randomness, pk, kRolePartial) % m);
}

}  // namespace cyc::protocol
