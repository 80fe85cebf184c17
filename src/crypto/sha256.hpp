// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the protocol's external collision-resistant hash function H
// (§III-C): it backs semi-commitments, Merkle trees, the VRF output map,
// the PoW puzzle and the role-selection difficulty inequality of §IV-F.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "support/bytes.hpp"

namespace cyc::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
///
/// Contexts are cheap to copy, which enables midstate reuse: hash a fixed
/// prefix once, then clone the context for every suffix. The PoW solver
/// goes one step further with first_u64_suffix_below: its 64-byte
/// per-node prefix costs one compression total, and each nonce attempt
/// one more.
class Sha256 {
 public:
  Sha256();

  Sha256& update(BytesView data);
  Sha256& update(std::string_view s);

  /// Append the big-endian encoding of `v` (identical bytes to be64(v))
  /// without a heap allocation.
  Sha256& update_u64(std::uint64_t v);

  /// Finalize and return the digest. The context must not be reused
  /// afterwards (construct a fresh one).
  Digest finalize();

  /// Suffix search (the PoW solver's loop): the first `v` of
  /// start, start + 1, ... (count values, wrapping mod 2^64) for which
  /// digest_prefix_u64 of H(absorbed bytes || be64(v)) is below
  /// `target`. Same answer as cloning the context for every `v` and
  /// finalizing, but when `v` and the padding fit the buffered block (at
  /// most 47 bytes buffered) a try is one compression of a prebuilt final
  /// block from the midstate: no context copy and no digest bytes.
  std::optional<std::uint64_t> first_u64_suffix_below(
      std::uint64_t start, std::uint64_t count, std::uint64_t target) const;

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot hash.
Digest sha256(BytesView data);

/// One-shot hash returning a Bytes copy (convenient for serialization).
Bytes sha256_bytes(BytesView data);

/// Hash of the concatenation of several byte strings (unambiguous because
/// callers pass canonical serde encodings).
Digest sha256_concat(std::initializer_list<BytesView> parts);

/// First 8 bytes of the digest as a big-endian integer — used by the
/// sortition `hash mod m` step (Alg. 1) and difficulty comparisons (§IV-F).
std::uint64_t digest_prefix_u64(const Digest& d);

/// Bytes view helpers.
Bytes digest_to_bytes(const Digest& d);
Digest digest_from_bytes(BytesView b);

}  // namespace cyc::crypto
