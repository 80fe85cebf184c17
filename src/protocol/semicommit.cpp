#include "protocol/semicommit.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/serde.hpp"

namespace cyc::protocol {

Bytes encode_member_list(std::vector<crypto::PublicKey> members) {
  std::sort(members.begin(), members.end());
  Writer w;
  w.str("cyc.memberlist");
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& pk : members) w.u64(pk.y);
  return w.take();
}

crypto::Digest semi_commitment(const std::vector<crypto::PublicKey>& members) {
  return crypto::sha256(encode_member_list(members));
}

bool verify_semi_commitment(const crypto::Digest& commitment,
                            const std::vector<crypto::PublicKey>& members) {
  return semi_commitment(members) == commitment;
}

Bytes commitment_payload(std::uint64_t round, std::uint32_t committee,
                         const crypto::Digest& commitment) {
  Writer w;
  w.str("SEMI_COM");
  w.u64(round);
  w.u32(committee);
  w.bytes(crypto::digest_to_bytes(commitment));
  return w.take();
}

Bytes member_list_payload(std::uint64_t round, std::uint32_t committee,
                          const std::vector<crypto::PublicKey>& members) {
  Writer w;
  w.str("MEMBER_LIST");
  w.u64(round);
  w.u32(committee);
  w.bytes(encode_member_list(members));
  return w.take();
}

std::vector<crypto::PublicKey> parse_member_list_payload(BytesView payload) {
  Reader rd(payload);
  if (rd.str() != "MEMBER_LIST") {
    throw std::invalid_argument("parse_member_list_payload: bad tag");
  }
  (void)rd.u64();
  (void)rd.u32();
  const Bytes encoded = rd.bytes();
  Reader inner(encoded);
  if (inner.str() != "cyc.memberlist") {
    throw std::invalid_argument("parse_member_list_payload: bad inner tag");
  }
  const std::uint32_t count = inner.count(8);
  std::vector<crypto::PublicKey> members;
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    members.push_back(crypto::PublicKey{inner.u64()});
  }
  return members;
}

crypto::Digest parse_commitment_payload(BytesView payload) {
  Reader rd(payload);
  if (rd.str() != "SEMI_COM") {
    throw std::invalid_argument("parse_commitment_payload: bad tag");
  }
  (void)rd.u64();
  (void)rd.u32();
  return crypto::digest_from_bytes(rd.bytes());
}

Bytes CommitmentMismatchWitness::serialize() const {
  Writer w;
  w.bytes(list_msg.serialize());
  w.bytes(commitment_msg.serialize());
  return w.take();
}

CommitmentMismatchWitness CommitmentMismatchWitness::deserialize(BytesView b) {
  Reader rd(b);
  CommitmentMismatchWitness w;
  w.list_msg = crypto::SignedMessage::deserialize(rd.bytes());
  w.commitment_msg = crypto::SignedMessage::deserialize(rd.bytes());
  return w;
}

bool CommitmentMismatchWitness::valid(const crypto::PublicKey& leader) const {
  if (!(list_msg.signer == leader) || !(commitment_msg.signer == leader)) {
    return false;
  }
  if (!list_msg.valid() || !commitment_msg.valid()) return false;
  try {
    const auto members = parse_member_list_payload(list_msg.payload);
    const auto committed = parse_commitment_payload(commitment_msg.payload);
    return semi_commitment(members) != committed;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace cyc::protocol
