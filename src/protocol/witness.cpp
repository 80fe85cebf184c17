#include "protocol/witness.hpp"

#include <set>

#include "support/serde.hpp"

namespace cyc::protocol {

std::string_view witness_kind_name(WitnessKind k) {
  switch (k) {
    case WitnessKind::kEquivocation: return "equivocation";
    case WitnessKind::kCommitMismatch: return "commit-mismatch";
    case WitnessKind::kTimeout: return "timeout";
  }
  return "unknown";
}

Bytes Accusation::serialize() const {
  Writer w;
  w.u64(round);
  w.u32(committee);
  w.u64(accused.y);
  w.u64(accuser.y);
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(witness);
  return w.take();
}

Accusation Accusation::deserialize(BytesView b) {
  Reader rd(b);
  Accusation a;
  a.round = rd.u64();
  a.committee = rd.u32();
  a.accused.y = rd.u64();
  a.accuser.y = rd.u64();
  a.kind = static_cast<WitnessKind>(rd.u8());
  a.witness = rd.bytes();
  return a;
}

bool Accusation::witness_valid() const {
  try {
    switch (kind) {
      case WitnessKind::kEquivocation: {
        const auto w = consensus::EquivocationWitness::deserialize(witness);
        return w.valid(accused);
      }
      case WitnessKind::kCommitMismatch: {
        const auto w = CommitmentMismatchWitness::deserialize(witness);
        return w.valid(accused);
      }
      case WitnessKind::kTimeout:
        return false;  // needs corroboration, not a signature
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

Bytes ImpeachmentCert::approval_payload(const Accusation& a) {
  Writer w;
  w.str("IMPEACH");
  w.bytes(crypto::digest_to_bytes(crypto::sha256(a.serialize())));
  return w.take();
}

Bytes ImpeachmentCert::serialize() const {
  Writer w;
  w.bytes(accusation.serialize());
  w.u32(static_cast<std::uint32_t>(approvals.size()));
  for (const auto& sm : approvals) w.bytes(sm.serialize());
  return w.take();
}

ImpeachmentCert ImpeachmentCert::deserialize(BytesView b) {
  Reader rd(b);
  ImpeachmentCert cert;
  cert.accusation = Accusation::deserialize(rd.bytes());
  const std::uint32_t count = rd.count(4);  // u32 length prefix each
  cert.approvals.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cert.approvals.push_back(crypto::SignedMessage::deserialize(rd.bytes()));
  }
  return cert;
}

bool ImpeachmentCert::verify(const std::vector<crypto::PublicKey>& committee,
                             std::size_t committee_size) const {
  const Bytes expected = approval_payload(accusation);
  std::set<std::uint64_t> committee_keys;
  for (const auto& pk : committee) committee_keys.insert(pk.y);
  std::set<std::uint64_t> signers;
  std::vector<const crypto::SignedMessage*> to_verify;
  to_verify.reserve(approvals.size());
  for (const auto& sm : approvals) {
    if (!committee_keys.contains(sm.signer.y)) return false;
    if (!equal(sm.payload, expected)) return false;
    if (!signers.insert(sm.signer.y).second) return false;
    to_verify.push_back(&sm);
  }
  if (signers.size() * 2 <= committee_size) return false;
  return crypto::verify_batch(to_verify);
}

}  // namespace cyc::protocol
