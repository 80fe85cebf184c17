#include "consensus/types.hpp"

#include <set>

#include "support/serde.hpp"

namespace cyc::consensus {

namespace {

void write_id(Writer& w, const InstanceId& id) {
  w.u64(id.round);
  w.u64(id.sn);
}

InstanceId read_id(Reader& rd) {
  InstanceId id;
  id.round = rd.u64();
  id.sn = rd.u64();
  return id;
}

}  // namespace

// --- Propose ---------------------------------------------------------------

Bytes Propose::signed_part() const {
  Writer w;
  w.str("PROPOSE");
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  return w.take();
}

Bytes Propose::serialize() const {
  Writer w;
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.bytes(message);
  return w.take();
}

Propose Propose::deserialize(BytesView b) {
  Reader rd(b);
  Propose p;
  p.id = read_id(rd);
  p.digest = crypto::digest_from_bytes(rd.bytes());
  p.message = rd.bytes();
  return p;
}

// --- Echo ------------------------------------------------------------------

Bytes Echo::signed_part() const {
  Writer w;
  w.str("ECHO");
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  return w.take();
}

Bytes Echo::serialize() const {
  Writer w;
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  w.bytes(propose_sig.serialize());
  return w.take();
}

Echo Echo::deserialize(BytesView b) {
  Reader rd(b);
  Echo e;
  e.id = read_id(rd);
  e.digest = crypto::digest_from_bytes(rd.bytes());
  e.member = rd.u64();
  e.propose_sig = crypto::SignedMessage::deserialize(rd.bytes());
  return e;
}

// --- Confirm ---------------------------------------------------------------

Bytes Confirm::signed_part() const {
  Writer w;
  w.str("CONFIRM");
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  return w.take();
}

Bytes Confirm::serialize() const {
  Writer w;
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u64(member);
  w.u32(static_cast<std::uint32_t>(echo_list.size()));
  for (const auto& e : echo_list) w.bytes(e.serialize());
  return w.take();
}

Confirm Confirm::deserialize(BytesView b) {
  Reader rd(b);
  Confirm c;
  c.id = read_id(rd);
  c.digest = crypto::digest_from_bytes(rd.bytes());
  c.member = rd.u64();
  const std::uint32_t count = rd.count(4);  // u32 length prefix each
  c.echo_list.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    c.echo_list.push_back(crypto::SignedMessage::deserialize(rd.bytes()));
  }
  return c;
}

// --- QuorumCert ------------------------------------------------------------

Bytes QuorumCert::serialize() const {
  Writer w;
  write_id(w, id);
  w.bytes(crypto::digest_to_bytes(digest));
  w.u32(static_cast<std::uint32_t>(confirms.size()));
  for (const auto& c : confirms) w.bytes(c.serialize());
  return w.take();
}

QuorumCert QuorumCert::deserialize(BytesView b) {
  Reader rd(b);
  QuorumCert qc;
  qc.id = read_id(rd);
  qc.digest = crypto::digest_from_bytes(rd.bytes());
  const std::uint32_t count = rd.count(4);  // u32 length prefix each
  qc.confirms.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    qc.confirms.push_back(crypto::SignedMessage::deserialize(rd.bytes()));
  }
  return qc;
}

bool QuorumCert::verify(const std::vector<crypto::PublicKey>& committee,
                        std::size_t committee_size) const {
  std::set<std::uint64_t> committee_keys;
  for (const auto& pk : committee) committee_keys.insert(pk.y);

  // Structural pass: membership, payload binding and distinctness. The
  // (expensive) signature checks run afterwards as one batch.
  std::set<std::uint64_t> signers;
  std::vector<const crypto::SignedMessage*> to_verify;
  to_verify.reserve(confirms.size());
  for (const auto& sm : confirms) {
    if (!committee_keys.contains(sm.signer.y)) return false;
    // The signed payload must be the CONFIRM body for our (id, digest).
    Reader rd(sm.payload);
    const std::string tag = rd.str();
    if (tag != "CONFIRM") return false;
    InstanceId got_id;
    got_id.round = rd.u64();
    got_id.sn = rd.u64();
    if (!(got_id == id)) return false;
    const crypto::Digest got_digest = crypto::digest_from_bytes(rd.bytes());
    if (got_digest != digest) return false;
    if (!signers.insert(sm.signer.y).second) return false;  // duplicate
    to_verify.push_back(&sm);
  }
  if (signers.size() * 2 <= committee_size) return false;
  return crypto::verify_batch(to_verify);
}

// --- EquivocationWitness ----------------------------------------------------

Bytes EquivocationWitness::serialize() const {
  Writer w;
  w.bytes(first.serialize());
  w.bytes(second.serialize());
  return w.take();
}

EquivocationWitness EquivocationWitness::deserialize(BytesView b) {
  Reader rd(b);
  EquivocationWitness w;
  w.first = crypto::SignedMessage::deserialize(rd.bytes());
  w.second = crypto::SignedMessage::deserialize(rd.bytes());
  return w;
}

bool EquivocationWitness::valid(const crypto::PublicKey& leader) const {
  if (!(first.signer == leader) || !(second.signer == leader)) return false;
  if (!first.valid() || !second.valid()) return false;
  auto parse = [](const Bytes& payload)
      -> std::optional<std::pair<InstanceId, crypto::Digest>> {
    Reader rd(payload);
    try {
      if (rd.str() != "PROPOSE") return std::nullopt;
      InstanceId id;
      id.round = rd.u64();
      id.sn = rd.u64();
      return std::make_pair(id, crypto::digest_from_bytes(rd.bytes()));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  };
  const auto a = parse(first.payload);
  const auto b = parse(second.payload);
  if (!a || !b) return false;
  return a->first == b->first && a->second != b->second;
}

}  // namespace cyc::consensus
