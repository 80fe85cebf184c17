#include "consensus/engine.hpp"

#include "support/serde.hpp"

namespace cyc::consensus {

// --- wire bundles ------------------------------------------------------------

Bytes ProposeWire::serialize() const {
  Writer w;
  w.bytes(sig.serialize());
  w.bytes(message);
  return w.take();
}

ProposeWire ProposeWire::deserialize(BytesView b) {
  Reader rd(b);
  ProposeWire w;
  w.sig = crypto::SignedMessage::deserialize(rd.bytes());
  w.message = rd.bytes();
  return w;
}

Bytes EchoWire::serialize() const {
  Writer w;
  w.bytes(sig.serialize());
  w.bytes(body.serialize());
  return w.take();
}

EchoWire EchoWire::deserialize(BytesView b) {
  Reader rd(b);
  EchoWire w;
  w.sig = crypto::SignedMessage::deserialize(rd.bytes());
  w.body = Echo::deserialize(rd.bytes());
  return w;
}

Bytes ConfirmWire::serialize() const {
  Writer w;
  w.bytes(sig.serialize());
  w.bytes(body.serialize());
  return w.take();
}

ConfirmWire ConfirmWire::deserialize(BytesView b) {
  Reader rd(b);
  ConfirmWire w;
  w.sig = crypto::SignedMessage::deserialize(rd.bytes());
  w.body = Confirm::deserialize(rd.bytes());
  return w;
}

// --- decoded views ------------------------------------------------------------

bool ProposeView::sig_valid() const {
  return sig_valid_.get([&] { return wire_.sig.valid(); });
}

const crypto::Digest& ProposeView::message_digest() const {
  return message_digest_.get([&] { return crypto::sha256(wire_.message); });
}

bool EchoView::sig_valid() const {
  return sig_valid_.get([&] { return wire_.sig.valid(); });
}

bool EchoView::bound() const {
  return bound_.get(
      [&] { return equal(wire_.sig.payload, wire_.body.signed_part()); });
}

bool EchoView::propose_valid() const {
  return propose_valid_.get([&] { return wire_.body.propose_sig.valid(); });
}

// --- LeaderInstance -----------------------------------------------------------

LeaderInstance::LeaderInstance(crypto::KeyPair keys, InstanceId id,
                               Bytes message, std::size_t committee_size)
    : keys_(keys),
      id_(id),
      message_(std::move(message)),
      digest_(crypto::sha256(message_)),
      committee_size_(committee_size) {}

ProposeWire LeaderInstance::make_propose() const {
  Propose p;
  p.id = id_;
  p.digest = digest_;
  p.message = message_;
  ProposeWire wire;
  wire.sig = crypto::make_signed(keys_, p.signed_part());
  wire.message = message_;
  return wire;
}

ProposeWire LeaderInstance::make_equivocating_propose(
    BytesView other_message) const {
  Propose p;
  p.id = id_;
  p.message = Bytes(other_message.begin(), other_message.end());
  p.digest = crypto::sha256(p.message);
  ProposeWire wire;
  wire.sig = crypto::make_signed(keys_, p.signed_part());
  wire.message = p.message;
  return wire;
}

std::optional<QuorumCert> LeaderInstance::on_confirm(const ConfirmWire& wire) {
  if (done_) return std::nullopt;
  if (!wire.sig.valid()) return std::nullopt;
  if (!(wire.body.id == id_) || wire.body.digest != digest_) {
    return std::nullopt;
  }
  // The signature must cover the CONFIRM header of this instance.
  Confirm expected;
  expected.id = wire.body.id;
  expected.digest = wire.body.digest;
  expected.member = wire.body.member;
  if (!equal(wire.sig.payload, expected.signed_part())) return std::nullopt;

  confirms_[wire.sig.signer.y] = wire.sig;
  if (confirms_.size() * 2 > committee_size_) {
    done_ = true;
    QuorumCert cert;
    cert.id = id_;
    cert.digest = digest_;
    cert.confirms.reserve(confirms_.size());
    for (const auto& [key, sm] : confirms_) cert.confirms.push_back(sm);
    return cert;
  }
  return std::nullopt;
}

// --- MemberInstance -----------------------------------------------------------

MemberInstance::MemberInstance(crypto::KeyPair keys,
                               std::uint64_t member_index, InstanceId id,
                               crypto::PublicKey leader,
                               std::size_t committee_size)
    : keys_(keys),
      index_(member_index),
      id_(id),
      leader_(leader),
      committee_size_(committee_size) {}

std::optional<EquivocationWitness> MemberInstance::check_equivocation(
    const crypto::SignedMessage& propose_sig) {
  if (!seen_propose_) return std::nullopt;
  if (equal(seen_propose_->payload, propose_sig.payload)) return std::nullopt;
  EquivocationWitness w;
  w.first = *seen_propose_;
  w.second = propose_sig;
  if (!w.valid(leader_)) return std::nullopt;
  return w;
}

MemberOutput MemberInstance::on_propose(const ProposeView& view) {
  const ProposeWire& wire = view.wire();
  MemberOutput out;
  if (!(wire.sig.signer == leader_) || !view.sig_valid()) return out;

  // Decode the signed header and cross-check H(M).
  Reader rd(wire.sig.payload);
  try {
    if (rd.str() != "PROPOSE") return out;
    InstanceId got;
    got.round = rd.u64();
    got.sn = rd.u64();
    if (!(got == id_)) return out;
    const crypto::Digest claimed = crypto::digest_from_bytes(rd.bytes());
    if (claimed != view.message_digest()) return out;  // bad digest

    out.witness = check_equivocation(wire.sig);
    if (out.witness) return out;
    if (seen_propose_) return out;  // duplicate of the same propose

    seen_propose_ = wire.sig;
    digest_ = claimed;
    message_ = wire.message;
  } catch (const std::exception&) {
    return out;
  }

  if (!echoed_) {
    echoed_ = true;
    Echo e;
    e.id = id_;
    e.digest = *digest_;
    e.member = index_;
    e.propose_sig = *seen_propose_;
    EchoWire ew;
    ew.sig = crypto::make_signed(keys_, e.signed_part());
    ew.body = e;
    out.echo_broadcast = ew;
    // Count our own echo toward the quorum.
    echoes_[keys_.pk.y] = ew.sig;
  }
  // A committee of size 1 (degenerate, used in tests) can confirm at once.
  MemberOutput confirm = maybe_confirm();
  if (confirm.confirm_to_leader) {
    out.confirm_to_leader = std::move(confirm.confirm_to_leader);
  }
  return out;
}

MemberOutput MemberInstance::on_echo(const EchoView& view) {
  const EchoWire& wire = view.wire();
  MemberOutput out;
  // A relay of the PROPOSE we already hold can neither witness
  // equivocation nor teach us the proposal, so its signature needs no
  // check; once we have confirmed, such an echo changes nothing at all
  // (echoes_ is read only by maybe_confirm).
  const bool known_relay =
      seen_propose_ &&
      equal(seen_propose_->payload, wire.body.propose_sig.payload);
  if (confirmed_ && known_relay) return out;
  if (!view.sig_valid()) return out;
  if (!(wire.body.id == id_)) return out;
  if (!view.bound()) return out;

  // The relayed PROPOSE lets us catch a leader who proposed different
  // messages to different members (the paper's "notices that the leader
  // is malicious" condition).
  if (!known_relay && view.propose_valid() &&
      wire.body.propose_sig.signer == leader_) {
    out.witness = check_equivocation(wire.body.propose_sig);
    if (out.witness) return out;
    if (!seen_propose_) {
      // Learn the proposal header from the relay (we may still lack M,
      // but can echo/confirm on the digest as the paper intends).
      seen_propose_ = wire.body.propose_sig;
      Reader rd(seen_propose_->payload);
      try {
        (void)rd.str();
        (void)rd.u64();
        (void)rd.u64();
        digest_ = crypto::digest_from_bytes(rd.bytes());
      } catch (const std::exception&) {
        seen_propose_.reset();
        return out;
      }
      if (!echoed_) {
        echoed_ = true;
        Echo e;
        e.id = id_;
        e.digest = *digest_;
        e.member = index_;
        e.propose_sig = *seen_propose_;
        EchoWire ew;
        ew.sig = crypto::make_signed(keys_, e.signed_part());
        ew.body = e;
        out.echo_broadcast = ew;
        echoes_[keys_.pk.y] = ew.sig;
      }
    }
  }

  if (digest_ && wire.body.digest == *digest_) {
    echoes_[wire.sig.signer.y] = wire.sig;
  }

  MemberOutput confirm = maybe_confirm();
  if (confirm.confirm_to_leader) {
    out.confirm_to_leader = std::move(confirm.confirm_to_leader);
  }
  return out;
}

MemberOutput MemberInstance::maybe_confirm() {
  MemberOutput out;
  if (confirmed_ || !seen_propose_ || !digest_) return out;
  if (echoes_.size() * 2 <= committee_size_) return out;

  confirmed_ = true;
  Confirm c;
  c.id = id_;
  c.digest = *digest_;
  c.member = index_;
  c.echo_list.reserve(echoes_.size());
  for (const auto& [key, sm] : echoes_) c.echo_list.push_back(sm);
  ConfirmWire cw;
  cw.sig = crypto::make_signed(keys_, c.signed_part());
  cw.body = c;
  out.confirm_to_leader = cw;
  return out;
}

}  // namespace cyc::consensus
