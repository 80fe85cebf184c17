// Pure state machines for Algorithm 3 (inside-committee consensus).
//
// One LeaderInstance / MemberInstance pair per (round, sn). The engine
// has no networking: methods consume decoded wire objects and return the
// payloads to transport, so the protocol layer (and the tests) decide how
// bytes move. Quorum rule is the paper's: strictly more than C/2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "consensus/types.hpp"
#include "support/lazy.hpp"

namespace cyc::consensus {

/// Wire bundle for a PROPOSE: the leader's signature over the header plus
/// the original message M.
struct ProposeWire {
  crypto::SignedMessage sig;  ///< signs Propose::signed_part()
  Bytes message;              ///< M

  Bytes serialize() const;
  static ProposeWire deserialize(BytesView b);
};

/// Wire bundle for an ECHO: member's signature over the header plus body.
struct EchoWire {
  crypto::SignedMessage sig;  ///< signs Echo::signed_part()
  Echo body;

  Bytes serialize() const;
  static EchoWire deserialize(BytesView b);
};

/// Wire bundle for a CONFIRM.
struct ConfirmWire {
  crypto::SignedMessage sig;  ///< signs Confirm::signed_part()
  Confirm body;

  Bytes serialize() const;
  static ConfirmWire deserialize(BytesView b);
};

/// A decoded PROPOSE as every committee member reads it: the wire plus
/// the checks each member would otherwise repeat, each computed by the
/// first member that asks. The wire is fixed at construction, so a
/// verdict can never outlive the content it judges; an edited copy of
/// the wire makes a new view with fresh verdicts.
class ProposeView {
 public:
  ProposeView(ProposeWire wire) : wire_(std::move(wire)) {}
  static ProposeView deserialize(BytesView b) {
    return ProposeWire::deserialize(b);
  }

  const ProposeWire& wire() const { return wire_; }
  /// wire().sig.valid()
  bool sig_valid() const;
  /// sha256(wire().message): H(M), checked against the signed header.
  const crypto::Digest& message_digest() const;

 private:
  ProposeWire wire_;
  Lazy<bool> sig_valid_;
  Lazy<crypto::Digest> message_digest_;
};

/// A decoded ECHO as every committee member reads it (see ProposeView).
class EchoView {
 public:
  EchoView(EchoWire wire) : wire_(std::move(wire)) {}
  static EchoView deserialize(BytesView b) { return EchoWire::deserialize(b); }

  const EchoWire& wire() const { return wire_; }
  /// wire().sig.valid()
  bool sig_valid() const;
  /// The signature covers this body: sig.payload == body.signed_part().
  bool bound() const;
  /// wire().body.propose_sig.valid(): the relayed PROPOSE verifies.
  bool propose_valid() const;

 private:
  EchoWire wire_;
  Lazy<bool> sig_valid_;
  Lazy<bool> bound_;
  Lazy<bool> propose_valid_;
};

/// Leader side of Algorithm 3.
class LeaderInstance {
 public:
  LeaderInstance(crypto::KeyPair keys, InstanceId id, Bytes message,
                 std::size_t committee_size);

  /// The PROPOSE to multicast to the committee.
  ProposeWire make_propose() const;

  /// An *equivocating* PROPOSE carrying `other_message` — used by the
  /// adversary model to exercise detection; an honest leader never calls
  /// this.
  ProposeWire make_equivocating_propose(BytesView other_message) const;

  /// Feed a CONFIRM. Returns the SigList (quorum certificate) once
  /// strictly more than C/2 distinct valid confirms arrive.
  std::optional<QuorumCert> on_confirm(const ConfirmWire& wire);

  const InstanceId& id() const { return id_; }
  const crypto::Digest& digest() const { return digest_; }
  bool done() const { return done_; }

 private:
  crypto::KeyPair keys_;
  InstanceId id_;
  Bytes message_;
  crypto::Digest digest_;
  std::size_t committee_size_;
  std::map<std::uint64_t, crypto::SignedMessage> confirms_;  // by signer
  bool done_ = false;
};

/// What a member wants transported after consuming a message.
struct MemberOutput {
  std::optional<EchoWire> echo_broadcast;    ///< to all committee members
  std::optional<ConfirmWire> confirm_to_leader;
  std::optional<EquivocationWitness> witness;  ///< leader caught cheating
};

/// Member side of Algorithm 3.
class MemberInstance {
 public:
  MemberInstance(crypto::KeyPair keys, std::uint64_t member_index,
                 InstanceId id, crypto::PublicKey leader,
                 std::size_t committee_size);

  /// Consume the leader's PROPOSE. A bare ProposeWire converts to a view
  /// with no verdicts yet.
  MemberOutput on_propose(const ProposeView& view);

  /// Consume a peer's ECHO (which relays the signed PROPOSE header).
  MemberOutput on_echo(const EchoView& view);

  bool has_confirmed() const { return confirmed_; }
  const std::optional<Bytes>& accepted_message() const { return message_; }

 private:
  MemberOutput maybe_confirm();
  std::optional<EquivocationWitness> check_equivocation(
      const crypto::SignedMessage& propose_sig);

  crypto::KeyPair keys_;
  std::uint64_t index_;
  InstanceId id_;
  crypto::PublicKey leader_;
  std::size_t committee_size_;

  std::optional<crypto::SignedMessage> seen_propose_;
  std::optional<crypto::Digest> digest_;
  std::optional<Bytes> message_;
  std::map<std::uint64_t, crypto::SignedMessage> echoes_;  // by signer, our digest
  bool echoed_ = false;
  bool confirmed_ = false;
};

}  // namespace cyc::consensus
