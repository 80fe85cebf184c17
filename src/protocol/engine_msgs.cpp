// Engine part 2: phase drivers, message handlers, Algorithm 3 plumbing,
// leader duties and the recovery procedure (Alg. 6).
#include <algorithm>

#include "protocol/engine.hpp"
#include "protocol/payloads.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "obs/observer.hpp"
#include "support/serde.hpp"

namespace cyc::protocol {

// ---------------------------------------------------------------------------
// Phase drivers
// ---------------------------------------------------------------------------

void Engine::enter_phase(net::Phase phase, net::Time at) {
  net_->set_phase(phase);
  current_phase_ = phase;
  obs_phase(phase, at);
}

void Engine::phase_config(net::Time at) {
  enter_phase(net::Phase::kCommitteeConfig, at);
  // Key members seed their list S with the committee's key members
  // (addresses known from block B^{r-1}).
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    for (net::NodeId id : assign_.committees[k].key_members()) {
      NodeState& key_member = nodes_[id];
      for (net::NodeId peer : assign_.committees[k].key_members()) {
        if (key_member.known_pks.insert(nodes_[peer].keys.pk.y).second) {
          key_member.member_list.push_back(nodes_[peer].keys.pk);
        }
      }
    }
  }
  // Non-key members run CRYPTO_SORT and register with the key members.
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    for (net::NodeId id : assign_.committees[k].commons) {
      NodeState& common = nodes_[id];
      if (!common.is_active(round_)) continue;
      common.known_pks.insert(common.keys.pk.y);
      common.member_list.push_back(common.keys.pk);
      wire::Intro intro{common.id, common.keys.pk, common.ticket};
      const auto payload = net::make_payload(intro.serialize());
      for (net::NodeId km : assign_.committees[k].key_members()) {
        net_->send_shared(common.id, km, net::Tag::kConfig, payload);
      }
    }
  }
  // Restarted nodes spend the configuration phase asking the referees for
  // the current state digest instead of participating.
  for (auto& n : nodes_) {
    if (!n.catching_up) continue;
    n.catchup_attempts += 1;
    Writer w;
    w.u32(n.id);
    send_to_referees(n.id, net::Tag::kCatchUpRequest,
                     net::make_payload(w.take()));
  }
}

void Engine::phase_semicommit(net::Time at) {
  enter_phase(net::Phase::kSemiCommit, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_send_semicommit(nodes_[committees_[k].current_leader], k);
  }
  // A silent leader is only impeachable once common members can
  // corroborate the silence (they never see SEMI_COM traffic), so the
  // timeout accusation for crashed leaders fires at the intra deadline.
}

void Engine::phase_intra(net::Time at) {
  enter_phase(net::Phase::kIntraConsensus, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_start_intra(k, at);
  }
  const net::Time deadline =
      at + 0.7 * params_.intra_duration * params_.delays.delta;
  net_->schedule(deadline, [this](net::Time now) {
    if (!options_.recovery_enabled) return;
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      for (net::NodeId id : assign_.committees[k].partial) {
        NodeState& pm = nodes_[id];
        if (!pm.is_active(round_) || pm.misbehaves(round_)) continue;
        if (!pm.leader_sent_txlist && !committees_[k].leader_convicted) {
          begin_accusation(pm, k, WitnessKind::kTimeout, {}, now);
          break;
        }
      }
    }
    // Framers strike here: fabricate a witness against an honest leader.
    for (std::uint32_t k = 0; k < params_.m; ++k) {
      for (net::NodeId id : assign_.committees[k].partial) {
        NodeState& pm = nodes_[id];
        if (pm.behavior == Behavior::kFramer && pm.misbehaves(round_) &&
            !pm.accused_this_round) {
          Writer w;
          w.str("bogus-witness");
          begin_accusation(pm, k, WitnessKind::kEquivocation, w.take(), now);
        }
      }
    }
  });
}

void Engine::phase_inter(net::Time at) {
  enter_phase(net::Phase::kInterConsensus, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_start_cross(k, at);
  }
}

void Engine::phase_reputation(net::Time at) {
  enter_phase(net::Phase::kReputation, at);
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    leader_send_scores(k);
  }
}

void Engine::phase_selection(net::Time at) {
  enter_phase(net::Phase::kSelection, at);
  // Adopt the quorum-acked score reports before compute_selection reads
  // the effective reputations (finalize_round re-runs this for reports
  // whose quorum completed later in the round).
  adopt_quorum_scores();
  const Bytes challenge =
      concat({bytes_of("cyc.round"), be64(round_),
              crypto::digest_to_bytes(randomness_)});
  const std::uint64_t target = crypto::pow_target_for_bits(params_.pow_bits);
  for (const auto& n : nodes_) {
    if (!n.enrolled) continue;               // standby identities sit out
    if (!n.is_active(round_ + 1)) continue;  // crashed nodes sit out
    const Bytes per_node = concat({challenge, be64(n.keys.pk.y)});
    const auto solution = crypto::pow_solve(per_node, target, 0, 1u << 20);
    if (!solution) continue;
    wire::PowMsg msg{n.id, n.keys.pk, solution->nonce, solution->digest};
    send_to_referees(n.id, net::Tag::kPowSolution,
                     net::make_payload(msg.serialize()));
  }
  const net::Time when =
      at + 0.8 * params_.selection_duration * params_.delays.delta;
  net_->schedule(when, [this](net::Time) { compute_selection(); });
}

void Engine::phase_block(net::Time at) {
  enter_phase(net::Phase::kBlock, at);
  // The designated referee proposes the block content; C_R agrees via
  // Algorithm 3; on certification the block is released to everyone.
  const std::uint64_t sn_block = sn_encode(SnKind::kBlock, 0, 0);
  NodeState& referee = nodes_[designated_referee(sn_block)];
  wire::BlockMsg block;
  block.round = round_;
  for_each_quorum_result([&](std::uint32_t, bool, const auto& txs) {
    block.txs.insert(block.txs.end(), txs.begin(), txs.end());
  });
  block.randomness = next_randomness_;
  std::vector<Bytes> leaves;
  leaves.reserve(block.txs.size());
  for (const auto& tx : block.txs) leaves.push_back(tx.serialize());
  block.body_root = crypto::MerkleTree(leaves).root();
  block_payload_ = block.serialize();
  leader_start_instance(referee, params_.m, sn_block, block_payload_);
  // Committee leaders also certify their final UTXO list for hand-off to
  // the next round's partial sets (§IV-G).
  for (std::uint32_t k = 0; k < params_.m; ++k) {
    NodeState& leader = nodes_[committees_[k].current_leader];
    if (!leader.is_active(round_)) continue;
    Writer w;
    w.str("UTXO_FINAL");
    w.u32(k);
    w.bytes(crypto::digest_to_bytes(shard_state_[k].digest()));
    leader_start_instance(
        leader, k, sn_encode(SnKind::kUtxo, 0, committees_[k].attempt),
        w.take());
  }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void Engine::handle(net::NodeId id, const net::Message& msg, net::Time now) {
  NodeState& self = nodes_[id];
  // Catch-up traffic bypasses the activity gate: a catching-up node is
  // inactive for the protocol proper but must still receive the referee
  // replies that let it rejoin. The handlers re-check roles themselves.
  const bool catchup = msg.tag == net::Tag::kCatchUpRequest ||
                       msg.tag == net::Tag::kCatchUpReply;
  if (!catchup && !self.is_active(round_)) return;  // crashed: pretend offline
  try {
    switch (msg.tag) {
      case net::Tag::kCatchUpRequest: on_catchup_request(self, msg); break;
      case net::Tag::kCatchUpReply: on_catchup_reply(self, msg); break;
      case net::Tag::kConfig:
      case net::Tag::kMember:
        on_intro(self, msg);
        break;
      case net::Tag::kMemberList: on_member_list(self, msg); break;
      case net::Tag::kPropose:
      case net::Tag::kEcho:
      case net::Tag::kConfirm:
        on_consensus_msg(self, msg, now);
        break;
      case net::Tag::kSemiCommit: on_semicommit(self, msg, now); break;
      case net::Tag::kSemiCommitAck: on_semicommit_ack(self, msg); break;
      case net::Tag::kTxList: on_txlist(self, msg); break;
      case net::Tag::kVote: on_vote(self, msg); break;
      case net::Tag::kCrossTxList: on_cross_txlist(self, msg); break;
      case net::Tag::kCrossPartialHint: on_cross_hint(self, msg, now); break;
      case net::Tag::kCrossResult: on_cross_result(self, msg); break;
      case net::Tag::kScoreReport:
      case net::Tag::kIntraResult:
        on_certified_result(self, msg);
        break;
      case net::Tag::kAccuse: on_accuse(self, msg); break;
      case net::Tag::kImpeachVote: on_impeach_vote(self, msg); break;
      case net::Tag::kProsecute: on_prosecute(self, msg, now); break;
      case net::Tag::kNewLeader: on_new_leader(self, msg); break;
      case net::Tag::kPowSolution: {
        if (self.role != Role::kReferee) break;
        const auto& pow = wire::decoded<wire::PowMsg>(msg);
        // Referees only register the current membership; a standby or
        // retired identity must re-enter through the epoch join puzzle.
        if (pow.node >= nodes_.size() || !nodes_[pow.node].enrolled) break;
        const Bytes challenge =
            concat({bytes_of("cyc.round"), be64(round_),
                    crypto::digest_to_bytes(randomness_), be64(pow.pk.y)});
        if (crypto::pow_verify(challenge, crypto::pow_target_for_bits(
                                              params_.pow_bits),
                               {pow.nonce, pow.digest})) {
          registered_.insert(pow.node);
        }
        break;
      }
      case net::Tag::kBlockPermit: {
        // §VIII-B: permitted leader broadcasts its committee's sub-block.
        if (self.committee < 0) break;
        const std::uint32_t k = static_cast<std::uint32_t>(self.committee);
        if (self.id != committees_[k].current_leader) break;
        if (!committees_[k].intra_result) break;
        const auto decision =
            wire::IntraDecision::deserialize(*committees_[k].intra_result);
        wire::BlockMsg sub;
        sub.round = round_;
        sub.txs = decision.txdec_set;
        sub.randomness = next_randomness_;
        const auto payload = net::make_payload(sub.serialize());
        for (const auto& n : nodes_) {
          if (n.id == self.id) continue;
          net_->send_shared(self.id, n.id, net::Tag::kSubBlock, payload);
        }
        break;
      }
      default:
        break;  // accounted traffic with no state transition
    }
  } catch (const std::exception&) {
    // The one handler-side catch, see src/protocol/README.md: a
    // malformed payload from an adversarial sender ends its handler
    // before any state change; honest code never produces one.
    if (obs_ != nullptr) {
      const std::string tag(net::tag_name(msg.tag));
      obs_->metrics.counter("net.malformed." + tag).add();
      obs_->trace.instant(obs::kTrackProtocol, "malformed", "fault", now,
                          {{"from", static_cast<double>(msg.from)},
                           {"to", static_cast<double>(id)}});
    }
  }
}

// ---------------------------------------------------------------------------
// Committee configuration (Alg. 2)
// ---------------------------------------------------------------------------

void Engine::on_intro(NodeState& self, const net::Message& msg) {
  // kConfig: a newcomer registers with a key member, who answers with its
  // list S first (Alg. 2). kMember: a member found on such a list
  // introduces itself.
  const bool registering = msg.tag == net::Tag::kConfig;
  if (registering && self.role != Role::kLeader &&
      self.role != Role::kPartial) {
    return;
  }
  const auto& intro = wire::decoded<wire::Intro>(msg);
  if (intro.ticket.committee != static_cast<std::uint32_t>(self.committee)) {
    return;
  }
  if (!verify_sortition(intro.pk, round_, randomness_, params_.m,
                        intro.ticket)) {
    return;
  }
  if (registering) {
    wire::MemberListMsg list;
    for (const auto& pk : self.member_list) {
      list.nodes.push_back(node_of_pk(pk));
      list.pks.push_back(pk);
    }
    net_->send(self.id, intro.node, net::Tag::kMemberList, list.serialize());
  }
  if (self.known_pks.insert(intro.pk.y).second) {
    self.member_list.push_back(intro.pk);
  }
}

void Engine::on_member_list(NodeState& self, const net::Message& msg) {
  const auto& list = wire::decoded<wire::MemberListMsg>(msg);
  std::vector<net::NodeId> fresh;
  for (std::size_t i = 0; i < list.pks.size(); ++i) {
    if (self.known_pks.insert(list.pks[i].y).second) {
      self.member_list.push_back(list.pks[i]);
      fresh.push_back(list.nodes[i]);
    }
  }
  // Introduce ourselves to previously unconnected members on the list.
  wire::Intro intro{self.id, self.keys.pk, self.ticket};
  const auto payload = net::make_payload(intro.serialize());
  for (net::NodeId peer : fresh) {
    if (peer == self.id) continue;
    net_->send_shared(self.id, peer, net::Tag::kMember, payload);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 3 plumbing
// ---------------------------------------------------------------------------

void Engine::send_consensus(net::NodeId from,
                            const std::vector<net::NodeId>& to, net::Tag tag,
                            std::uint32_t scope, std::uint64_t sn,
                            const Bytes& wire) {
  wire::ConsensusEnvelope env{scope, sn, wire};
  net_->multicast(from, to, tag, env.serialize());
}

void Engine::send_to_referees(net::NodeId from, net::Tag tag,
                              const net::PayloadPtr& payload) {
  for (net::NodeId rm : assign_.referees) {
    net_->send_shared(from, rm, tag, payload);
  }
}

void Engine::leader_start_instance(NodeState& self, std::uint32_t scope,
                                   std::uint64_t sn, Bytes message) {
  consensus::InstanceId iid{round_, sn};
  auto [it, inserted] = self.lead.try_emplace(
      sn, self.keys, iid, std::move(message), instance_size(scope));
  if (!inserted) return;
  const auto peers = instance_peers(scope);

  if (self.misbehaves(round_) && self.behavior == Behavior::kEquivocator &&
      scope < params_.m) {
    // Propose the real message to half the committee and a divergent one
    // to the other half (detected via relayed PROPOSEs).
    const auto honest_wire = it->second.make_propose().serialize();
    const auto evil_wire =
        it->second.make_equivocating_propose(bytes_of("equivocation"))
            .serialize();
    std::vector<net::NodeId> first_half, second_half;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      (i % 2 == 0 ? first_half : second_half).push_back(peers[i]);
    }
    send_consensus(self.id, first_half, net::Tag::kPropose, scope, sn,
                   honest_wire);
    send_consensus(self.id, second_half, net::Tag::kPropose, scope, sn,
                   evil_wire);
    return;
  }

  consensus::ProposeWire propose = it->second.make_propose();
  send_consensus(self.id, peers, net::Tag::kPropose, scope, sn,
                 propose.serialize());
  // The leader processes its own proposal as a member too (it counts
  // toward the >C/2 quorum).
  auto [mit, minserted] =
      self.member.try_emplace(sn, self.keys, self.id, iid, self.keys.pk,
                              instance_size(scope));
  if (minserted) {
    auto out = mit->second.on_propose(std::move(propose));
    process_member_output(self, scope, sn, std::move(out), net_->now());
  }
}

void Engine::process_member_output(NodeState& self, std::uint32_t scope,
                                   std::uint64_t sn,
                                   consensus::MemberOutput out,
                                   net::Time now) {
  if (out.witness && scope < params_.m && options_.recovery_enabled &&
      !self.misbehaves(round_)) {
    // Only partial-set members arouse the recovery procedure (§IV-B);
    // common members who catch the leader simply stop participating.
    if (self.role == Role::kPartial && !self.accused_this_round) {
      begin_accusation(self, scope, WitnessKind::kEquivocation,
                       out.witness->serialize(), now);
    }
    return;
  }
  if (out.echo_broadcast) {
    send_consensus(self.id, instance_peers(scope), net::Tag::kEcho, scope, sn,
                   out.echo_broadcast->serialize());
    // Deliver our echo to our own member instance as well.
    auto it = self.member.find(sn);
    if (it != self.member.end()) {
      auto echo_out = it->second.on_echo(std::move(*out.echo_broadcast));
      if (echo_out.confirm_to_leader && !out.confirm_to_leader) {
        out.confirm_to_leader = std::move(echo_out.confirm_to_leader);
      }
    }
  }
  if (out.confirm_to_leader) {
    const crypto::PublicKey leader_pk = expected_instance_leader(scope, sn);
    const net::NodeId leader_id = node_of_pk(leader_pk);
    if (leader_id == self.id) {
      auto lit = self.lead.find(sn);
      if (lit != self.lead.end()) {
        if (auto cert = lit->second.on_confirm(*out.confirm_to_leader)) {
          self.certs[sn] = *cert;
          on_cert(self, scope, sn, *cert);
        }
      }
    } else if (leader_id != net::kNoNode) {
      wire::ConsensusEnvelope env{scope, sn,
                                  out.confirm_to_leader->serialize()};
      net_->send(self.id, leader_id, net::Tag::kConfirm, env.serialize());
    }
  }
}

void Engine::on_consensus_msg(NodeState& self, const net::Message& msg,
                              net::Time now) {
  // Route by scope: committee members only participate in instances of
  // their own committee; referees in referee-scope instances.
  const auto in_scope = [&](std::uint32_t scope) {
    return scope == params_.m
               ? self.role == Role::kReferee
               : self.committee == static_cast<std::int64_t>(scope);
  };
  const auto member_of = [&](std::uint32_t scope,
                             std::uint64_t sn) -> consensus::MemberInstance& {
    return self.member
        .try_emplace(sn, self.keys, self.id, consensus::InstanceId{round_, sn},
                     expected_instance_leader(scope, sn), instance_size(scope))
        .first->second;
  };

  if (msg.tag == net::Tag::kConfirm) {
    const auto& confirm =
        wire::decoded<wire::ConsensusMsg<consensus::ConfirmWire>>(msg);
    if (!in_scope(confirm.scope())) return;
    auto it = self.lead.find(confirm.sn());
    if (it == self.lead.end()) return;
    if (auto cert = it->second.on_confirm(confirm.wire())) {
      self.certs[confirm.sn()] = *cert;
      on_cert(self, confirm.scope(), confirm.sn(), *cert);
    }
    return;
  }

  if (msg.tag == net::Tag::kPropose) {
    const auto& propose =
        wire::decoded<wire::ConsensusMsg<consensus::ProposeView>>(msg);
    if (!in_scope(propose.scope())) return;
    consensus::MemberInstance& member =
        member_of(propose.scope(), propose.sn());
    // Track leader engagement for the 2*Gamma concealment rule.
    if (propose.scope() < params_.m) {
      const SnSlot slot = sn_decode(propose.sn(), /*referee_scope=*/false);
      if (slot.kind == SnKind::kCrossIn) {
        self.cross_seen_propose.insert(slot.index);
      }
    }
    process_member_output(self, propose.scope(), propose.sn(),
                          member.on_propose(propose.wire()), now);
    return;
  }

  const auto& echo = wire::decoded<wire::ConsensusMsg<consensus::EchoView>>(msg);
  if (!in_scope(echo.scope())) return;
  consensus::MemberInstance& member = member_of(echo.scope(), echo.sn());
  process_member_output(self, echo.scope(), echo.sn(),
                        member.on_echo(echo.wire()), now);
}

// ---------------------------------------------------------------------------
// Certificates: what each agreed instance triggers
// ---------------------------------------------------------------------------

void Engine::on_cert(NodeState& self, std::uint32_t scope, std::uint64_t sn,
                     const consensus::QuorumCert& cert) {
  // Every cert holder runs this handler; the formation instant fires only
  // for the first holder (obs_first_cert dedups on (scope, sn)).
  if (obs_ != nullptr && obs_first_cert(scope, sn)) {
    const std::uint32_t track = scope < params_.m
                                    ? obs::kTrackCommitteeBase + scope
                                    : obs::kTrackProtocol;
    obs_->trace.instant(track, "qc-formed", "consensus", net_->now(),
                        {{"scope", static_cast<double>(scope)},
                         {"sn", static_cast<double>(sn)},
                         {"signers",
                          static_cast<double>(cert.confirms.size())}});
    obs_->metrics.counter("consensus.certs").add();
  }
  const bool referee_scope = scope == params_.m;
  // Committee-scope instances: only the current leader acts on certs.
  if (!referee_scope && self.id != committees_[scope].current_leader) return;
  const std::uint32_t k = scope;
  const SnSlot slot = sn_decode(sn, referee_scope);
  switch (slot.kind) {
    case SnKind::kBlock: {
      if (options_.extension_parallel_blocks) {
        // §VIII-B: C_R only issues permissions; each leader broadcasts
        // its own sub-block, removing the O(mn) burden from C_R.
        const auto permit = net::make_payload(Bytes(40, 0));
        for (std::uint32_t j = 0; j < params_.m; ++j) {
          net_->send_shared(self.id, committees_[j].current_leader,
                            net::Tag::kBlockPermit, permit);
        }
        return;
      }
      // Release to the whole network (§IV-G): the O(mn) burden of
      // Table II. One shared buffer serves all n-1 receivers.
      const auto payload = net::make_payload(block_payload_);
      for (const auto& n : nodes_) {
        if (n.id == self.id) continue;
        net_->send_shared(self.id, n.id, net::Tag::kBlock, payload);
      }
      return;
    }
    case SnKind::kReselect:
      // Leader re-selection agreed: announce the new leader.
      announce_new_leader(self, slot.index);
      return;
    case SnKind::kSemiCheck: {
      // Semi-commitment accepted by C_R: relay to all key members.
      wire::SemiCommitAck ack;
      ack.committee = slot.index;
      auto cit = self.commitments.find(slot.index);
      auto lit = self.lists.find(slot.index);
      if (cit == self.commitments.end() || lit == self.lists.end()) return;
      ack.commitment = cit->second;
      ack.members = lit->second;
      ack.cert = cert.serialize();
      const auto payload = net::make_payload(ack.serialize());
      for (std::uint32_t j = 0; j < params_.m; ++j) {
        for (net::NodeId km : assign_.committees[j].key_members()) {
          net_->send_shared(self.id, km, net::Tag::kSemiCommitAck, payload);
        }
      }
      return;
    }
    case SnKind::kIntra:
    case SnKind::kScore: {
      // Intra-committee decision (Alg. 5 l.19) or ScoreList (§IV-E)
      // certified -> report to C_R.
      const bool intra = slot.kind == SnKind::kIntra;
      wire::CertifiedResult result;
      result.payload = intra ? committees_[k].pending_intra_payload
                             : committees_[k].pending_score_payload;
      result.cert = cert.serialize();
      send_to_referees(
          self.id, intra ? net::Tag::kIntraResult : net::Tag::kScoreReport,
          net::make_payload(result.serialize()));
      return;
    }
    case SnKind::kUtxo: {
      // Final UTXO list certified -> hand off to C_R, which forwards to the
      // next round's partial sets (§IV-G).
      Writer w;
      w.u32(k);
      w.bytes(crypto::digest_to_bytes(shard_state_[k].digest()));
      w.bytes(cert.serialize());
      send_to_referees(self.id, net::Tag::kUtxoHandoff,
                       net::make_payload(w.take()));
      return;
    }
    case SnKind::kCrossOut: {
      // Cross-out list certified -> send to destination leader and its
      // partial set (§IV-D; the hint enables the 2*Gamma rule of Lemma 7).
      const std::uint32_t dest = slot.index;
      auto pit = committees_[k].pending_cross_out.find(dest);
      if (pit == committees_[k].pending_cross_out.end()) return;
      wire::CrossTxListMsg request =
          wire::CrossTxListMsg::deserialize(pit->second);
      request.origin_cert = cert.serialize();
      pit->second = request.serialize();
      const auto payload = net::make_payload(pit->second);
      net_->send_shared(self.id, committees_[dest].current_leader,
                        net::Tag::kCrossTxList, payload);
      for (net::NodeId pm : assign_.committees[dest].partial) {
        net_->send_shared(self.id, pm, net::Tag::kCrossPartialHint, payload);
      }
      return;
    }
    case SnKind::kCrossIn: {
      // Acceptance certified -> reply to the origin leader and inform C_R.
      const std::uint32_t origin = slot.index;
      auto rit = self.cross_in.find(origin);
      if (rit == self.cross_in.end()) return;
      wire::CrossResultMsg result;
      result.request = wire::CrossTxListMsg::deserialize(rit->second);
      result.dest_cert = cert.serialize();
      result.dest_members = committee_pks(k);
      const auto payload = net::make_payload(result.serialize());
      net_->send_shared(self.id, committees_[origin].current_leader,
                        net::Tag::kCrossResult, payload);
      send_to_referees(self.id, net::Tag::kCrossResult, payload);
      self.cross_done.insert(origin);
      return;
    }
    case SnKind::kNone:
      return;
  }
}

}  // namespace cyc::protocol
