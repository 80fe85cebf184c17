#include "epoch/handoff.hpp"

#include <algorithm>
#include <set>

#include "support/serde.hpp"

namespace cyc::epoch {

namespace {

void write_digest(Writer& w, const crypto::Digest& d) {
  w.bytes(crypto::digest_to_bytes(d));
}

crypto::Digest read_digest(Reader& r) {
  return crypto::digest_from_bytes(r.bytes());
}

void write_ids(Writer& w, const std::vector<net::NodeId>& ids) {
  w.vec(ids, [](Writer& w2, net::NodeId id) { w2.u32(id); });
}

std::vector<net::NodeId> read_ids(Reader& r) {
  return r.vec<net::NodeId>([](Reader& r2) { return r2.u32(); }, 4);
}

}  // namespace

Bytes EpochHandoff::serialize() const {
  Writer w;
  w.str("EPOCH_HANDOFF");
  w.u64(epoch);
  w.u64(boundary_round);
  write_digest(w, randomness);
  write_digest(w, chain_tip);
  w.u64(chain_height);
  w.vec(shard_digests,
        [](Writer& w2, const crypto::Digest& d) { write_digest(w2, d); });
  w.u64(carried_txs);
  write_digest(w, carried_digest);
  w.f64(surviving_reputation);
  write_ids(w, members);
  write_ids(w, joined);
  write_ids(w, retired);
  w.u64(join_candidates);
  w.u64(beacon_disqualified);
  if (plan) {
    w.u8(1);
    w.bytes(plan->serialize());
  }
  return w.take();
}

EpochHandoff EpochHandoff::deserialize(BytesView b) {
  Reader r(b);
  if (r.str() != "EPOCH_HANDOFF") {
    throw std::invalid_argument("EpochHandoff: bad magic");
  }
  EpochHandoff h;
  h.epoch = r.u64();
  h.boundary_round = r.u64();
  h.randomness = read_digest(r);
  h.chain_tip = read_digest(r);
  h.chain_height = r.u64();
  h.shard_digests = r.vec<crypto::Digest>(
      [](Reader& r2) { return read_digest(r2); }, 4);
  h.carried_txs = r.u64();
  h.carried_digest = read_digest(r);
  h.surviving_reputation = r.f64();
  h.members = read_ids(r);
  h.joined = read_ids(r);
  h.retired = read_ids(r);
  h.join_candidates = r.u64();
  h.beacon_disqualified = r.u64();
  if (r.remaining() > 0) {
    if (r.u8() != 1) throw std::invalid_argument("EpochHandoff: bad plan tag");
    h.plan = RebalancePlan::deserialize(r.bytes());
  }
  return h;
}

crypto::Digest EpochHandoff::digest() const { return crypto::sha256(serialize()); }

crypto::Digest carryover_digest(const std::vector<ledger::Transaction>& txs) {
  crypto::Sha256 ctx;
  ctx.update("cyc.epoch.carryover");
  ctx.update_u64(txs.size());
  for (const auto& tx : txs) {
    const ledger::TxId id = tx.id();
    ctx.update(BytesView(id.data(), id.size()));
  }
  return ctx.finalize();
}

EpochHandoff build_handoff(const protocol::Engine& engine,
                           std::uint64_t epoch,
                           std::vector<net::NodeId> joined,
                           std::vector<net::NodeId> retired,
                           std::uint64_t join_candidates,
                           std::uint64_t beacon_disqualified) {
  EpochHandoff h;
  h.epoch = epoch;
  h.boundary_round = engine.round();
  h.randomness = engine.randomness();
  h.chain_tip = engine.chain().tip().hash();
  h.chain_height = engine.chain().height();
  for (const auto& store : engine.shard_state()) {
    h.shard_digests.push_back(store.digest());
  }
  h.carried_txs = engine.carryover().size();
  h.carried_digest = carryover_digest(engine.carryover());
  h.members = engine.members();
  std::sort(joined.begin(), joined.end());
  std::sort(retired.begin(), retired.end());
  h.joined = std::move(joined);
  h.retired = std::move(retired);
  h.join_candidates = join_candidates;
  h.beacon_disqualified = beacon_disqualified;
  const std::set<net::NodeId> fresh(h.joined.begin(), h.joined.end());
  for (net::NodeId id : h.members) {
    if (!fresh.contains(id)) h.surviving_reputation += engine.reputation(id);
  }
  return h;
}

}  // namespace cyc::epoch
