#include "epoch/rebalance.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "analysis/bounds.hpp"
#include "support/serde.hpp"

namespace cyc::epoch {

Bytes RebalancePlan::serialize() const {
  Writer w;
  w.str("REBALANCE_PLAN");
  w.u64(epoch);
  w.u32(m_before);
  w.u32(m_after);
  w.vec(moves, [](Writer& w2, const ledger::AccountMove& mv) {
    w2.u64(mv.account);
    w2.u32(mv.from);
    w2.u32(mv.to);
  });
  w.f64(fair_draw_tail);
  w.bytes(crypto::digest_to_bytes(map_digest));
  w.u64(migrated_outputs);
  return w.take();
}

RebalancePlan RebalancePlan::deserialize(BytesView b) {
  Reader r(b);
  if (r.str() != "REBALANCE_PLAN") {
    throw std::invalid_argument("RebalancePlan: bad magic");
  }
  RebalancePlan plan;
  plan.epoch = r.u64();
  plan.m_before = r.u32();
  plan.m_after = r.u32();
  plan.moves = r.vec<ledger::AccountMove>([](Reader& r2) {
    ledger::AccountMove mv;
    mv.account = r2.u64();
    mv.from = r2.u32();
    mv.to = r2.u32();
    return mv;
  }, 8 + 4 + 4);
  plan.fair_draw_tail = r.f64();
  plan.map_digest = crypto::digest_from_bytes(r.bytes());
  plan.migrated_outputs = r.u64();
  return plan;
}

crypto::Digest RebalancePlan::digest() const {
  return crypto::sha256(serialize());
}

RebalanceConfig rebalance_config(const protocol::Params& params) {
  RebalanceConfig cfg;
  cfg.enabled = params.rebalance;
  cfg.max_moves = params.rebalance_moves;
  cfg.split_merge_budget = params.rebalance_split_budget;
  return cfg;
}

namespace {

/// Committee seat count if the membership were re-dealt over m_after
/// committees instead of m_before (total seats preserved, floor'd).
std::uint64_t rescaled_seats(std::uint32_t committee_size,
                             std::uint32_t m_before, std::uint32_t m_after) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(committee_size) * m_before;
  return std::max<std::uint64_t>(1, total / std::max<std::uint32_t>(1, m_after));
}

}  // namespace

RebalancePlan plan_rebalance(
    const RebalanceConfig& cfg, const ledger::ShardMap& current,
    const ledger::ShardLoadWindow& window,
    const std::vector<std::pair<std::uint64_t, ledger::ShardId>>& accounts,
    std::size_t member_count, std::size_t corrupt_members,
    std::uint32_t committee_size, std::uint64_t entering_epoch) {
  const std::uint32_t m = current.shards();
  RebalancePlan plan;
  plan.epoch = entering_epoch;
  plan.m_before = m;
  plan.m_after = m;
  plan.fair_draw_tail = analysis::committee_failure_exact(
      member_count, corrupt_members, committee_size);

  // No observed load — nothing to act on; record the identity decision.
  if (!cfg.enabled || window.empty() || window.offered.size() != m) {
    plan.map_digest = current.apply({}).digest();
    return plan;
  }

  // Working copies: per-shard load estimate and account census.
  std::vector<double> load(m, 0.0);
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < m; ++k) {
    load[k] = static_cast<double>(window.offered[k]);
    total += window.offered[k];
  }
  const double mean = static_cast<double>(total) / m;
  std::vector<std::size_t> census(m, 0);
  std::map<std::uint64_t, ledger::ShardId> account_shard;
  for (const auto& [account, shard] : accounts) {
    census[shard] += 1;
    account_shard[account] = shard;
  }

  // Greedy re-homing: while a shard is over threshold, move its hottest
  // account (most window arrivals, ties to the lowest key) to the
  // currently coldest shard, updating the load estimates as we go.
  // Everything iterates sorted containers, so the plan is deterministic.
  std::set<std::uint64_t> moved;
  for (std::uint32_t iter = 0; iter < cfg.max_moves; ++iter) {
    std::uint32_t hot = 0, cold = 0;
    for (std::uint32_t k = 1; k < m; ++k) {
      if (load[k] > load[hot]) hot = k;
      if (load[k] < load[cold]) cold = k;
    }
    if (hot == cold || load[hot] <= cfg.overload_threshold * mean) break;
    if (census[hot] <= 1) break;  // never empty a shard of accounts

    std::uint64_t best_account = 0;
    std::uint64_t best_arrivals = 0;
    bool found = false;
    for (const auto& [account, count] : window.account_arrivals) {
      if (count == 0 || moved.contains(account)) continue;
      auto it = account_shard.find(account);
      if (it == account_shard.end() || it->second != hot) continue;
      if (!found || count > best_arrivals) {
        best_account = account;
        best_arrivals = count;
        found = true;
      }
    }
    if (!found) break;

    plan.moves.push_back(ledger::AccountMove{best_account, hot, cold});
    moved.insert(best_account);
    account_shard[best_account] = cold;
    census[hot] -= 1;
    census[cold] += 1;
    load[hot] -= static_cast<double>(best_arrivals);
    load[cold] += static_cast<double>(best_arrivals);
  }
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const ledger::AccountMove& a, const ledger::AccountMove& b) {
              return a.account < b.account;
            });

  // Advisory split/merge: drops anywhere in the window signal that the
  // service capacity itself is short — recommend one more committee;
  // a window with zero drops *and* zero residual backlog signals excess
  // capacity — recommend one fewer. Either direction must keep the
  // fair-draw tail under the safety threshold at the rescaled committee
  // size, and stays within the configured budget.
  if (cfg.split_merge_budget > 0) {
    std::uint64_t dropped = 0, backlog = 0;
    for (std::uint32_t k = 0; k < m; ++k) {
      dropped += window.dropped[k];
      backlog += window.occupancy_sum[k];
    }
    std::uint32_t want = m;
    if (dropped > 0) {
      want = m + std::min<std::uint32_t>(1, cfg.split_merge_budget);
    } else if (backlog == 0 && m > 2) {
      want = m - std::min<std::uint32_t>(1, cfg.split_merge_budget);
    }
    if (want != m) {
      const double tail = analysis::committee_failure_exact(
          member_count, corrupt_members,
          rescaled_seats(committee_size, m, want));
      if (tail <= cfg.max_fair_draw_tail) {
        plan.m_after = want;
        plan.fair_draw_tail = tail;
      }
    }
  }

  plan.map_digest = current.apply(plan.moves).digest();
  return plan;
}

}  // namespace cyc::epoch
