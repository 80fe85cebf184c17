#include "workloads.hpp"

namespace perfbench {

namespace {

using cyc::protocol::Params;

double round_duration(const Params& p) {
  return (p.config_duration + p.semicommit_duration + p.intra_duration +
          p.inter_duration + p.reputation_duration + p.selection_duration +
          p.block_duration) *
         p.delays.delta;
}

// Closed loop, honest, at the m = 64 point of bench_throughput_scalability
// (n = 5 + 64 * 10 = 645 nodes).
Workload paper_scale() {
  Workload w;
  w.name = "paper-scale-m64";
  w.default_seed = 5;
  w.rounds = 2;
  w.episode_s = 2.8;
  Params& p = w.base;
  p.m = 64;
  p.c = 10;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 12;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 24 * p.m;
  return w;
}

// Open loop: Poisson arrivals over Zipf(1.1) accounts at 1.1x nominal
// capacity into per-shard mempools of 32, at small n over many rounds.
Workload open_loop() {
  Workload w;
  w.name = "open-loop-m8";
  w.default_seed = 7;
  w.rounds = 60;
  w.episode_s = 2.5;
  w.load_factor = 1.1;
  Params& p = w.base;
  p.m = 8;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 40 * p.m;
  p.zipf_s = 1.1;
  p.mempool_cap = 32;
  return w;
}

// Byzantine members and leaders, recovery, three epochs with churn, and
// network faults, with the invariant suite run inside every round.
Workload byzantine_epochs() {
  Workload w;
  w.name = "byzantine-epochs";
  w.default_seed = 3;
  w.epochs = true;
  w.epoch.epochs = 3;
  w.epoch.rounds_per_epoch = 20;
  w.epoch.churn_rate = 0.1;
  w.rounds = w.epoch.epochs * w.epoch.rounds_per_epoch;
  w.episode_s = 5.0;
  w.checked_rounds = true;
  w.faults = true;
  w.adversary.corrupt_fraction = 0.2;
  w.adversary.forced_corrupt_leader_fraction = 0.25;
  Params& p = w.base;
  p.m = 8;
  p.c = 12;
  p.lambda = 3;
  p.referee_size = 7;
  p.txs_per_committee = 12;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.05;
  p.users = 24 * p.m;
  p.standby = 24;
  p.faults.drop = 0.01;
  return w;
}

}  // namespace

Params Workload::params(std::uint64_t seed) const {
  Params p = base;
  p.seed = seed;
  if (load_factor > 0.0) {
    p.arrival_rate = load_factor *
                     static_cast<double>(p.m * p.txs_per_committee) /
                     round_duration(p);
  }
  return p;
}

void Workload::apply_events(cyc::protocol::Engine& engine,
                            std::uint64_t round) const {
  if (!faults) return;
  const auto& committees = engine.assignment().committees;
  // Epoch 1: silence committee 1's leader for two rounds.
  if (round == 3) engine.blackout(committees[1].leader, 3, 5);
  // Epoch 2, its third round: cut committee 2 off for up to three
  // rounds, healed after two.
  const std::uint64_t cut = epoch.rounds_per_epoch + 3;
  if (round == cut) engine.partition(committees[2].all_members(), cut, cut + 3);
  if (round == cut + 2) engine.heal(cut + 2);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {paper_scale(), open_loop(),
                                            byzantine_epochs()};
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
