// The benchmark's workloads: generated simulator inputs (Params, the
// adversary config, the epoch schedule and a fault schedule) keyed by
// name. The seed is the only free input; the program sees nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "epoch/manager.hpp"
#include "protocol/engine.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Seed used when the command line gives none (recorded in README.md).
  std::uint64_t default_seed = 1;
  /// Rounds in one episode: one construction followed by this many
  /// rounds. Epoch workloads run `epoch.epochs * epoch.rounds_per_epoch`.
  std::size_t rounds = 0;
  /// Nominal wall seconds of one untraced episode on the 4-vCPU VM the
  /// benchmark was tuned on. It only sizes the fixed episode count of a
  /// run (see episode_count in main.cpp); it is never measured at run time.
  double episode_s = 1.0;
  /// Drive the rounds through an EpochManager (boundaries included).
  bool epochs = false;
  cyc::epoch::EpochConfig epoch;
  /// Run the invariant checker after every round and boundary, inside
  /// the timed round (the harness/fuzz user's round).
  bool checked_rounds = false;
  cyc::protocol::AdversaryConfig adversary;

  cyc::protocol::Params params(std::uint64_t seed) const;
  /// Fault schedule: applied at the start of `round` (1-based), before
  /// the round runs; outside the timed interval.
  void apply_events(cyc::protocol::Engine& engine, std::uint64_t round) const;

  // Parameters shared by params(); set per workload in workloads.cpp.
  cyc::protocol::Params base;
  /// Offered load as a multiple of nominal capacity (open loop only).
  double load_factor = 0.0;
  bool faults = false;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
