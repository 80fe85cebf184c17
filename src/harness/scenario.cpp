#include "harness/scenario.hpp"

#include <array>
#include <stdexcept>

namespace cyc::harness {

namespace {

using protocol::Behavior;
using support::JsonValue;
using support::JsonWriter;

constexpr std::array<Behavior, 10> kAllBehaviors = {
    Behavior::kHonest,       Behavior::kCrash,       Behavior::kEquivocator,
    Behavior::kCommitForger, Behavior::kConcealer,   Behavior::kInverseVoter,
    Behavior::kRandomVoter,  Behavior::kLazyVoter,   Behavior::kImitator,
    Behavior::kFramer,
};

// Checked double -> unsigned conversions: a negative or out-of-range
// number in a spec is a user error worth a diagnostic, and casting a
// negative double to an unsigned type is undefined behaviour.
std::uint64_t checked_u64(double value, std::string_view key) {
  if (value < 0.0 || value > 1.8446744073709552e19) {
    throw std::runtime_error("scenario: field '" + std::string(key) +
                             "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

std::uint32_t checked_u32(double value, std::string_view key) {
  if (value < 0.0 || value > 4294967295.0) {
    throw std::runtime_error("scenario: field '" + std::string(key) +
                             "' must fit in an unsigned 32-bit integer");
  }
  return static_cast<std::uint32_t>(value);
}

std::uint64_t u64_field(const JsonValue& v, std::string_view key,
                        std::uint64_t fallback) {
  return checked_u64(v.number_or(key, static_cast<double>(fallback)), key);
}

std::uint32_t u32_field(const JsonValue& v, std::string_view key,
                        std::uint32_t fallback) {
  return checked_u32(v.number_or(key, fallback), key);
}

protocol::Params params_from_json(const JsonValue& v,
                                  const protocol::Params& base) {
  protocol::Params p = base;
  p.m = u32_field(v, "m", p.m);
  p.c = u32_field(v, "c", p.c);
  p.lambda = u32_field(v, "lambda", p.lambda);
  p.referee_size = u32_field(v, "referee_size", p.referee_size);
  p.txs_per_committee = u32_field(v, "txs_per_committee", p.txs_per_committee);
  p.cross_shard_fraction =
      v.number_or("cross_shard_fraction", p.cross_shard_fraction);
  p.invalid_fraction = v.number_or("invalid_fraction", p.invalid_fraction);
  p.users = u32_field(v, "users", p.users);
  p.arrival_rate = v.number_or("arrival_rate", p.arrival_rate);
  p.zipf_s = v.number_or("zipf_s", p.zipf_s);
  p.mempool_cap = u32_field(v, "mempool_cap", p.mempool_cap);
  if (p.arrival_rate > 0.0 && p.mempool_cap == 0) {
    // A zero-capacity mempool silently drops every open-loop arrival —
    // reject the spec instead of running a vacuous experiment.
    throw std::runtime_error(
        "scenario: mempool_cap must be > 0 when arrival_rate > 0 (a "
        "zero-capacity mempool drops every arrival)");
  }
  p.rebalance = v.bool_or("rebalance", p.rebalance);
  p.rebalance_moves = u32_field(v, "rebalance_moves", p.rebalance_moves);
  p.rebalance_split_budget =
      u32_field(v, "rebalance_split_budget", p.rebalance_split_budget);
  p.capacity_min = u32_field(v, "capacity_min", p.capacity_min);
  p.capacity_max = u32_field(v, "capacity_max", p.capacity_max);
  p.standby = u32_field(v, "standby", p.standby);
  p.pow_bits = u32_field(v, "pow_bits", p.pow_bits);
  p.seed = u64_field(v, "seed", p.seed);
  p.delays.delta = v.number_or("delta", p.delays.delta);
  p.delays.gamma = v.number_or("gamma", p.delays.gamma);
  p.delays.jitter = v.number_or("jitter", p.delays.jitter);
  p.faults.drop = v.number_or("fault_drop", p.faults.drop);
  p.faults.duplicate = v.number_or("fault_duplicate", p.faults.duplicate);
  p.faults.reorder = v.number_or("fault_reorder", p.faults.reorder);
  p.faults.reorder_scale =
      v.number_or("fault_reorder_scale", p.faults.reorder_scale);
  p.config_duration = v.number_or("config_duration", p.config_duration);
  p.semicommit_duration =
      v.number_or("semicommit_duration", p.semicommit_duration);
  p.intra_duration = v.number_or("intra_duration", p.intra_duration);
  p.inter_duration = v.number_or("inter_duration", p.inter_duration);
  p.reputation_duration =
      v.number_or("reputation_duration", p.reputation_duration);
  p.selection_duration =
      v.number_or("selection_duration", p.selection_duration);
  p.block_duration = v.number_or("block_duration", p.block_duration);
  return p;
}

protocol::AdversaryConfig adversary_from_json(const JsonValue& v) {
  protocol::AdversaryConfig adv;
  adv.corrupt_fraction = v.number_or("corrupt_fraction", adv.corrupt_fraction);
  adv.forced_corrupt_leader_fraction = v.number_or(
      "forced_corrupt_leader_fraction", adv.forced_corrupt_leader_fraction);
  if (const JsonValue* mix = v.find("mix")) {
    adv.mix.clear();
    for (const auto& entry : mix->as_array()) {
      Behavior b;
      const std::string token = entry.string_or("behavior", "");
      if (!behavior_from_token(token, b)) {
        throw std::runtime_error("scenario: unknown behavior '" + token + "'");
      }
      adv.mix.push_back({b, entry.number_or("weight", 1.0)});
    }
  }
  return adv;
}

protocol::EngineOptions options_from_json(const JsonValue& v) {
  protocol::EngineOptions o;
  o.recovery_enabled = v.bool_or("recovery_enabled", o.recovery_enabled);
  o.reputation_leader_selection =
      v.bool_or("reputation_leader_selection", o.reputation_leader_selection);
  o.leader_bonus = v.number_or("leader_bonus", o.leader_bonus);
  o.referee_credit = v.number_or("referee_credit", o.referee_credit);
  o.max_recoveries_per_committee = u32_field(
      v, "max_recoveries_per_committee", o.max_recoveries_per_committee);
  if (o.max_recoveries_per_committee > protocol::kMaxSnAttempt) {
    // Each recovery restarts the committee's instances in the next of 16
    // sequence-number slots; a larger budget would alias two instances.
    throw std::runtime_error(
        "scenario: max_recoveries_per_committee must be <= " +
        std::to_string(protocol::kMaxSnAttempt) +
        " (the sequence-number layout has 16 attempt slots)");
  }
  o.extension_precommunication = v.bool_or("extension_precommunication",
                                           o.extension_precommunication);
  o.extension_parallel_blocks =
      v.bool_or("extension_parallel_blocks", o.extension_parallel_blocks);
  return o;
}

bool event_kind_from_token(std::string_view token, ScenarioEvent::Kind& out) {
  if (token == "corrupt") out = ScenarioEvent::Kind::kCorrupt;
  else if (token == "crash") out = ScenarioEvent::Kind::kCrash;
  else if (token == "restart") out = ScenarioEvent::Kind::kRestart;
  else if (token == "partition") out = ScenarioEvent::Kind::kPartition;
  else if (token == "heal") out = ScenarioEvent::Kind::kHeal;
  else if (token == "blackout") out = ScenarioEvent::Kind::kBlackout;
  else return false;
  return true;
}

std::string_view event_kind_token(ScenarioEvent::Kind k) {
  switch (k) {
    case ScenarioEvent::Kind::kCorrupt: return "corrupt";
    case ScenarioEvent::Kind::kCrash: return "crash";
    case ScenarioEvent::Kind::kRestart: return "restart";
    case ScenarioEvent::Kind::kPartition: return "partition";
    case ScenarioEvent::Kind::kHeal: return "heal";
    case ScenarioEvent::Kind::kBlackout: return "blackout";
  }
  return "corrupt";
}

ScenarioEvent event_from_json(const JsonValue& v) {
  ScenarioEvent ev;
  ev.round = u64_field(v, "round", ev.round);
  const std::string kind = v.string_or("kind", "corrupt");
  if (!event_kind_from_token(kind, ev.kind)) {
    throw std::runtime_error("scenario: unknown event kind '" + kind + "'");
  }
  const std::string target = v.string_or("target", "node");
  if (target == "node") {
    ev.target = ScenarioEvent::Target::kNode;
    ev.node = u32_field(v, "node", ev.node);
  } else if (target == "leader-of") {
    ev.target = ScenarioEvent::Target::kLeaderOf;
    ev.committee = u32_field(v, "committee", ev.committee);
  } else if (target == "referee-at") {
    ev.target = ScenarioEvent::Target::kRefereeAt;
    ev.committee = u32_field(v, "committee", ev.committee);
  } else if (target == "committee") {
    ev.target = ScenarioEvent::Target::kCommittee;
    ev.committee = u32_field(v, "committee", ev.committee);
  } else {
    throw std::runtime_error("scenario: unknown event target '" + target + "'");
  }
  const std::string token = v.string_or("behavior", "crash");
  if (!behavior_from_token(token, ev.behavior)) {
    throw std::runtime_error("scenario: unknown behavior '" + token + "'");
  }
  ev.duration = u64_field(v, "duration", ev.duration);
  if (ev.duration == 0) {
    throw std::runtime_error("scenario: event duration must be > 0");
  }
  return ev;
}

std::string_view event_target_token(ScenarioEvent::Target t) {
  switch (t) {
    case ScenarioEvent::Target::kNode: return "node";
    case ScenarioEvent::Target::kLeaderOf: return "leader-of";
    case ScenarioEvent::Target::kRefereeAt: return "referee-at";
    case ScenarioEvent::Target::kCommittee: return "committee";
  }
  return "node";
}

}  // namespace

std::string_view behavior_token(Behavior b) {
  return protocol::behavior_name(b);
}

bool behavior_from_token(std::string_view token, Behavior& out) {
  for (Behavior b : kAllBehaviors) {
    if (protocol::behavior_name(b) == token) {
      out = b;
      return true;
    }
  }
  return false;
}

ScenarioSpec ScenarioSpec::from_json(const JsonValue& v) {
  if (!v.is_object()) {
    throw std::runtime_error("scenario: expected a JSON object");
  }
  ScenarioSpec spec;
  spec.name = v.string_or("name", spec.name);
  if (const JsonValue* params = v.find("params")) {
    spec.params = params_from_json(*params, spec.params);
  }
  if (const JsonValue* adv = v.find("adversary")) {
    spec.adversary = adversary_from_json(*adv);
  }
  if (const JsonValue* options = v.find("options")) {
    spec.options = options_from_json(*options);
  }
  spec.rounds = static_cast<std::size_t>(u64_field(v, "rounds", spec.rounds));
  if (spec.rounds == 0) throw std::runtime_error("scenario: rounds must be > 0");
  spec.epochs = static_cast<std::size_t>(u64_field(v, "epochs", spec.epochs));
  if (spec.epochs == 0) throw std::runtime_error("scenario: epochs must be > 0");
  spec.churn_rate = v.number_or("churn_rate", spec.churn_rate);
  if (spec.churn_rate < 0.0 || spec.churn_rate > 1.0) {
    throw std::runtime_error("scenario: churn_rate must be in [0, 1]");
  }
  if (const JsonValue* seeds = v.find("seeds")) {
    spec.seeds.clear();
    for (const auto& s : seeds->as_array()) {
      spec.seeds.push_back(checked_u64(s.as_number(), "seeds"));
    }
    if (spec.seeds.empty()) {
      throw std::runtime_error("scenario: seeds must be non-empty");
    }
  }
  if (const JsonValue* events = v.find("events")) {
    for (const auto& e : events->as_array()) {
      spec.events.push_back(event_from_json(e));
    }
  }
  return spec;
}

std::vector<ScenarioSpec> ScenarioSpec::list_from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  std::vector<ScenarioSpec> specs;
  if (doc.is_array()) {
    for (const auto& entry : doc.as_array()) specs.push_back(from_json(entry));
  } else if (const JsonValue* list = doc.find("scenarios")) {
    for (const auto& entry : list->as_array()) specs.push_back(from_json(entry));
  } else {
    specs.push_back(from_json(doc));
  }
  if (specs.empty()) throw std::runtime_error("scenario: empty scenario list");
  return specs;
}

void ScenarioSpec::to_json(JsonWriter& w) const {
  w.begin_object();
  w.field("name", name);
  w.key("params");
  w.begin_object();
  w.field("m", params.m);
  w.field("c", params.c);
  w.field("lambda", params.lambda);
  w.field("referee_size", params.referee_size);
  w.field("txs_per_committee", params.txs_per_committee);
  w.field("cross_shard_fraction", params.cross_shard_fraction);
  w.field("invalid_fraction", params.invalid_fraction);
  w.field("users", params.users);
  // Emitted only when the open-loop source is on: the source is inert at
  // rate 0 and zipf_s / mempool_cap are meaningless without it, so
  // legacy closed-loop specs keep their exact byte encoding.
  if (params.arrival_rate > 0.0) {
    w.field("arrival_rate", params.arrival_rate);
    w.field("zipf_s", params.zipf_s);
    w.field("mempool_cap", params.mempool_cap);
  }
  // Emitted only when the load-aware re-draw is on — specs without it
  // keep their exact byte encoding.
  if (params.rebalance) {
    w.field("rebalance", params.rebalance);
    w.field("rebalance_moves", params.rebalance_moves);
    w.field("rebalance_split_budget", params.rebalance_split_budget);
  }
  w.field("capacity_min", params.capacity_min);
  w.field("capacity_max", params.capacity_max);
  w.field("standby", params.standby);
  w.field("pow_bits", static_cast<std::uint32_t>(params.pow_bits));
  w.field("seed", params.seed);
  w.field("delta", params.delays.delta);
  w.field("gamma", params.delays.gamma);
  w.field("jitter", params.delays.jitter);
  // Emitted only when probabilistic faults are on: legacy specs stay
  // byte-identical, and reorder_scale is meaningless without an axis.
  if (params.faults.any()) {
    w.field("fault_drop", params.faults.drop);
    w.field("fault_duplicate", params.faults.duplicate);
    w.field("fault_reorder", params.faults.reorder);
    w.field("fault_reorder_scale", params.faults.reorder_scale);
  }
  w.field("config_duration", params.config_duration);
  w.field("semicommit_duration", params.semicommit_duration);
  w.field("intra_duration", params.intra_duration);
  w.field("inter_duration", params.inter_duration);
  w.field("reputation_duration", params.reputation_duration);
  w.field("selection_duration", params.selection_duration);
  w.field("block_duration", params.block_duration);
  w.end_object();
  w.key("adversary");
  w.begin_object();
  w.field("corrupt_fraction", adversary.corrupt_fraction);
  w.field("forced_corrupt_leader_fraction",
          adversary.forced_corrupt_leader_fraction);
  w.key("mix");
  w.begin_array();
  for (const auto& entry : adversary.mix) {
    w.begin_object();
    w.field("behavior", behavior_token(entry.behavior));
    w.field("weight", entry.weight);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("options");
  w.begin_object();
  w.field("recovery_enabled", options.recovery_enabled);
  w.field("reputation_leader_selection", options.reputation_leader_selection);
  w.field("leader_bonus", options.leader_bonus);
  w.field("referee_credit", options.referee_credit);
  w.field("max_recoveries_per_committee",
          options.max_recoveries_per_committee);
  w.field("extension_precommunication", options.extension_precommunication);
  w.field("extension_parallel_blocks", options.extension_parallel_blocks);
  w.end_object();
  w.field("rounds", static_cast<std::uint64_t>(rounds));
  w.field("epochs", static_cast<std::uint64_t>(epochs));
  w.field("churn_rate", churn_rate);
  w.key("seeds");
  w.begin_array();
  for (std::uint64_t s : seeds) w.value(s);
  w.end_array();
  w.key("events");
  w.begin_array();
  for (const auto& ev : events) {
    // Omit-when-default keeps legacy (corrupt-only) specs byte-identical
    // to their pre-fault-fabric encoding.
    w.begin_object();
    w.field("round", ev.round);
    if (ev.kind != ScenarioEvent::Kind::kCorrupt) {
      w.field("kind", event_kind_token(ev.kind));
    }
    w.field("target", event_target_token(ev.target));
    if (ev.target == ScenarioEvent::Target::kNode) {
      w.field("node", ev.node);
    } else {
      w.field("committee", ev.committee);
    }
    if (ev.kind == ScenarioEvent::Kind::kCorrupt) {
      w.field("behavior", behavior_token(ev.behavior));
    }
    if (ev.kind == ScenarioEvent::Kind::kPartition ||
        ev.kind == ScenarioEvent::Kind::kBlackout) {
      w.field("duration", ev.duration);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string ScenarioSpec::to_json_text() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

ScenarioSpec ScenarioSpec::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

std::vector<ScenarioSpec> build_matrix(const MatrixAxes& axes) {
  auto adversaries = axes.adversaries;
  if (adversaries.empty()) adversaries.push_back({"honest", {}});
  auto delays = axes.delays;
  if (delays.empty()) delays.push_back({"base", axes.base.delays});
  auto cross = axes.cross_shard_fractions;
  if (cross.empty()) cross.push_back(axes.base.cross_shard_fraction);
  auto capacities = axes.capacities;
  if (capacities.empty()) {
    capacities.push_back({axes.base.capacity_min, axes.base.capacity_max});
  }
  // The newer axes keep legacy scenario names stable: an empty axis
  // contributes the base value and no name segment.
  const bool shapes_swept = !axes.committee_shapes.empty();
  auto shapes = axes.committee_shapes;
  if (shapes.empty()) shapes.push_back({axes.base.m, axes.base.c});
  const bool invalid_swept = !axes.invalid_fractions.empty();
  auto invalids = axes.invalid_fractions;
  if (invalids.empty()) invalids.push_back(axes.base.invalid_fraction);
  const bool epochs_swept = !axes.epoch_points.empty();
  auto epoch_points = axes.epoch_points;
  if (epoch_points.empty()) epoch_points.push_back({1, 0.0});
  const bool rebalance_swept = !axes.rebalance_modes.empty();
  auto rebalances = axes.rebalance_modes;
  if (rebalances.empty()) rebalances.push_back(axes.base.rebalance);

  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };

  std::vector<ScenarioSpec> out;
  for (const auto& [adv_name, adv] : adversaries) {
    for (const auto& [delay_name, delay] : delays) {
      for (const double frac : cross) {
        for (const auto& [cap_min, cap_max] : capacities) {
          for (const auto& [m, c] : shapes) {
            for (const double invalid : invalids) {
              for (const auto& [epochs, churn] : epoch_points) {
                for (const bool rebalance : rebalances) {
                  ScenarioSpec spec;
                  spec.params = axes.base;
                  spec.params.delays = delay;
                  spec.params.cross_shard_fraction = frac;
                  spec.params.capacity_min = cap_min;
                  spec.params.capacity_max = cap_max;
                  spec.params.m = m;
                  spec.params.c = c;
                  spec.params.invalid_fraction = invalid;
                  spec.params.rebalance = rebalance;
                  spec.adversary = adv;
                  spec.options = axes.options;
                  spec.rounds = axes.rounds;
                  spec.epochs = epochs;
                  spec.churn_rate = churn;
                  spec.seeds = axes.seeds;
                  spec.name = adv_name + "/" + delay_name + "/x" + fmt(frac) +
                              "/cap" + std::to_string(cap_min) + "-" +
                              std::to_string(cap_max);
                  if (shapes_swept) {
                    spec.name += "/m" + std::to_string(m) + "c" +
                                 std::to_string(c);
                  }
                  if (invalid_swept) spec.name += "/inv" + fmt(invalid);
                  if (epochs_swept) {
                    spec.name += "/e" + std::to_string(epochs) + "ch" +
                                 fmt(churn);
                  }
                  if (rebalance_swept) {
                    spec.name += rebalance ? "/rebal" : "/static";
                  }
                  out.push_back(std::move(spec));
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<ScenarioSpec> default_matrix() {
  MatrixAxes axes;
  axes.base.m = 3;
  axes.base.c = 9;
  axes.base.lambda = 3;
  axes.base.referee_size = 5;
  axes.base.txs_per_committee = 10;
  axes.base.invalid_fraction = 0.1;
  axes.base.users = 20 * axes.base.m;
  // ROADMAP growth: 3 rounds (reputation-ranked re-selection gets a
  // full cycle on every crossed point) and a third seed per scenario.
  axes.rounds = 3;
  axes.seeds = {1, 2, 3};

  // Adversary axis: honest baseline, misvoting members, and the leader
  // attacks that force the impeachment / recovery path.
  protocol::AdversaryConfig voters;
  voters.corrupt_fraction = 0.25;
  voters.mix = {{protocol::Behavior::kInverseVoter, 1.0},
                {protocol::Behavior::kRandomVoter, 1.0},
                {protocol::Behavior::kLazyVoter, 1.0}};
  protocol::AdversaryConfig leaders;
  leaders.corrupt_fraction = 0.15;
  leaders.forced_corrupt_leader_fraction = 0.67;
  leaders.mix = {{protocol::Behavior::kCrash, 1.0},
                 {protocol::Behavior::kEquivocator, 1.0},
                 {protocol::Behavior::kCommitForger, 1.0},
                 {protocol::Behavior::kConcealer, 1.0}};
  axes.adversaries = {
      {"honest", {}}, {"voters", voters}, {"leaders", leaders}};

  // Delay axis: the paper's default regime and a slower, jitterier
  // partial-sync regime (delivery reordering on non-key links).
  net::DelayModel lan;  // delta 1, gamma 5, jitter 1
  net::DelayModel jittery;
  jittery.delta = 1.0;
  jittery.gamma = 7.0;
  jittery.jitter = 3.0;
  axes.delays = {{"lan", lan}, {"jittery", jittery}};

  axes.cross_shard_fractions = {0.1, 0.4};
  // 4..16 straddles the 10-tx list length, so skewed nodes actually vote
  // Unknown on list tails (uniform 64 never does).
  axes.capacities = {{64, 64}, {4, 16}};
  std::vector<ScenarioSpec> matrix = build_matrix(axes);

  // Mid-run churn scenarios on top of the crossed axes: corruption
  // requested while the run is in flight (effective one round later,
  // §III-C), hitting a committee leader and a referee seat.
  {
    // An equivocating leader (crash would sit out the next selection and
    // never regain a role; equivocators stay active, keep their
    // reputation rank, and get re-selected — then caught).
    ScenarioSpec churn;
    churn.name = "churn/leader-equivocate";
    churn.params = axes.base;
    churn.rounds = 3;
    churn.seeds = axes.seeds;
    churn.events.push_back({1, ScenarioEvent::Target::kLeaderOf, 0, 0,
                            protocol::Behavior::kEquivocator});
    matrix.push_back(churn);

    ScenarioSpec referee_churn;
    referee_churn.name = "churn/referee-crash";
    referee_churn.params = axes.base;
    referee_churn.rounds = 3;
    referee_churn.seeds = axes.seeds;
    referee_churn.events.push_back({1, ScenarioEvent::Target::kRefereeAt, 0, 0,
                                    protocol::Behavior::kCrash});
    referee_churn.events.push_back({2, ScenarioEvent::Target::kRefereeAt, 0, 1,
                                    protocol::Behavior::kCrash});
    matrix.push_back(referee_churn);
  }

  // Committee-shape point: more, smaller committees than the base shape
  // (the c/m axis ROADMAP listed as unswept) — committee configuration,
  // sortition spread and the cross-shard mesh all scale with m.
  {
    ScenarioSpec shape;
    shape.name = "shape/m4c6";
    shape.params = axes.base;
    shape.params.m = 4;
    shape.params.c = 6;
    shape.params.lambda = 2;
    shape.params.users = 20 * shape.params.m;
    shape.rounds = 2;
    shape.seeds = axes.seeds;
    matrix.push_back(shape);
  }

  // High invalid-fraction point: a third of the offered workload is
  // ground-truth invalid, so the §IV-G drop path (and with it flow
  // conservation at dropped > 0) is exercised, not just the happy path.
  {
    ScenarioSpec invalid;
    invalid.name = "invalid/x0.3";
    invalid.params = axes.base;
    invalid.params.invalid_fraction = 0.3;
    invalid.rounds = 2;
    invalid.seeds = axes.seeds;
    matrix.push_back(invalid);
  }

  // Fault-fabric scenarios (tentpole): a committee partitioned below
  // quorum then healed, a crash -> restart -> referee catch-up lifecycle,
  // and probabilistic loss on the wide-area links. All must stay green:
  // the invariant checker parks commit-or-recover for severed / lossy
  // points but keeps every safety check armed.
  {
    ScenarioSpec partition;
    partition.name = "faults/partition-heal";
    partition.params = axes.base;
    partition.rounds = 4;
    partition.seeds = axes.seeds;
    ScenarioEvent cut;
    cut.round = 2;
    cut.kind = ScenarioEvent::Kind::kPartition;
    cut.target = ScenarioEvent::Target::kCommittee;
    cut.committee = 0;
    cut.duration = 2;  // would cover rounds 2-3...
    partition.events.push_back(cut);
    ScenarioEvent heal;
    heal.round = 3;  // ...but an explicit heal closes it after round 2
    heal.kind = ScenarioEvent::Kind::kHeal;
    partition.events.push_back(heal);
    matrix.push_back(partition);

    ScenarioSpec restart;
    restart.name = "faults/crash-restart";
    restart.params = axes.base;
    restart.rounds = 4;
    restart.seeds = axes.seeds;
    ScenarioEvent crash;
    crash.round = 1;
    crash.kind = ScenarioEvent::Kind::kCrash;
    crash.target = ScenarioEvent::Target::kNode;
    crash.node = 13;
    restart.events.push_back(crash);
    ScenarioEvent back;
    back.round = 3;
    back.kind = ScenarioEvent::Kind::kRestart;
    back.target = ScenarioEvent::Target::kNode;
    back.node = 13;
    restart.events.push_back(back);
    matrix.push_back(restart);

    ScenarioSpec lossy;
    lossy.name = "faults/lossy-wan";
    lossy.params = axes.base;
    lossy.params.faults.drop = 0.1;
    lossy.params.faults.duplicate = 0.05;
    lossy.params.faults.reorder = 0.3;
    lossy.rounds = 3;
    lossy.seeds = axes.seeds;
    matrix.push_back(lossy);
  }

  // Multi-epoch point: three epochs with PoW identity churn across a
  // standby pool, under the default matrix's misvoting adversary mix —
  // every boundary is audited via its EpochHandoff (continuity, tx
  // preservation, reputation conservation, honest-majority committees).
  {
    ScenarioSpec epochs;
    epochs.name = "epoch/churn0.2";
    epochs.params = axes.base;
    epochs.params.standby = 8;
    epochs.rounds = 2;
    epochs.epochs = 3;
    epochs.churn_rate = 0.2;
    epochs.adversary = voters;
    epochs.seeds = axes.seeds;
    matrix.push_back(epochs);
  }

  // Bounded open-loop point: Poisson/Zipf sustained traffic at ~83% of
  // nominal capacity with a small per-shard mempool, exercising the
  // admission / drain / latency-stamping path under the tier-1 gate.
  {
    ScenarioSpec load;
    load.name = "load/openloop";
    load.params = axes.base;
    load.params.arrival_rate = 0.15;
    load.params.zipf_s = 1.1;
    load.params.mempool_cap = 24;
    load.rounds = 3;
    load.seeds = axes.seeds;
    matrix.push_back(load);
  }
  return matrix;
}

}  // namespace cyc::harness
