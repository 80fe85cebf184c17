// perfbench: the simulator's steady benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out FILE]
//
// One workload per process, so peak memory is the workload's own. A run
// repeats episodes — construct the Engine / EpochManager (and checker),
// then run the workload's fixed round schedule — with the same seed. The
// episode count is a fixed function of `--seconds` and the workload's
// nominal episode time, at least two, so both sides of an A/B reduce the
// same number of repeats and every run also checks that the deterministic
// outputs repeat exactly. The reference kernel (reference.hpp) runs
// before every round and construction; end-to-end times are scaled by
// its speed. Untraced runs report the end-to-end metrics; `--trace 1`
// runs half the episodes
// untraced and half traced (observer attached, spans around every module
// call) and reports the per-layer metrics. The last stdout line is one
// JSON object; the exit code is non-zero when the output check fails.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/invariants.hpp"
#include "net/message.hpp"
#include "obs/observer.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace vc = cyc::crypto::verify_cache;

/// Run length when `--seconds` is not given, and the longest accepted.
constexpr double kDefaultSeconds = 30.0;
constexpr double kMaxSeconds = 60.0;
/// Constructions timed per episode: set-up takes milliseconds, so one
/// sample per episode would leave `setup_s` to a handful of noisy reads.
constexpr int kSetupRepeats = 8;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Per-round outputs that are a pure function of (workload, seed): two
/// episodes of one seed must agree on every field.
struct Deterministic {
  std::uint64_t committed = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t verify_full = 0;
  std::uint64_t latency_hash = 0;

  bool operator==(const Deterministic&) const = default;
};

struct RoundSample {
  double round_ms = 0.0;  ///< the timed round (run + in-round checks)
  double run_ms = 0.0;    ///< Engine/EpochManager::run_round alone
  double check_ms = 0.0;  ///< invariant checks of this round
  /// Reference kernel time around the round: the mean of the runs just
  /// before and just after it.
  double ref_ms = 0.0;
  bool boundary = false;  ///< an epoch boundary ran inside run_round
  Deterministic det;
  std::uint64_t verify_hits = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t severed = 0;
  std::uint64_t carried = 0;
  std::uint64_t utxo_entries = 0;
  std::uint64_t backlog = 0;
  bool void_block = false;
};

struct Probes {
  std::vector<double> verify_us, sign_us, sha256_ns, copy_us, apply_us,
      lookup_ns;
};

struct Episode {
  std::vector<double> setup_s;       ///< one per construction
  std::vector<double> setup_ref_ms;  ///< reference kernel around each
  std::vector<RoundSample> rounds;
  std::vector<double> latencies;
  TxFailTally tally;
  std::uint64_t arrived = 0;
  std::uint64_t mempool_dropped = 0;
  std::uint64_t shortfall = 0;
  std::uint64_t certs = 0;
  std::uint64_t votes_flushed = 0;
  Probes probes;
};

/// Output-check failures, counted per round.
struct Failures {
  std::uint64_t rounds = 0;
  std::vector<std::string> notes;

  void add(std::string note) {
    rounds += 1;
    if (notes.size() < 20) notes.push_back(std::move(note));
  }
};

std::uint64_t hash_latencies(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

class EpisodeRunner {
 public:
  EpisodeRunner(const Workload& w, std::uint64_t seed, SpanRecorder* rec,
                Failures& failures)
      : w_(w), seed_(seed), rec_(rec), failures_(failures) {}

  Episode run() {
    Episode ep;
    const std::size_t ep_span = begin("episode");
    // The verify cache is process-wide per thread: clear it so every
    // episode starts cold and repeats of one seed do identical work.
    vc::clear();
    if (rec_ != nullptr) observer_.emplace();

    // Construct several times; the episode runs on the last one. The
    // previous construction is torn down outside the timed interval.
    std::vector<double> refs;
    for (int i = 0; i < kSetupRepeats; ++i) {
      checker_.reset();
      engine_.reset();
      manager_.reset();
      refs.push_back(reference_ms());
      const std::size_t setup_span = begin("setup");
      const auto t0 = Clock::now();
      if (w_.epochs) {
        manager_ = std::make_unique<cyc::epoch::EpochManager>(
            w_.params(seed_), w_.adversary, w_.epoch);
      } else {
        engine_ = std::make_unique<cyc::protocol::Engine>(w_.params(seed_),
                                                          w_.adversary);
      }
      if (w_.checked_rounds) {
        checker_ = std::make_unique<cyc::harness::InvariantChecker>(engine());
      }
      ep.setup_s.push_back(ms_since(t0) / 1000.0);
      end(setup_span);
    }
    refs.push_back(reference_ms());
    for (int i = 0; i < kSetupRepeats; ++i) {
      ep.setup_ref_ms.push_back(0.5 * (refs[i] + refs[i + 1]));
    }

    if (rec_ != nullptr) {
      // Traced runs check invariants on every workload (outside the timed
      // round where the workload does not check in-round).
      if (!checker_) {
        checker_ = std::make_unique<cyc::harness::InvariantChecker>(engine());
      }
      engine().attach_observer(&*observer_);
    }

    for (std::uint64_t r = 1; r <= w_.rounds; ++r) round(r, ep);
    // Each round holds the kernel run before it; average in the one after.
    const double last_ref = reference_ms();
    for (std::size_t i = 0; i < ep.rounds.size(); ++i) {
      const double after =
          i + 1 < ep.rounds.size() ? ep.rounds[i + 1].ref_ms : last_ref;
      ep.rounds[i].ref_ms = 0.5 * (ep.rounds[i].ref_ms + after);
    }

    const auto& rounds = ep.rounds;
    if (!rounds.empty()) ep.tally.add_queued(rounds.back().backlog);
    ep.shortfall = engine().workload().shortfall();
    if (observer_) {
      const auto& m = observer_->metrics;
      if (const auto* c = m.find_counter("consensus.certs")) ep.certs = c->value();
      if (const auto* c = m.find_counter("engine.votes.flushed")) {
        ep.votes_flushed = c->value();
      }
      engine().attach_observer(nullptr);
    }
    end(ep_span);
    return ep;
  }

 private:
  cyc::protocol::Engine& engine() {
    return manager_ ? manager_->engine() : *engine_;
  }

  std::size_t begin(const char* name) {
    return rec_ != nullptr ? rec_->begin(name) : 0;
  }
  void end(std::size_t span) {
    if (rec_ != nullptr) rec_->end(span);
  }

  double check(const cyc::protocol::RoundReport& report, std::uint64_t r) {
    const std::size_t span = begin("harness.check_round");
    const auto t0 = Clock::now();
    std::size_t added = checker_->check_round(report);
    while (manager_ && audited_ < manager_->handoffs().size()) {
      added += checker_->check_epoch_boundary(manager_->handoffs()[audited_]);
      audited_ += 1;
    }
    const double ms = ms_since(t0);
    end(span);
    if (added > 0) {
      const auto& v = checker_->violations().back();
      failures_.add("round " + std::to_string(r) + ": invariant " +
                    v.invariant + ": " + v.detail);
    }
    return ms;
  }

  void round(std::uint64_t r, Episode& ep) {
    cyc::protocol::Engine& eng = engine();
    w_.apply_events(eng, r);
    std::vector<cyc::ledger::UtxoStore> pre;
    if (rec_ != nullptr) pre = eng.shard_state();
    const std::uint64_t shortfall0 = eng.workload().shortfall();
    const std::size_t handoffs0 = manager_ ? manager_->handoffs().size() : 0;

    RoundSample s;
    s.ref_ms = reference_ms();
    const std::uint64_t hits0 = vc::hits();
    const std::uint64_t misses0 = vc::misses();
    const std::uint64_t allocs0 = cyc::net::payload_allocations();
    const std::size_t round_span = begin("round");
    const auto t0 = Clock::now();
    const std::size_t run_span = begin("protocol.run_round");
    const cyc::protocol::RoundReport report =
        manager_ ? manager_->run_round() : eng.run_round();
    s.run_ms = ms_since(t0);
    end(run_span);
    s.det.verify_full = vc::misses() - misses0;
    s.verify_hits = vc::hits() - hits0;
    s.det.payload_allocs = cyc::net::payload_allocations() - allocs0;
    s.boundary = manager_ && manager_->handoffs().size() > handoffs0;
    if (rec_ != nullptr && s.boundary) rec_->rename(run_span, "epoch.run_round");
    if (w_.checked_rounds) s.check_ms = check(report, r);
    s.round_ms = ms_since(t0);
    end(round_span);
    if (!w_.checked_rounds && checker_) s.check_ms = check(report, r);

    const cyc::protocol::RoundFlow& flow = eng.last_flow();
    const auto& ol = report.open_loop;
    s.det.committed = report.txs_committed;
    s.det.msgs = report.traffic_total.msgs_sent;
    s.det.bytes = report.traffic_total.bytes_sent;
    s.det.fault_drops = report.faults.dropped();
    s.det.latency_hash = hash_latencies(ol.latencies);
    s.recoveries = report.recoveries;
    s.carried = flow.carried;
    s.void_block = report.block_void;
    s.backlog = ol.backlog;
    for (const auto& c : report.committees) s.severed += c.severed ? 1 : 0;
    for (const auto& store : eng.shard_state()) s.utxo_entries += store.size();

    // Output check: safety, flow conservation, open-loop admission.
    const std::string at = "round " + std::to_string(r) + ": ";
    if (report.invalid_committed > 0) {
      failures_.add(at + std::to_string(report.invalid_committed) +
                    " invalid transactions committed");
    } else if (flow.offered != flow.settled + flow.carried + flow.dropped ||
               flow.foreign != 0) {
      failures_.add(at + "RoundFlow conservation broken");
    } else if (ol.arrived != ol.admitted + ol.mempool_dropped + ol.exhausted) {
      failures_.add(at + "open-loop admission conservation broken");
    }

    const std::uint64_t closed_shortfall =
        eng.open_loop() ? 0 : eng.workload().shortfall() - shortfall0;
    ep.tally.add_round(report, flow, closed_shortfall);
    ep.arrived += ol.arrived;
    ep.mempool_dropped += ol.mempool_dropped;
    ep.latencies.insert(ep.latencies.end(), ol.latencies.begin(),
                        ol.latencies.end());
    if (rec_ != nullptr) probe(r, pre, ep.probes);
    ep.rounds.push_back(s);
  }

  // Per-layer micro-timings on this round's own inputs (traced only).
  void probe(std::uint64_t r, std::vector<cyc::ledger::UtxoStore>& pre,
             Probes& out) {
    const cyc::protocol::Engine& eng = engine();
    const cyc::ledger::Block& block = eng.last_block();
    std::size_t span = 0;
    if (!block.txs.empty()) {
      const auto& tx = block.txs[r % block.txs.size()];
      span = begin("crypto.verify");
      out.verify_us.push_back(verify_us(tx));
      end(span);
      span = begin("crypto.sign");
      out.sign_us.push_back(
          sign_us(tx, cyc::crypto::KeyPair::from_seed(seed_ + r)));
      end(span);
    }
    span = begin("crypto.sha256");
    out.sha256_ns.push_back(sha256_ns_per_block(block.serialize()));
    end(span);
    const auto& state = eng.shard_state();
    span = begin("ledger.utxo_copy");
    out.copy_us.push_back(utxo_copy_us(state[r % state.size()]));
    end(span);
    span = begin("ledger.block_apply");
    bool matches = false;
    out.apply_us.push_back(block_apply_us(std::move(pre), block, state, matches));
    end(span);
    if (!matches) {
      failures_.add("round " + std::to_string(r) +
                    ": replaying the block on the pre-round state does not "
                    "reproduce the engine's shard digests");
    }
    span = begin("ledger.shard_lookup");
    out.lookup_ns.push_back(shard_lookup_ns(*eng.shard_map(), eng.workload()));
    end(span);
  }

  const Workload& w_;
  std::uint64_t seed_;
  SpanRecorder* rec_;
  Failures& failures_;
  // Declared before the engine so it outlives it.
  std::optional<cyc::obs::Observer> observer_;
  std::unique_ptr<cyc::protocol::Engine> engine_;
  std::unique_ptr<cyc::epoch::EpochManager> manager_;
  std::unique_ptr<cyc::harness::InvariantChecker> checker_;
  std::size_t audited_ = 0;
};

/// Episodes that fit `seconds` at the workload's nominal episode time,
/// at least two so the deterministic outputs are compared. The count
/// depends only on the arguments, never on how fast this run goes.
std::size_t episode_count(const Workload& w, double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(seconds / w.episode_s));
}

/// `count` episodes with one seed; repeats must agree on every
/// deterministic field.
std::vector<Episode> run_phase(const Workload& w, std::uint64_t seed,
                               std::size_t count, SpanRecorder* rec,
                               Failures& failures) {
  std::vector<Episode> episodes;
  while (episodes.size() < count) {
    EpisodeRunner runner(w, seed, rec, failures);
    episodes.push_back(runner.run());
    std::vector<double> times;
    for (const auto& s : episodes.back().rounds) times.push_back(s.round_ms);
    std::fprintf(stderr, "%s episode %zu: setup %.4f s, round p50 %.3f ms\n",
                 rec != nullptr ? "traced" : "untraced", episodes.size(),
                 median(episodes.back().setup_s), median(times));
  }
  const Episode& first = episodes.front();
  for (std::size_t e = 1; e < episodes.size(); ++e) {
    for (std::size_t r = 0; r < first.rounds.size(); ++r) {
      if (!(episodes[e].rounds[r].det == first.rounds[r].det)) {
        failures.add("round " + std::to_string(r + 1) + ": repeat " +
                     std::to_string(e + 1) +
                     " of the seed differs in a deterministic field");
      }
    }
  }
  return episodes;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or remark, human output only
};

double per_round(std::uint64_t total, std::size_t rounds) {
  return rounds == 0 ? 0.0
                     : static_cast<double>(total) / static_cast<double>(rounds);
}

/// The fastest repeat of each round of the schedule (see
/// fastest_repeat); `field` picks which time.
std::vector<double> best_times(const std::vector<Episode>& eps,
                               double RoundSample::*field) {
  std::vector<std::vector<double>> per_episode;
  for (const auto& ep : eps) {
    per_episode.emplace_back();
    for (const auto& s : ep.rounds) per_episode.back().push_back(s.*field);
  }
  return fastest_repeat(per_episode);
}

/// Each round's time scaled to the reference speed, median over the
/// repeats of the schedule.
std::vector<double> calibrated_times(const std::vector<Episode>& eps) {
  std::vector<std::vector<double>> per_episode;
  for (const auto& ep : eps) {
    per_episode.emplace_back();
    for (const auto& s : ep.rounds) {
      per_episode.back().push_back(calibrated(s.round_ms, s.ref_ms));
    }
  }
  return median_repeat(per_episode);
}

std::string samples(std::size_t n, const char* what = "rounds") {
  return "n=" + std::to_string(n) + " " + what;
}

/// End-to-end metrics of the untraced phase. The first six are the
/// BENCHMARK.json end_to_end set; the rest are printed only. Times are
/// scaled to the reference speed; the raw medians are printed beside.
std::vector<Metric> end_to_end(const std::vector<Episode>& eps,
                               std::vector<Metric>& printed_only) {
  const std::vector<double> times = calibrated_times(eps);
  std::vector<double> all_times, all_refs, setups, raw_setups;
  for (const auto& ep : eps) {
    for (std::size_t i = 0; i < ep.setup_s.size(); ++i) {
      setups.push_back(calibrated(ep.setup_s[i], ep.setup_ref_ms[i]));
      raw_setups.push_back(ep.setup_s[i]);
    }
    for (const auto& s : ep.rounds) {
      all_times.push_back(s.round_ms);
      all_refs.push_back(s.ref_ms);
    }
  }
  const Episode& first = eps.front();
  std::uint64_t committed = 0;
  for (const auto& s : first.rounds) committed += s.det.committed;
  double wall_ms = 0.0;
  for (double t : times) wall_ms += t;

  const std::string basis = samples(times.size()) + " x median of " +
                            std::to_string(eps.size()) + " repeats";
  const Tail tail = tail_percentile(times);
  std::vector<Metric> out;
  out.push_back({"round_ms_p50", median(times), "ms",
                 basis + " (raw median of all " + std::to_string(all_times.size()) +
                     " samples: " + std::to_string(median(all_times)) +
                     " ms; reference kernel median " +
                     std::to_string(median(all_refs)) + " ms against " +
                     std::to_string(kReferenceMs) + ")"});
  if (tail.available()) {
    out.push_back({"round_ms_tail", tail.value, "ms",
                   basis + ", p" + std::to_string(tail.per_mille / 10) +
                       (tail.per_mille % 10 ? "." + std::to_string(tail.per_mille % 10) : "") +
                       " with " + std::to_string(tail.beyond) + " beyond"});
  } else {
    // Too few rounds for any tail with ten samples beyond it: report the
    // slowest round and say so.
    out.push_back({"round_ms_tail", *std::max_element(times.begin(), times.end()),
                   "ms", basis + ", too short for a tail: slowest round"});
  }
  out.push_back({"sim_tx_per_wall_s",
                 wall_ms > 0.0 ? static_cast<double>(committed) / (wall_ms / 1000.0) : 0.0,
                 "tx/s", basis});
  out.push_back({"setup_s", median(setups), "s",
                 samples(setups.size(), "set-ups") + " (raw median " +
                     std::to_string(median(raw_setups)) + " s)"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "whole process"});
  out.push_back({"committed_per_round", per_round(committed, first.rounds.size()),
                 "tx", samples(first.rounds.size())});

  if (first.latencies.empty()) {
    printed_only.push_back({"commit_latency_p50_sim", 0.0, "delta",
                            "n/a: closed loop has no arrival stamps"});
    printed_only.push_back({"commit_latency_p99_sim", 0.0, "delta",
                            "n/a: closed loop has no arrival stamps"});
  } else {
    std::vector<double> lat = first.latencies;
    std::sort(lat.begin(), lat.end());
    printed_only.push_back({"commit_latency_p50_sim", percentile(lat, 500),
                            "delta", samples(lat.size(), "commits")});
    printed_only.push_back({"commit_latency_p99_sim", percentile(lat, 990),
                            "delta", samples(lat.size(), "commits")});
  }
  printed_only.push_back(
      {"tx_fail_ratio", first.tally.ratio(), "ratio",
       std::to_string(first.tally.failed()) + " of " +
           std::to_string(first.tally.attempted) + " valid txs (" +
           std::to_string(first.tally.refused) + " refused, " +
           std::to_string(first.tally.lost) + " settled not committed)"});
  return out;
}

/// Per-layer metrics from the traced phase (`untraced` supplies the
/// reference for the tracing overhead).
std::vector<Metric> per_layer(const std::vector<Episode>& traced,
                              const std::vector<Episode>& untraced,
                              const std::vector<Metric>& e2e_printed) {
  // Timings: the fastest repeat of each round in raw wall time (these
  // metrics carry no bound, so they are not calibrated); boundary rounds
  // (the same indices in every repeat) apart.
  std::vector<double> run_ms, boundary_ms;
  const std::vector<double> best_run = best_times(traced, &RoundSample::run_ms);
  const std::vector<double> check_ms = best_times(traced, &RoundSample::check_ms);
  for (std::size_t i = 0; i < best_run.size(); ++i) {
    (traced.front().rounds[i].boundary ? boundary_ms : run_ms).push_back(best_run[i]);
  }
  Probes p;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& ep : traced) {
    append(p.verify_us, ep.probes.verify_us);
    append(p.sign_us, ep.probes.sign_us);
    append(p.sha256_ns, ep.probes.sha256_ns);
    append(p.copy_us, ep.probes.copy_us);
    append(p.apply_us, ep.probes.apply_us);
    append(p.lookup_ns, ep.probes.lookup_ns);
  }
  // Counts are deterministic: take them from the first traced episode.
  const Episode& ep = traced.front();
  const std::size_t n = ep.rounds.size();
  std::uint64_t rec = 0, sev = 0, car = 0, voids = 0, msgs = 0, bytes = 0,
                allocs = 0, drops = 0, full = 0, hits = 0, entries = 0,
                backlog = 0;
  for (const auto& s : ep.rounds) {
    rec += s.recoveries;
    sev += s.severed;
    car += s.carried;
    voids += s.void_block ? 1 : 0;
    msgs += s.det.msgs;
    bytes += s.det.bytes;
    allocs += s.det.payload_allocs;
    drops += s.det.fault_drops;
    full += s.det.verify_full;
    hits += s.verify_hits;
    entries += s.utxo_entries;
    backlog += s.backlog;
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::string rounds = samples(n);
  const std::string best =
      " x best of " + std::to_string(traced.size()) + " repeats";
  const std::string none = "n/a: no boundary in this workload";

  std::vector<Metric> out;
  out.push_back({"protocol.run_round_ms", median(run_ms), "ms", samples(run_ms.size()) + best});
  out.push_back({"protocol.recoveries_per_round", per_round(rec, n), "count", rounds});
  out.push_back({"protocol.void_blocks", static_cast<double>(voids), "count", "per episode"});
  out.push_back({"protocol.carryover_per_round", per_round(car, n), "count", rounds});
  out.push_back({"protocol.severed_per_round", per_round(sev, n), "count", rounds});
  out.push_back({"net.msgs_per_round", per_round(msgs, n), "count", rounds});
  out.push_back({"net.bytes_per_round", per_round(bytes, n), "bytes", rounds});
  out.push_back({"net.payload_allocs_per_round", per_round(allocs, n), "count", rounds});
  out.push_back({"net.fault_drops_per_round", per_round(drops, n), "count", rounds});
  out.push_back({"crypto.verify_full_per_round", per_round(full, n), "count", rounds});
  out.push_back({"crypto.verify_cache_hit_ratio", ratio(hits, hits + full), "ratio", rounds});
  out.push_back({"crypto.verify_us", median(p.verify_us), "us", samples(p.verify_us.size(), "probes")});
  out.push_back({"crypto.sign_us", median(p.sign_us), "us", samples(p.sign_us.size(), "probes")});
  out.push_back({"crypto.sha256_ns_per_block", median(p.sha256_ns), "ns", samples(p.sha256_ns.size(), "probes")});
  out.push_back({"ledger.utxo_entries", per_round(entries, n), "count", "mean over " + rounds});
  out.push_back({"ledger.utxo_copy_us", median(p.copy_us), "us", samples(p.copy_us.size(), "probes")});
  out.push_back({"ledger.block_apply_us", median(p.apply_us), "us", samples(p.apply_us.size(), "probes")});
  out.push_back({"ledger.shard_lookup_ns", median(p.lookup_ns), "ns", samples(p.lookup_ns.size(), "probes")});
  out.push_back({"ledger.mempool_backlog", per_round(backlog, n), "count", "mean over " + rounds});
  out.push_back({"ledger.mempool_drop_ratio", ratio(ep.mempool_dropped, ep.arrived), "ratio",
                 std::to_string(ep.mempool_dropped) + " of " + std::to_string(ep.arrived) + " arrivals"});
  out.push_back({"ledger.source_shortfall_ratio", ratio(ep.shortfall, ep.tally.attempted), "ratio",
                 std::to_string(ep.shortfall) + " of " + std::to_string(ep.tally.attempted) +
                     " valid txs re-pointed or unfilled"});
  out.push_back({"consensus.certs_per_round", per_round(ep.certs, n), "count", rounds});
  out.push_back({"consensus.votes_flushed_per_round", per_round(ep.votes_flushed, n), "count", rounds});
  out.push_back({"epoch.boundary_round_ms", median(boundary_ms), "ms",
                 boundary_ms.empty() ? none : samples(boundary_ms.size(), "boundaries") + best});
  out.push_back({"harness.check_round_ms", median(check_ms), "ms", samples(check_ms.size()) + best});
  const double untraced_p50 = median(calibrated_times(untraced));
  out.push_back({"obs.trace_overhead_ratio",
                 untraced_p50 > 0.0 ? median(calibrated_times(traced)) / untraced_p50 : 0.0,
                 "ratio", "traced over untraced round_ms_p50 (both calibrated)"});
  for (const auto& m : e2e_printed) out.push_back(m);
  return out;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_self_times(const SpanRecorder& rec) {
  std::printf("spans (self time = span minus its child spans):\n");
  for (const auto& [name, t] : rec.totals()) {
    std::printf("  %-34s count %6zu  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), t.count, t.total_ms, t.self_ms);
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out FILE]\nworkloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string name, spans_out;
  std::optional<std::uint64_t> seed;
  double seconds = kDefaultSeconds;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        name = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--spans-out") {
        spans_out = val;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr) return usage(("unknown workload '" + name + "'").c_str());
  if (!(seconds > 0.0 && seconds <= kMaxSeconds) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be in (0, 60] and --trace 0 or 1");
  }
  const std::uint64_t s = seed.value_or(w->default_seed);

  Failures failures;
  std::vector<Metric> printed_only;
  std::vector<Metric> reported;
  std::uint64_t attempted = 0;
  const auto count_rounds = [&](const std::vector<Episode>& eps) {
    for (const auto& ep : eps) attempted += ep.rounds.size();
  };

  std::printf("workload %s  seed %llu  trace %d  seconds %.1f\n",
              w->name.c_str(), static_cast<unsigned long long>(s), trace,
              seconds);
  if (trace == 0) {
    const auto eps = run_phase(*w, s, episode_count(*w, seconds), nullptr, failures);
    count_rounds(eps);
    reported = end_to_end(eps, printed_only);
    std::printf("untraced: %zu episodes of %zu rounds\n", eps.size(),
                w->rounds);
    print_table("end-to-end (BENCHMARK.json):", reported);
    print_table("end-to-end (printed only):", printed_only);
  } else {
    const std::size_t half = episode_count(*w, seconds / 2);
    const auto untraced = run_phase(*w, s, half, nullptr, failures);
    const std::uint64_t run_id =
        static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()) ^ s;
    SpanRecorder rec(run_id);
    const auto traced = run_phase(*w, s, half, &rec, failures);
    count_rounds(untraced);
    count_rounds(traced);
    // Attaching the observer must not change what the protocol does.
    const auto& a = untraced.front().rounds;
    const auto& b = traced.front().rounds;
    for (std::size_t r = 0; r < a.size(); ++r) {
      if (!(a[r].det == b[r].det)) {
        failures.add("round " + std::to_string(r + 1) +
                     ": traced run differs from untraced in a deterministic field");
      }
    }
    end_to_end(untraced, printed_only);
    reported = per_layer(traced, untraced, printed_only);
    std::printf("untraced: %zu episodes, traced: %zu episodes of %zu rounds\n",
                untraced.size(), traced.size(), w->rounds);
    print_table("per-layer (traced run):", reported);
    print_self_times(rec);
    if (!spans_out.empty() && !rec.write_json(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    }
  }

  const bool correct = failures.rounds == 0;
  for (const auto& note : failures.notes) {
    std::printf("OUTPUT CHECK FAILED: %s\n", note.c_str());
  }
  print_json(correct, attempted, failures.rounds, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
