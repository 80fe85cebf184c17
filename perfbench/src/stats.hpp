// The benchmark's own maths: medians, the tail-percentile rule, the
// valid-transaction failure accounting and span self time. Everything
// here is a pure function of its inputs so tests/selftest.cpp can pin it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "protocol/engine.hpp"

namespace perfbench {

/// Median with the two middle values averaged on an even count; 0 when
/// the sample is empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Round times of repeated episodes (one inner vector per episode, all
/// running the same seeded schedule, so round i does identical work in
/// each): the fastest repeat of every round index. Interference from
/// other load on the host only ever slows a repeat down, so the minimum
/// is the steadiest estimate of what round i costs.
inline std::vector<double> fastest_repeat(
    const std::vector<std::vector<double>>& episodes) {
  std::vector<double> best;
  for (const auto& times : episodes) {
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (i == best.size()) {
        best.push_back(times[i]);
      } else {
        best[i] = std::min(best[i], times[i]);
      }
    }
  }
  return best;
}

/// Round times of repeated episodes, as for fastest_repeat: the median
/// repeat of every round index. Used on calibrated times, where a slow
/// stretch of the host is already scaled out and the minimum would pick
/// up the reference kernel's own jitter.
inline std::vector<double> median_repeat(
    const std::vector<std::vector<double>>& episodes) {
  std::vector<std::vector<double>> by_round;
  for (const auto& times : episodes) {
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (i == by_round.size()) by_round.emplace_back();
      by_round[i].push_back(times[i]);
    }
  }
  std::vector<double> out;
  for (const auto& repeats : by_round) out.push_back(median(repeats));
  return out;
}

/// Nearest-rank percentile of a sorted, non-empty sample, with the
/// percentile given in per-mille (500 = p50, 990 = p99) so ranks are
/// exact integer arithmetic.
inline std::size_t nearest_rank(std::size_t n, unsigned per_mille) {
  const std::size_t rank = (static_cast<std::size_t>(per_mille) * n + 999) / 1000;
  return rank == 0 ? 1 : rank;
}

inline double percentile(const std::vector<double>& sorted,
                         unsigned per_mille) {
  return sorted[nearest_rank(sorted.size(), per_mille) - 1];
}

/// The highest percentile of a fixed ladder that still has at least
/// `min_beyond` samples strictly after its rank. `per_mille == 0` means
/// the sample is too short for any tail.
struct Tail {
  unsigned per_mille = 0;
  double value = 0.0;
  std::size_t beyond = 0;

  bool available() const { return per_mille != 0; }
};

inline constexpr unsigned kTailLadder[] = {999, 990, 950, 900, 750, 500};

inline Tail tail_percentile(std::vector<double> v,
                            std::size_t min_beyond = 10) {
  std::sort(v.begin(), v.end());
  for (unsigned pm : kTailLadder) {
    if (v.empty()) break;
    const std::size_t rank = nearest_rank(v.size(), pm);
    const std::size_t beyond = v.size() - rank;
    if (beyond >= min_beyond) return Tail{pm, v[rank - 1], beyond};
  }
  return Tail{};
}

/// Valid-transaction accounting behind `tx_fail_ratio`. Every valid
/// transaction that enters the pipeline is attempted once: fresh entries
/// to the round's lists (offered minus ground-truth invalid minus the
/// previous round's Remaining TX List), open-loop arrivals refused at
/// admission or lost to a dry spendable pool, closed-loop requests the
/// generator could not fill, and open-loop arrivals still queued in a
/// mempool when the run ends. Failures are the refused/exhausted ones
/// plus transactions that settled in a certified result yet never
/// reached the block. Invalid transactions and anything still queued or
/// carried at the end are not failures.
struct TxFailTally {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;  ///< mempool drops + exhausted sources
  std::uint64_t lost = 0;     ///< settled but never committed
  std::uint64_t carried_prev = 0;

  /// `closed_shortfall` is the closed-loop generator's shortfall delta
  /// this round (requests cut short by a dry pool); pass 0 in open loop,
  /// where the generator's shortfall counts fallbacks, not losses.
  void add_round(const cyc::protocol::RoundReport& report,
                 const cyc::protocol::RoundFlow& flow,
                 std::uint64_t closed_shortfall) {
    const std::uint64_t valid_listed = flow.offered - flow.dropped;
    attempted += valid_listed > carried_prev ? valid_listed - carried_prev : 0;
    carried_prev = flow.carried;
    const std::uint64_t refused_now = report.open_loop.mempool_dropped +
                                      report.open_loop.exhausted +
                                      closed_shortfall;
    refused += refused_now;
    attempted += refused_now;
    lost += flow.settled > flow.committed ? flow.settled - flow.committed : 0;
  }

  /// Open-loop transactions admitted but still queued when the run ends.
  void add_queued(std::uint64_t backlog) { attempted += backlog; }

  std::uint64_t failed() const { return refused + lost; }
  double ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// One traced interval. Times are microseconds since the recorder
/// started; `parent` indexes the enclosing span (-1 at top level).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;
  std::uint64_t run_id = 0;
};

/// A span's duration minus the part of its interval covered by its
/// direct children (overlapping children are merged, and children are
/// clipped to the parent's interval).
inline double self_time_us(const std::vector<Span>& spans, std::size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> cover;
  for (const Span& c : spans) {
    if (c.parent != static_cast<long>(index)) continue;
    const double a = std::max(c.start_us, s.start_us);
    const double b = std::min(c.end_us, s.end_us);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double open = s.start_us;
  for (const auto& [a, b] : cover) {
    const double from = std::max(a, open);
    if (b > from) {
      covered += b - from;
      open = b;
    }
  }
  return (s.end_us - s.start_us) - covered;
}

}  // namespace perfbench
