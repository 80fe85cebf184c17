// Self-test of the benchmark's own maths (src/stats.hpp): the tail
// percentile rule, the fastest- and median-repeat reductions, the
// reference-speed scaling (src/reference.hpp), the tx_fail_ratio
// accounting on hand-built round reports, and span self time. Exits
// non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "reference.hpp"
#include "stats.hpp"

namespace {

int g_failed = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    g_failed += 1;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n..1, deliberately unsorted
}

void test_median() {
  expect(near(perfbench::median({3, 1, 2}), 2.0), "median of odd count");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of even count");
  expect(near(perfbench::median({}), 0.0), "median of empty sample");
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  // 19 rounds: p50 has only 9 beyond it, so no tail is available.
  expect(!tail_percentile(ramp(19)).available(), "19 samples: too short");
  expect(!tail_percentile({}).available(), "empty sample: too short");
  // 20 rounds: p50 (rank 10) leaves exactly 10 beyond; p75 leaves 5.
  const auto t20 = tail_percentile(ramp(20));
  expect(t20.per_mille == 500 && t20.beyond == 10 && near(t20.value, 10.0),
         "20 samples: p50 with 10 beyond");
  // 40 rounds: p75 (rank 30) leaves 10 beyond.
  const auto t40 = tail_percentile(ramp(40));
  expect(t40.per_mille == 750 && t40.beyond == 10 && near(t40.value, 30.0),
         "40 samples: p75");
  // 199 rounds: p95 rank 190 leaves 9, so p90 (rank 180, 19 beyond).
  const auto t199 = tail_percentile(ramp(199));
  expect(t199.per_mille == 900 && t199.beyond == 19 && near(t199.value, 180.0),
         "199 samples: p90");
  // 200 rounds: p95 rank 190 leaves exactly 10.
  const auto t200 = tail_percentile(ramp(200));
  expect(t200.per_mille == 950 && t200.beyond == 10, "200 samples: p95");
  // 10000 rounds: p99.9 rank 9990 leaves 10.
  const auto t10k = tail_percentile(ramp(10000));
  expect(t10k.per_mille == 999 && t10k.beyond == 10 && near(t10k.value, 9990.0),
         "10000 samples: p99.9");
  // A custom minimum.
  expect(tail_percentile(ramp(4), 2).per_mille == 500, "min_beyond 2");
}

void test_fastest_repeat() {
  const auto best = perfbench::fastest_repeat({{5, 9, 7}, {6, 4, 8}, {3, 10}});
  expect(best.size() == 3 && near(best[0], 3) && near(best[1], 4) &&
             near(best[2], 7),
         "fastest repeat per round index");
  expect(perfbench::fastest_repeat({}).empty(), "no episodes");
}

void test_median_repeat() {
  const auto mid = perfbench::median_repeat({{5, 9, 7}, {6, 4, 8}, {3, 10}});
  expect(mid.size() == 3 && near(mid[0], 5) && near(mid[1], 9) &&
             near(mid[2], 7.5),
         "median repeat per round index");
  expect(perfbench::median_repeat({}).empty(), "no episodes");
}

void test_calibrated() {
  using perfbench::calibrated;
  using perfbench::kReferenceMs;
  expect(near(calibrated(40.0, kReferenceMs), 40.0), "reference speed: unscaled");
  expect(near(calibrated(60.0, 1.5 * kReferenceMs), 40.0),
         "half as slow again: scaled back");
  expect(near(calibrated(40.0, 0.0), 40.0), "no reference reading: unscaled");
}

void test_tx_fail_accounting() {
  using cyc::protocol::RoundFlow;
  using cyc::protocol::RoundReport;
  perfbench::TxFailTally tally;

  // Round 1 (open loop): 50 arrivals, 4 refused by a full mempool, 1 lost
  // to a dry pool; 40 listed, 2 of them invalid; 33 settled, 32 reached
  // the block; 5 carried to the next round.
  RoundReport r1;
  r1.open_loop.arrived = 50;
  r1.open_loop.mempool_dropped = 4;
  r1.open_loop.exhausted = 1;
  RoundFlow f1;
  f1.offered = 40;
  f1.dropped = 2;
  f1.settled = 33;
  f1.committed = 32;
  f1.carried = 5;
  tally.add_round(r1, f1, 0);
  expect(tally.attempted == 38 + 5, "round 1 attempted: 38 listed + 5 refused");
  expect(tally.refused == 5 && tally.lost == 1, "round 1 failures");

  // Round 2: the 5 carried re-enter the lists and are not new attempts.
  RoundReport r2;
  RoundFlow f2;
  f2.offered = 45;
  f2.settled = 45;
  f2.committed = 45;
  tally.add_round(r2, f2, 0);
  expect(tally.attempted == 43 + 40, "round 2 counts only fresh entries");

  // Closed-loop shortfall counts as refused; queued backlog as attempted.
  RoundReport r3;
  RoundFlow f3;
  tally.add_round(r3, f3, 3);
  tally.add_queued(7);
  expect(tally.attempted == 83 + 3 + 7, "shortfall and backlog attempted");
  expect(tally.failed() == 5 + 1 + 3, "failed = refused + lost + shortfall");
  expect(near(tally.ratio(), 9.0 / 93.0), "tx_fail_ratio");

  perfbench::TxFailTally empty;
  expect(near(empty.ratio(), 0.0), "empty tally ratio is 0");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped to 100); a grandchild [12,14] counts only for its
  // own parent.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},      {"c", 90, 120, 0, 1},
      {"a.child", 12, 14, 1, 1},
  };
  expect(near(perfbench::self_time_us(spans, 0), 100 - 40 - 10),
         "root self time merges overlaps and clips");
  expect(near(perfbench::self_time_us(spans, 1), 20 - 2), "child self time");
  expect(near(perfbench::self_time_us(spans, 4), 2), "leaf self time");
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_fastest_repeat();
  test_median_repeat();
  test_calibrated();
  test_tx_fail_accounting();
  test_self_time();
  if (g_failed == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failed == 0 ? 0 : 1;
}
