// Thread-pool sweep runner for Monte-Carlo / parameter sweeps.
//
// The discrete-event simulator and the protocol Engine are single-
// threaded and deterministic per seed (§III-B contract, see
// net/simnet.hpp); the only parallelism is the *sweep*: independent
// Engine instances, one per parameter point or seed. parallel_sweep
// runs job(i) for i in [0, n) across a pool of worker threads and
// collects the results in index order, so the output is byte-identical
// to the sequential loop no matter how the scheduler interleaves the
// workers.
//
// Each job runs entirely on one worker thread; thread_local accounting
// (payload allocation counters, the signature-verdict cache) therefore
// stays coherent within a job as long as per-job deltas are measured
// inside the job itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cyc::support {

/// Worker count: `requested` if nonzero, else the hardware concurrency
/// (at least 1).
inline unsigned sweep_threads(unsigned requested = 0) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Run `job(i)` for every i in [0, n) on up to `threads` workers and
/// return the results in index order. Jobs must be independent — they
/// must not share mutable state (each should own its Engine / rng).
/// Exceptions thrown by a job propagate to the caller after all workers
/// have drained.
template <typename Job>
auto parallel_sweep(std::size_t n, Job&& job, unsigned threads = 0)
    -> std::vector<std::invoke_result_t<Job&, std::size_t>> {
  using Result = std::invoke_result_t<Job&, std::size_t>;
  // std::vector<bool> packs results as bits, so concurrent writes to
  // results[i] would race on shared bytes. Return a struct or int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "parallel_sweep cannot return bool (vector<bool> bit-packing "
                "races across workers); wrap the flag in a struct or use int");
  std::vector<Result> results(n);
  if (n == 0) return results;

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(sweep_threads(threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = job(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        results[i] = job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace cyc::support
