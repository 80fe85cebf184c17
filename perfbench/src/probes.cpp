#include "probes.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Results feed this sink so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

double elapsed_ns(Clock::time_point from) {
  return std::chrono::duration<double, std::nano>(Clock::now() - from).count();
}

}  // namespace

double verify_us(const cyc::ledger::Transaction& tx) {
  constexpr int kReps = 32;
  const cyc::Bytes body = tx.body_bytes();
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    g_sink = g_sink + cyc::crypto::verify(tx.spender, body, tx.sig);
  }
  return elapsed_ns(t0) / 1000.0 / kReps;
}

double sign_us(const cyc::ledger::Transaction& tx,
               const cyc::crypto::KeyPair& keys) {
  constexpr int kReps = 32;
  const cyc::Bytes body = tx.body_bytes();
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    g_sink = g_sink + cyc::crypto::sign(keys.sk, body).s;
  }
  return elapsed_ns(t0) / 1000.0 / kReps;
}

double sha256_ns_per_block(const cyc::Bytes& data) {
  constexpr int kReps = 64;
  const double blocks = static_cast<double>((data.size() + 9 + 63) / 64);
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    g_sink = g_sink + cyc::crypto::sha256(data)[0];
  }
  return elapsed_ns(t0) / (kReps * blocks);
}

double utxo_copy_us(const cyc::ledger::UtxoStore& store) {
  constexpr int kReps = 8;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    const cyc::ledger::UtxoStore copy = store;
    g_sink = g_sink + copy.size();
  }
  return elapsed_ns(t0) / 1000.0 / kReps;
}

double block_apply_us(std::vector<cyc::ledger::UtxoStore> pre,
                      const cyc::ledger::Block& block,
                      const std::vector<cyc::ledger::UtxoStore>& post,
                      bool& matches) {
  const auto t0 = Clock::now();
  for (auto& store : pre) {
    for (const auto& tx : block.txs) store.apply(tx);
  }
  const double us = elapsed_ns(t0) / 1000.0;
  matches = pre.size() == post.size();
  for (std::size_t k = 0; matches && k < pre.size(); ++k) {
    matches = pre[k].digest() == post[k].digest();
  }
  return us;
}

double shard_lookup_ns(const cyc::ledger::ShardMap& map,
                       const cyc::ledger::WorkloadGenerator& workload) {
  const std::size_t users = workload.config().users;
  std::vector<std::uint64_t> accounts(users);
  for (std::size_t u = 0; u < users; ++u) accounts[u] = workload.user_pk(u).y;
  const std::size_t reps = users == 0 ? 0 : 1 + 4096 / users;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::uint64_t a : accounts) acc += map.shard_key(a);
  }
  const double ns = elapsed_ns(t0);
  g_sink = g_sink + acc;
  return reps == 0 ? 0.0 : ns / static_cast<double>(reps * users);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
