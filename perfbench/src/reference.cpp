#include "reference.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_ms() {
  const auto t0 = Clock::now();
  // Hash-table churn: 20,000 inserts then as many lookups.
  std::uint64_t sum = 0;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t i = 0; i < 20000; ++i) table[i * 2654435761u] = i;
    for (std::uint64_t i = 0; i < 20000; ++i) sum += table.count(i * 2654435761u);
  }
  // Ordered-map churn with small heap-allocated values, keyed by a fixed
  // xorshift sequence.
  {
    std::map<std::uint64_t, std::vector<std::uint8_t>> tree;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      tree[x % 100000].assign(40, static_cast<std::uint8_t>(i));
    }
    for (const auto& [key, value] : tree) sum += key + value[0];
  }
  g_sink = g_sink + sum;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace perfbench
