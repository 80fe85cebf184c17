// Algorithm 3 sequence-number layout: every instance a round can start
// gets its own sn within its scope, and on_cert's decoder maps it back.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "protocol/sn_layout.hpp"

namespace cyc::protocol {
namespace {

constexpr std::uint32_t kMaxM = 64;

struct KindDomain {
  SnKind kind;
  bool referee;
  bool indexed;    ///< keyed by a committee index
  bool attempted;  ///< restarted by recovery (attempt slots)
};

constexpr KindDomain kKinds[] = {
    {SnKind::kIntra, false, false, true},
    {SnKind::kScore, false, false, true},
    {SnKind::kUtxo, false, false, true},
    {SnKind::kCrossOut, false, true, true},
    {SnKind::kCrossIn, false, true, true},
    {SnKind::kBlock, true, false, false},
    {SnKind::kSemiCheck, true, true, false},
    {SnKind::kReselect, true, true, true},
};

TEST(SnLayout, EveryInstanceHasADistinctSnThatDecodesBack) {
  for (std::uint32_t m = 1; m <= kMaxM; ++m) {
    // sn -> the slot that claimed it, per scope (false: committee scope).
    std::map<bool, std::map<std::uint64_t, SnSlot>> taken;
    for (const KindDomain& d : kKinds) {
      const std::uint32_t indices = d.indexed ? m : 1;
      const std::uint32_t attempts = d.attempted ? kMaxSnAttempt + 1 : 1;
      for (std::uint32_t index = 0; index < indices; ++index) {
        for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
          const SnSlot slot{d.kind, index, attempt};
          const std::uint64_t sn = sn_encode(d.kind, index, attempt);
          const auto [it, fresh] = taken[d.referee].emplace(sn, slot);
          ASSERT_TRUE(fresh)
              << "m=" << m << " sn " << sn << " claimed twice (kinds "
              << static_cast<int>(it->second.kind) << " and "
              << static_cast<int>(d.kind) << ")";
          EXPECT_EQ(sn_decode(sn, d.referee), slot)
              << "m=" << m << " kind " << static_cast<int>(d.kind)
              << " index " << index << " attempt " << attempt;
        }
      }
    }
  }
}

TEST(SnLayout, ScopesDecodeIndependently) {
  // The same number means different instances in the two scopes.
  const std::uint64_t sn = sn_encode(SnKind::kSemiCheck, 3, 0);
  EXPECT_EQ(sn_decode(sn, /*referee_scope=*/true).kind, SnKind::kSemiCheck);
  EXPECT_EQ(sn_decode(sn, /*referee_scope=*/false).kind, SnKind::kCrossOut);
  EXPECT_EQ(sn_decode(0, false).kind, SnKind::kNone);
  EXPECT_EQ(sn_decode(0, true).kind, SnKind::kNone);
}

TEST(SnLayout, AttemptPastTheSlotsAliasesTheNextIndex) {
  // Why EngineOptions::max_recoveries_per_committee is capped at
  // kMaxSnAttempt: one more attempt lands on the next committee's slot.
  EXPECT_EQ(sn_encode(SnKind::kCrossOut, 0, kSnAttempts),
            sn_encode(SnKind::kCrossOut, 1, 0));
}

}  // namespace
}  // namespace cyc::protocol
