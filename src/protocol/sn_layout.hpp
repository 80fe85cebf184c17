// Algorithm 3 sequence-number (sn) layout. An instance is keyed by
// (scope, sn), the scope being a committee k < m or the referee scope m.
// One table gives each kind its sn range in its scope; sn_encode
// (instance start) and sn_decode (Engine::on_cert's dispatch) both read
// it. Kinds that recovery restarts get kSnAttempts slots per index, so a
// replacement leader's instances never reuse an sn.
#pragma once

#include <cstdint>
#include <limits>

namespace cyc::protocol {

/// Attempts run 0..kMaxSnAttempt, which bounds
/// EngineOptions::max_recoveries_per_committee.
inline constexpr std::uint32_t kSnAttempts = 16;
inline constexpr std::uint32_t kMaxSnAttempt = kSnAttempts - 1;

enum class SnKind : std::uint8_t {
  kNone,
  // Committee scope: intra decision (Alg. 5), ScoreList (§IV-E), final
  // UTXO digest (§IV-G), cross list to committee `index`, acceptance of
  // committee `index`'s cross list (§IV-D).
  kIntra, kScore, kUtxo, kCrossOut, kCrossIn,
  // Referee scope: block B^r, committee `index`'s semi-commitment
  // (Alg. 4), leader re-selection in committee `index` (Alg. 6).
  kBlock, kSemiCheck, kReselect,
};

/// A decoded sn. `index` is 0 for kinds keyed by attempt alone, and
/// `attempt` is 0 for kinds a recovery never restarts.
struct SnSlot {
  SnKind kind = SnKind::kNone;
  std::uint32_t index = 0;
  std::uint32_t attempt = 0;
  bool operator==(const SnSlot&) const = default;
};

/// [base, end) of one kind. The offset sn - base splits by `stride`:
/// 0 = attempt only, 1 = index only, else index * stride + attempt.
struct SnRange {
  SnKind kind;
  bool referee;
  std::uint64_t base, end, stride;
};
inline constexpr SnRange kSnLayout[] = {
    {SnKind::kIntra, false, 100, 150, 0},
    {SnKind::kScore, false, 150, 180, 0},
    {SnKind::kUtxo, false, 180, 200, 0},
    {SnKind::kCrossOut, false, 1000, 100000, kSnAttempts},
    {SnKind::kCrossIn, false, 100000,
     std::numeric_limits<std::uint64_t>::max(), kSnAttempts},
    {SnKind::kBlock, true, 1, 2, 0},
    {SnKind::kSemiCheck, true, 1000, 5000, 1},
    {SnKind::kReselect, true, 5000, 100000, kSnAttempts},
};

constexpr std::uint64_t sn_encode(SnKind kind, std::uint32_t index,
                                  std::uint32_t attempt) {
  for (const SnRange& r : kSnLayout) {
    if (r.kind == kind) return r.base + index * r.stride + attempt;
  }
  return 0;
}

constexpr SnSlot sn_decode(std::uint64_t sn, bool referee_scope) {
  for (const SnRange& r : kSnLayout) {
    if (r.referee != referee_scope || sn < r.base || sn >= r.end) continue;
    const std::uint64_t off = sn - r.base;
    if (r.stride == 0) return {r.kind, 0, static_cast<std::uint32_t>(off)};
    return {r.kind, static_cast<std::uint32_t>(off / r.stride),
            static_cast<std::uint32_t>(off % r.stride)};
  }
  return {};
}

}  // namespace cyc::protocol
