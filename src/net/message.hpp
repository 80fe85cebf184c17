// Typed messages for the discrete-event simulator.
//
// Tags cover every message class of §IV (Algorithms 2–6) plus block
// propagation. Payloads are canonical serde encodings produced by the
// protocol layer; the simulator treats them as opaque bytes and accounts
// their size.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "support/bytes.hpp"

namespace cyc::net {

using NodeId = std::uint32_t;
using Time = double;

inline constexpr NodeId kNoNode = ~static_cast<NodeId>(0);

/// Message classes; names follow the paper's tags where it has them.
enum class Tag : std::uint16_t {
  // Committee configuration (Alg. 2)
  kConfig,        // CONFIG: <PK, address>, hash, pi
  kMemberList,    // MEM_LIST: key member's current list
  kMember,        // MEMBER: introduction to peers on the list
  // Inside-committee consensus (Alg. 3)
  kPropose,       // PROPOSE: r, sn, H(M), M
  kEcho,          // ECHO: r, sn, H(M), i  (plus relayed PROPOSE)
  kConfirm,       // CONFIRM: r, sn, H(M), i (plus EchoList)
  kAbort,         // honest node announcing leader equivocation
  // Semi-commitment exchange (Alg. 4)
  kSemiCommit,    // SEMI_COM to referees / partial set
  kSemiCommitAck, // referee relay of accepted semi-commitments
  // Intra-committee consensus (Alg. 5)
  kTxList,        // TX_LIST: r, SIG_l<TXList>
  kVote,          // VOTE: r, SIG_i<VList_i>
  kIntraResult,   // INTRA: r, TXdecSET, VList -> referee
  // Inter-committee consensus
  kCrossTxList,   // consensus'd TXList_{i,j} + member list -> l_j
  kCrossResult,   // C_j's decision back to l_i
  kCrossPartialHint,  // partial-set copy used by the 2-Gamma rule (Lemma 7)
  // Reputation
  kScoreList,     // ScoreList + VList for consensus
  kScoreReport,   // agreed ScoreList -> referee
  // Recovery (Alg. 6)
  kAccuse,        // witness broadcast to committee
  kImpeachVote,   // member vote on the impeachment
  kProsecute,     // witness + Cert -> referee
  kNewLeader,     // NEW: referee announces replacement
  // Selection & block (§IV-F/G)
  kPowSolution,   // participant registration
  kBlock,         // block B^r propagation
  kUtxoHandoff,   // final UTXO / remaining-tx lists -> new partial sets
  kBeaconShare,   // PVSS beacon traffic within C_R
  // §VIII extensions
  kPreCommQuery,  // VIII-A: l_i asks l_j which candidate txs are valid
  kPreCommReply,  // VIII-A: l_j's preference
  kBlockPermit,   // VIII-B: referee permission for a leader sub-block
  kSubBlock,      // VIII-B: leader-broadcast sub-block
  // Crash-recovery catch-up (restarted node replays honest state)
  kCatchUpRequest,  // restarted node asks referees for the shard state
  kCatchUpReply,    // referee's signed state snapshot digest + payload
};

/// Number of message classes (for per-tag counter arrays).
inline constexpr std::size_t kTagCount =
    static_cast<std::size_t>(Tag::kCatchUpReply) + 1;

std::string_view tag_name(Tag tag);

/// A payload on the wire: the bytes plus one decoded view of them.
///
/// A logical broadcast materialises its payload once and every queued
/// copy / delivered Message aliases the same object; the simulator and
/// all receivers treat the bytes as read-only. The first receiver that
/// decodes the payload fills its view, and every later receiver reads
/// that view instead of decoding again. The protocol's views also carry
/// lazily filled signature verdicts (src/protocol/README.md, "Execution
/// model"). The view lives inside the payload, so it dies with the last
/// Message or PayloadPtr that holds it. Payloads never cross threads:
/// each one belongs to the single-threaded engine that made it.
class Payload {
 public:
  explicit Payload(Bytes bytes) : bytes_(std::move(bytes)) {}

  const Bytes& bytes() const { return bytes_; }

  /// The payload decoded as `T`. The first call runs `decode(bytes())`
  /// and keeps the result; later calls return the kept object. A decode
  /// that throws keeps nothing, so every later call throws again. One
  /// payload has one view type: asking for a second type is a program
  /// error and throws std::logic_error.
  template <class T, class Decode>
  const T& view(Decode&& decode) const {
    if (const T* held = std::any_cast<T>(&view_)) return *held;
    if (view_.has_value()) {
      throw std::logic_error("payload already decoded as another type");
    }
    count_decode();
    return view_.emplace<T>(decode(BytesView(bytes_)));
  }

 private:
  static void count_decode();

  Bytes bytes_;
  mutable std::any view_;
};

/// Shared, immutable payload (see Payload).
using PayloadPtr = std::shared_ptr<const Payload>;

/// Wrap a byte string into a shared payload. This is the single choke
/// point where payload memory is allocated; the counters below make the
/// zero-copy invariant ("one allocation per logical broadcast") and the
/// decode-once invariant ("one decode per payload") testable. Counters
/// are thread-local so concurrent sweep workers (one Engine per thread)
/// account independently. They are cumulative: read deltas.
PayloadPtr make_payload(Bytes b);

/// Payloads allocated on this thread.
std::uint64_t payload_allocations();
/// Total payload bytes allocated on this thread.
std::uint64_t payload_bytes_allocated();
/// Payload views decoded on this thread (Payload::view runs of `decode`,
/// thrown ones included). Wall-clock-free but kept out of every compared
/// artifact: it reads the simulator's cost, not the protocol's.
std::uint64_t payload_decodes();

struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Tag tag = Tag::kConfig;
  PayloadPtr body;  ///< shared with every other copy of this broadcast

  /// Read-only view of the payload (empty if no body was attached).
  const Bytes& payload() const;

  /// Wire size used for byte accounting: payload plus a fixed header.
  std::size_t wire_size() const { return payload().size() + 16; }
};

}  // namespace cyc::net
