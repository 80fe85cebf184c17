// Round role assignment: referee committee, committees with leader /
// partial set / common members (Fig. 1 hierarchy).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/message.hpp"

namespace cyc::protocol {

enum class Role : std::uint8_t {
  kCommon = 0,
  kLeader,
  kPartial,   ///< potential leader (partial-set member)
  kReferee,
};

std::string_view role_name(Role r);

struct CommitteeInfo {
  std::uint32_t id = 0;
  net::NodeId leader = net::kNoNode;
  std::vector<net::NodeId> partial;  ///< C_{i,partial}
  std::vector<net::NodeId> commons;

  /// leader + partial + commons, in that order.
  std::vector<net::NodeId> all_members() const;
  /// leader + partial.
  std::vector<net::NodeId> key_members() const;
  std::size_t size() const { return 1 + partial.size() + commons.size(); }
  bool contains(net::NodeId node) const;
};

struct RoundAssignment {
  std::uint64_t round = 0;
  std::vector<net::NodeId> referees;
  std::vector<CommitteeInfo> committees;
};

}  // namespace cyc::protocol
