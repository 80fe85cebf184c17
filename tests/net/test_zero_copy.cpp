// Zero-copy invariants of the message fabric: one payload allocation per
// logical broadcast, and every delivered Message aliasing the same
// immutable buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/simnet.hpp"

namespace cyc::net {
namespace {

SimNet make_net(std::size_t nodes) {
  return SimNet(nodes, DelayModel{}, rng::Stream(7));
}

TEST(ZeroCopy, MulticastAllocatesExactlyOnce) {
  SimNet net = make_net(16);
  std::vector<NodeId> receivers;
  for (NodeId id = 1; id < 16; ++id) receivers.push_back(id);

  const std::uint64_t allocs_before = payload_allocations();
  const std::uint64_t bytes_before = payload_bytes_allocated();
  net.multicast(0, receivers, Tag::kConfig, Bytes(100, 0xab));
  EXPECT_EQ(payload_allocations() - allocs_before, 1u);
  EXPECT_EQ(payload_bytes_allocated() - bytes_before, 100u);
}

TEST(ZeroCopy, MulticastDeliveriesAliasOneBuffer) {
  SimNet net = make_net(8);
  std::vector<NodeId> receivers = {1, 2, 3, 4, 5, 6, 7};
  std::vector<PayloadPtr> seen;  // keeps the buffers alive past run()
  for (NodeId id : receivers) {
    net.set_handler(id, [&](const Message& msg, Time) {
      seen.push_back(msg.body);
    });
  }
  const Bytes payload = {1, 2, 3, 4};
  net.multicast(0, receivers, Tag::kConfig, payload);
  net.run();
  ASSERT_EQ(seen.size(), receivers.size());
  for (const PayloadPtr& p : seen) {
    EXPECT_EQ(p.get(), seen.front().get()) << "deliveries must alias one buffer";
    EXPECT_EQ(p->bytes(), payload) << "and the content must be intact";
  }
}

TEST(ZeroCopy, SendSharedReusesBufferAcrossSends) {
  SimNet net = make_net(4);
  int delivered = 0;
  const Bytes content(64, 0x5a);
  for (NodeId id = 1; id < 4; ++id) {
    net.set_handler(id, [&](const Message& msg, Time) {
      EXPECT_EQ(msg.payload(), content);
      ++delivered;
    });
  }
  const std::uint64_t allocs_before = payload_allocations();
  const PayloadPtr shared = make_payload(content);
  for (NodeId id = 1; id < 4; ++id) {
    net.send_shared(0, id, Tag::kBlock, shared);
  }
  net.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(payload_allocations() - allocs_before, 1u);
}

TEST(ZeroCopy, SenderSideMutationCannotReachReceivers) {
  // The shared buffer is const; a sender that wants a new payload must
  // materialise a new buffer, so queued messages are immutable.
  SimNet net = make_net(2);
  Bytes original = {9, 9, 9};
  Bytes received;
  net.set_handler(1, [&](const Message& msg, Time) {
    received = msg.payload();
  });
  net.send(0, 1, Tag::kConfig, original);
  original.assign({1, 1, 1});  // sender reuses its local buffer afterwards
  net.run();
  EXPECT_EQ(received, Bytes({9, 9, 9}));
}

TEST(ZeroCopy, EmptyPayloadMessageHasEmptyView) {
  Message msg;
  EXPECT_TRUE(msg.payload().empty());
  EXPECT_EQ(msg.wire_size(), 16u);
}

TEST(ZeroCopy, MulticastToNobodyDeliversNothing) {
  SimNet net = make_net(4);
  int delivered = 0;
  for (NodeId id = 0; id < 4; ++id) {
    net.set_handler(id, [&](const Message&, Time) { ++delivered; });
  }
  const std::uint64_t allocs_before = payload_allocations();
  net.multicast(0, {}, Tag::kConfig, Bytes(32, 0x11));
  net.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.stats().grand_total().msgs_sent, 0u);
  // The payload is still materialised exactly once (the shared-buffer
  // contract does not depend on the recipient count).
  EXPECT_EQ(payload_allocations() - allocs_before, 1u);
}

TEST(ZeroCopy, SenderInRecipientListNeverSelfDelivers) {
  // The pseudocode's BROADCAST includes the sender in the member list;
  // the fabric must skip the self-channel rather than loop the message
  // back (a node already knows what it sent).
  SimNet net = make_net(4);
  std::vector<NodeId> deliveries;
  for (NodeId id = 0; id < 4; ++id) {
    net.set_handler(id, [&, id](const Message&, Time) {
      deliveries.push_back(id);
    });
  }
  std::vector<NodeId> everyone = {0, 1, 2, 3};  // sender 0 included
  net.multicast(0, everyone, Tag::kTxList, Bytes(16, 0x22));
  net.run();
  std::sort(deliveries.begin(), deliveries.end());
  EXPECT_EQ(deliveries, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(net.stats().grand_total().msgs_sent, 3u);
}

TEST(ZeroCopy, RecoveryRedoReusesTheSharedPayload) {
  // Leader re-selection redoes leader duties mid-round: the same logical
  // payload is multicast again (possibly several times, once per
  // recovery attempt). Re-broadcasting an already-shared buffer must not
  // allocate again — only the initial materialisation counts.
  SimNet net = make_net(8);
  std::vector<NodeId> members = {1, 2, 3, 4, 5, 6, 7};
  int delivered = 0;
  for (NodeId id : members) {
    net.set_handler(id, [&](const Message&, Time) { ++delivered; });
  }
  const std::uint64_t allocs_before = payload_allocations();
  const std::uint64_t bytes_before = payload_bytes_allocated();
  const PayloadPtr payload = make_payload(Bytes(200, 0x33));
  net.multicast_shared(0, members, Tag::kTxList, payload);   // original
  net.multicast_shared(0, members, Tag::kTxList, payload);   // redo 1
  net.multicast_shared(0, members, Tag::kTxList, payload);   // redo 2
  net.run();
  EXPECT_EQ(delivered, 21);
  EXPECT_EQ(payload_allocations() - allocs_before, 1u);
  EXPECT_EQ(payload_bytes_allocated() - bytes_before, 200u);
}

}  // namespace
}  // namespace cyc::net
