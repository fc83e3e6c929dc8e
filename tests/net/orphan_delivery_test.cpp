//===- tests/net/orphan_delivery_test.cpp - Child before parent -----------===//
//
// Out-of-order block delivery over the wire: a child that arrives ahead
// of its parent waits in the orphan pool and connects once the parent
// turns up by another route.
//
//===----------------------------------------------------------------------===//

#include "chaosnet.h"

#include "obs/metrics.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;
using namespace typecoin::chaosutil;

namespace {

TEST(Network, OutOfOrderDeliveryViaOrphans) {
  // Two blocks mined back-to-back at node 0. Node 1 loses the parent's
  // direct announcement, so the child reaches it first; the parent
  // follows the long way round, through node 2's relay, and node 1 must
  // hold the child as an orphan until then.
  Cluster C(testParams(), 3, 3, quietTimers());
  auto Miner = keyFromSeed(3);
  auto Snap0 = obs::Registry::instance().snapshot();

  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setLinkFault(0, 1, DropAll);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.node(1).pump(); // Node 1 reads (and loses) the parent's announcement.
  C.setLinkFault(0, 1, FaultPlan());
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200).hasValue());
  C.settle();

  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(2).height(), 2);
  EXPECT_EQ(C.chain(1).height(), 2);
  EXPECT_EQ(C.node(1).orphanCount(), 0u);
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GE(Snap1.counter("net.orphan.added") -
                Snap0.counter("net.orphan.added"),
            1u);
}

} // namespace
