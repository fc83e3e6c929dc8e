//===- tests/net/transport_test.cpp - Loopback + chaos transports ---------===//
//
// The transport seam: loopback connect/accept, FIFO frame delivery,
// close semantics, and the chaos wrapper's deterministic drop /
// duplicate / jitter / partition behaviour over it.
//
//===----------------------------------------------------------------------===//

#include "net/fault.h"
#include "net/transport.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;

namespace {

Bytes frame(std::initializer_list<uint8_t> B) { return Bytes(B); }

TEST(NetTransport, ConnectAcceptAndFifoDelivery) {
  LoopbackHub Hub;
  auto TA = Hub.open("a");
  auto TB = Hub.open("b");

  auto CR = TA->connect("b");
  ASSERT_TRUE(CR.hasValue());
  auto A = *CR;
  auto B = TB->accept();
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->peerAddress(), "b");
  EXPECT_EQ(B->peerAddress(), "a");

  ASSERT_TRUE(A->send(frame({1})).hasValue());
  ASSERT_TRUE(A->send(frame({2, 2})).hasValue());
  EXPECT_EQ(Hub.inFlightFrames(), 2u);

  auto F1 = B->receive();
  auto F2 = B->receive();
  ASSERT_TRUE(F1 && F2);
  EXPECT_EQ(*F1, frame({1}));
  EXPECT_EQ(*F2, frame({2, 2}));
  EXPECT_FALSE(B->receive().has_value());
  EXPECT_EQ(Hub.inFlightFrames(), 0u);

  // Bidirectional.
  ASSERT_TRUE(B->send(frame({3})).hasValue());
  auto F3 = A->receive();
  ASSERT_TRUE(F3);
  EXPECT_EQ(*F3, frame({3}));
}

TEST(NetTransport, ConnectToUnknownAddressFails) {
  LoopbackHub Hub;
  auto TA = Hub.open("a");
  EXPECT_FALSE(TA->connect("nobody").hasValue());
}

TEST(NetTransport, CloseStopsTraffic) {
  LoopbackHub Hub;
  auto TA = Hub.open("a");
  auto TB = Hub.open("b");
  auto A = *TA->connect("b");
  auto B = TB->accept();
  ASSERT_NE(B, nullptr);

  A->close();
  EXPECT_FALSE(A->isOpen());
  EXPECT_FALSE(B->isOpen());
  EXPECT_FALSE(A->send(frame({1})).hasValue());
  EXPECT_FALSE(B->send(frame({1})).hasValue());
  // A closed connection reports readable so service loops wake up and
  // observe the closure — but there is nothing left to receive.
  EXPECT_TRUE(B->waitReadable(0.0));
  EXPECT_FALSE(B->receive().has_value());
}

TEST(NetTransport, WaitReadableSeesQueuedFrame) {
  LoopbackHub Hub;
  auto TA = Hub.open("a");
  auto TB = Hub.open("b");
  auto A = *TA->connect("b");
  auto B = TB->accept();
  ASSERT_NE(B, nullptr);
  EXPECT_FALSE(B->waitReadable(0.0));
  ASSERT_TRUE(A->send(frame({9})).hasValue());
  EXPECT_TRUE(B->waitReadable(0.0));
}

TEST(NetTransport, DestroyEndpointWithPendingInboundDialDoesNotDeadlock) {
  LoopbackHub Hub;
  auto TA = Hub.open("a");
  std::shared_ptr<Connection> A;
  {
    auto TB = Hub.open("b");
    auto CR = TA->connect("b");
    ASSERT_TRUE(CR.hasValue());
    A = *CR;
    // TB dies with the inbound half still sitting un-accepted in its
    // queue; its destructor must not re-take the hub lock it holds.
  }
  EXPECT_FALSE(A->isOpen()); // The pending half closed the link.
}

/// Deliver N frames over a chaos link; return which arrived (by tag).
std::vector<uint8_t> chaosDeliver(uint64_t Seed, const FaultPlan &Plan,
                                  int N) {
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  auto Chaos = std::make_shared<ChaosState>(Seed);
  Chaos->setDefaultFault(Plan);
  ChaosTransport TA(Hub.open("a"), Chaos, *Clk);
  ChaosTransport TB(Hub.open("b"), Chaos, *Clk);

  auto A = *TA.connect("b");
  auto B = TB.accept();
  EXPECT_NE(B, nullptr);
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(A->send(frame({static_cast<uint8_t>(I)})).hasValue());

  std::vector<uint8_t> Got;
  for (;;) {
    while (auto F = B->receive())
      Got.push_back((*F)[0]);
    auto R = Chaos->nextRelease();
    if (!R)
      break;
    Clk->advanceTo(*R);
  }
  return Got;
}

TEST(NetTransport, ChaosDropIsDeterministicPerSeed) {
  FaultPlan Plan;
  Plan.Drop = 0.4;
  auto A = chaosDeliver(42, Plan, 50);
  auto B = chaosDeliver(42, Plan, 50);
  EXPECT_EQ(A, B);          // Same seed, same drops.
  EXPECT_LT(A.size(), 50u); // Some frames actually dropped.
  auto C = chaosDeliver(43, Plan, 50);
  EXPECT_NE(A, C); // Different seed draws different faults.
}

TEST(NetTransport, ChaosDuplicateDeliversTwice) {
  FaultPlan Plan;
  Plan.Duplicate = 1.0;
  auto Got = chaosDeliver(1, Plan, 5);
  EXPECT_EQ(Got.size(), 10u);
  for (int I = 0; I < 5; ++I) {
    EXPECT_EQ(Got[2 * I], I);
    EXPECT_EQ(Got[2 * I + 1], I);
  }
}

TEST(NetTransport, ChaosJitterReordersButLosesNothing) {
  FaultPlan Plan;
  Plan.JitterSeconds = 100.0;
  auto Got = chaosDeliver(7, Plan, 30);
  ASSERT_EQ(Got.size(), 30u);
  std::vector<uint8_t> Sorted = Got;
  std::sort(Sorted.begin(), Sorted.end());
  for (int I = 0; I < 30; ++I)
    EXPECT_EQ(Sorted[I], I); // Nothing lost, nothing invented.
  EXPECT_NE(Got, Sorted);    // And genuinely reordered.
}

TEST(NetTransport, PartitionCutsLinksThenHeals) {
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  auto Chaos = std::make_shared<ChaosState>(0);
  ChaosTransport TA(Hub.open("a"), Chaos, *Clk);
  ChaosTransport TB(Hub.open("b"), Chaos, *Clk);
  auto A = *TA.connect("b");
  auto B = TB.accept();
  ASSERT_NE(B, nullptr);

  Chaos->partition({"a"});
  ASSERT_TRUE(A->send(frame({1})).hasValue());
  EXPECT_FALSE(B->receive().has_value()); // Dropped at the cut.

  Chaos->heal();
  ASSERT_TRUE(A->send(frame({2})).hasValue());
  auto F = B->receive();
  ASSERT_TRUE(F);
  EXPECT_EQ((*F)[0], 2); // Post-heal traffic flows (1 is gone forever).
}

} // namespace
