//===- net/cluster.cpp - Deterministic multi-node harness -----------------===//

#include "net/cluster.h"

namespace typecoin {
namespace net {

Cluster::Cluster(bitcoin::ChainParams Params, size_t NumNodes,
                 uint64_t ChaosSeed, NetConfig Base)
    : Clk(std::make_shared<VirtualClock>()),
      Chaos(std::make_shared<ChaosState>(ChaosSeed)) {
  Base.Seed ^= ChaosSeed;
  for (size_t I = 0; I < NumNodes; ++I) {
    auto Inner = Hub.open(addressOf(I));
    auto Wrapped =
        std::make_unique<ChaosTransport>(std::move(Inner), Chaos, *Clk);
    Nodes.push_back(std::make_unique<NetNode>(Params, Base,
                                              std::move(Wrapped), Clk));
  }
  for (size_t I = 0; I < NumNodes; ++I)
    for (size_t J = I + 1; J < NumNodes; ++J)
      (void)Nodes[I]->connectTo(addressOf(J));
  settle();
}

Cluster::~Cluster() = default;

// --- Chaos surface ------------------------------------------------------

void Cluster::setDefaultFault(const FaultPlan &Plan) {
  Chaos->setDefaultFault(Plan);
}

void Cluster::setLinkFault(size_t From, size_t To, const FaultPlan &Plan) {
  Chaos->setLinkFault(addressOf(From), addressOf(To), Plan);
}

void Cluster::clearFaults() {
  Chaos->clearFaults();
  resyncAll();
}

void Cluster::setByzantine(size_t Node, const ByzantinePlan &Plan) {
  Chaos->setByzantine(addressOf(Node), Plan);
}

void Cluster::partitionAt(size_t Boundary) {
  std::set<std::string> GroupA;
  for (size_t I = 0; I < Boundary && I < Nodes.size(); ++I)
    GroupA.insert(addressOf(I));
  Chaos->partition(std::move(GroupA));
}

void Cluster::heal() {
  Chaos->heal();
  reconnectMesh();
  resyncAll();
}

void Cluster::crash(size_t Node) { Nodes[Node]->crash(); }

Status Cluster::restart(size_t Node) {
  TC_TRY(Nodes[Node]->restart());
  reconnectMesh();
  resyncAll();
  return Status::success();
}

// --- Traffic ------------------------------------------------------------

Status Cluster::submitTransaction(size_t Node,
                                  const bitcoin::Transaction &Tx) {
  return Nodes[Node]->submitTransaction(Tx);
}

Result<bitcoin::Block> Cluster::mineAt(size_t Node,
                                       const crypto::KeyId &Payout,
                                       double Now) {
  Clk->advanceTo(Now);
  return Nodes[Node]->mine(Payout, static_cast<uint32_t>(Now));
}

size_t Cluster::settle(size_t MaxRounds) {
  size_t Rounds = 0;
  while (Rounds < MaxRounds) {
    ++Rounds;
    size_t Progress = 0;
    for (auto &N : Nodes)
      Progress += N->pump();
    if (Progress > 0)
      continue;
    // Quiescent now — but jittered frames may still be scheduled.
    auto R = Chaos->nextRelease();
    if (!R)
      break;
    Clk->advanceTo(*R);
  }
  return Rounds;
}

void Cluster::advance(double Seconds) { Clk->advanceBy(Seconds); }

bool Cluster::converged() const {
  std::optional<bitcoin::BlockHash> Tip;
  for (const auto &N : Nodes) {
    if (N->isCrashed())
      continue;
    if (!Tip)
      Tip = N->chain().tipHash();
    else if (!(*Tip == N->chain().tipHash()))
      return false;
  }
  return true;
}

bool Cluster::convergedAmong(const std::vector<size_t> &Among) const {
  std::optional<bitcoin::BlockHash> Tip;
  for (size_t I : Among) {
    if (Nodes[I]->isCrashed())
      continue;
    if (!Tip)
      Tip = Nodes[I]->chain().tipHash();
    else if (!(*Tip == Nodes[I]->chain().tipHash()))
      return false;
  }
  return true;
}

// --- Recovery helpers ---------------------------------------------------

void Cluster::resyncAll() {
  for (auto &N : Nodes)
    N->resync();
}

void Cluster::reconnectMesh() {
  for (size_t I = 0; I < Nodes.size(); ++I) {
    if (Nodes[I]->isCrashed())
      continue;
    for (size_t J = I + 1; J < Nodes.size(); ++J) {
      if (Nodes[J]->isCrashed())
        continue;
      if (Nodes[I]->connectedTo(addressOf(J)) ||
          Nodes[J]->connectedTo(addressOf(I)))
        continue;
      (void)Nodes[I]->connectTo(addressOf(J));
    }
  }
}

} // namespace net
} // namespace typecoin
