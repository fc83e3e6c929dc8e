//===- net/cluster.cpp - Deterministic multi-node harness -----------------===//

#include "net/cluster.h"

#include "obs/metrics.h"

namespace typecoin {
namespace net {

Cluster::Cluster(bitcoin::ChainParams ParamsIn, size_t NumNodes,
                 uint64_t ChaosSeed, NetConfig BaseIn)
    : Params(std::move(ParamsIn)), Base(std::move(BaseIn)),
      Clk(std::make_shared<VirtualClock>()),
      Chaos(std::make_shared<ChaosState>(ChaosSeed)), Disks(NumNodes),
      Nodes(NumNodes) {
  Base.Seed ^= ChaosSeed;
  for (size_t I = 0; I < NumNodes; ++I)
    (void)boot(I); // An empty in-memory disk always opens.
  for (size_t I = 0; I < NumNodes; ++I)
    for (size_t J = I + 1; J < NumNodes; ++J)
      (void)Nodes[I]->connectTo(addressOf(J));
  settle();
}

Cluster::~Cluster() = default;

Status Cluster::boot(size_t I) {
  auto Trans =
      std::make_unique<ChaosTransport>(Hub.open(addressOf(I)), Chaos, *Clk);
  Nodes[I] = std::make_unique<NetNode>(Params, Base, std::move(Trans), Clk);
  TC_TRY(Nodes[I]->typecoin().openStore(Disks[I], "store"));
  return Status::success();
}

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

void Cluster::crash(size_t Node) {
  static obs::Counter &Crashes = obs::counter("net.crash.count");
  Crashes.inc();
  Nodes[Node].reset();
  Disks[Node].crash();
}

Status Cluster::restart(size_t Node) {
  if (Nodes[Node])
    return Status::success();
  static obs::Counter &Restarts = obs::counter("net.restart.count");
  Restarts.inc();
  TC_TRY(boot(Node));
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
      if (N)
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
    if (!N)
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
    if (!Nodes[I])
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
    if (N)
      N->resync();
}

void Cluster::reconnectMesh() {
  for (size_t I = 0; I < Nodes.size(); ++I) {
    if (!Nodes[I])
      continue;
    for (size_t J = I + 1; J < Nodes.size(); ++J) {
      if (!Nodes[J])
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
