//===- net/fault.cpp - Chaos plans as a transport wrapper -----------------===//

#include "net/fault.h"

#include "bitcoin/miner.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "support/rng.h"

#include <queue>

namespace typecoin {
namespace net {

// --- Plans and byzantine primitives -------------------------------------

std::string FaultPlan::describe() const {
  if (isClean())
    return "clean";
  return "drop=" + std::to_string(Drop) +
         " dup=" + std::to_string(Duplicate) +
         " jitter=" + std::to_string(JitterSeconds) + "s";
}

std::string ByzantinePlan::describe() const {
  return "invalid-block=" + std::to_string(InvalidBlock) +
         " malleate-relay=" + std::to_string(MalleateRelay);
}

std::optional<bitcoin::Transaction>
malleateTxSignatures(const bitcoin::Transaction &Tx) {
  const crypto::Secp256k1 &Curve = crypto::Secp256k1::instance();
  bitcoin::Transaction Out = Tx;
  bool Malleated = false;
  for (bitcoin::TxIn &In : Out.Inputs) {
    auto Elements = In.ScriptSig.decode();
    if (!Elements)
      continue;
    bool Changed = false;
    bitcoin::Script Rebuilt;
    for (const bitcoin::Script::Element &E : *Elements) {
      if (!E.IsPush || E.Push.size() < 9) {
        if (E.IsPush)
          Rebuilt.push(E.Push);
        else
          Rebuilt.op(static_cast<bitcoin::Opcode>(E.Op));
        continue;
      }
      // A signature push is strict-DER followed by one sighash byte.
      Bytes Der(E.Push.begin(), E.Push.end() - 1);
      uint8_t SighashType = E.Push.back();
      auto Sig = crypto::Signature::fromDER(Der);
      if (!Sig) {
        Rebuilt.push(E.Push);
        continue;
      }
      // The malleation of Andrychowicz et al.: (r, s) -> (r, n - s)
      // verifies identically but serializes differently, changing the
      // txid without touching what the signature commits to.
      Sig->S = Curve.scalar().neg(Sig->S);
      Bytes Twisted = Sig->toDER();
      Twisted.push_back(SighashType);
      Rebuilt.push(Twisted);
      Changed = true;
    }
    if (Changed) {
      In.ScriptSig = Rebuilt;
      Malleated = true;
    }
  }
  if (!Malleated)
    return std::nullopt;
  return Out;
}

bitcoin::Block byzantineCorruptBlock(bitcoin::Block B) {
  B.Header.MerkleRoot[0] ^= 0xff;
  B.Header.Nonce = 0;
  bitcoin::mineBlock(B);
  return B;
}

// --- ChaosState ---------------------------------------------------------

void ChaosState::setDefaultFault(const FaultPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mu);
  Default = Plan;
}

void ChaosState::setLinkFault(const std::string &From, const std::string &To,
                              const FaultPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mu);
  Links[{From, To}] = Plan;
}

void ChaosState::clearFaults() {
  std::lock_guard<std::mutex> Lock(Mu);
  Default = FaultPlan();
  Links.clear();
}

void ChaosState::setByzantine(const std::string &Addr,
                              const ByzantinePlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mu);
  Byzantine[Addr] = Plan;
}

void ChaosState::partition(std::set<std::string> GroupA) {
  std::lock_guard<std::mutex> Lock(Mu);
  PartitionA = std::move(GroupA);
}

void ChaosState::heal() {
  std::lock_guard<std::mutex> Lock(Mu);
  PartitionA.reset();
}

FaultPlan ChaosState::planFor(const std::string &From,
                              const std::string &To) const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (PartitionA &&
      (PartitionA->count(From) != 0) != (PartitionA->count(To) != 0)) {
    FaultPlan Cut;
    Cut.Drop = 1.0;
    return Cut;
  }
  auto It = Links.find({From, To});
  return It == Links.end() ? Default : It->second;
}

std::optional<ByzantinePlan> ChaosState::byzantineFor(
    const std::string &Addr) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Byzantine.find(Addr);
  if (It == Byzantine.end())
    return std::nullopt;
  return It->second;
}

namespace {
/// FNV-1a: stable across platforms (std::hash is not), so a chaos seed
/// replays identically everywhere.
uint64_t fnv64(const std::string &S, uint64_t H) {
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H;
}
} // namespace

uint64_t ChaosState::linkSeed(const std::string &From,
                              const std::string &To) const {
  uint64_t H = fnv64(From, 1469598103934665603ull);
  H = fnv64("->", H);
  H = fnv64(To, H);
  return H ^ Seed;
}

void ChaosState::addPendingRelease(double T) {
  std::lock_guard<std::mutex> Lock(Mu);
  Pending.insert(T);
}

void ChaosState::removePendingRelease(double T) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Pending.find(T);
  if (It != Pending.end())
    Pending.erase(It);
}

std::optional<double> ChaosState::nextRelease() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Pending.empty())
    return std::nullopt;
  return *Pending.begin();
}

// --- ChaosConnection ----------------------------------------------------

namespace {

struct ChaosMetrics {
  obs::Counter &Dropped = obs::counter("net.fault.dropped");
  obs::Counter &Duplicated = obs::counter("net.fault.duplicated");
  obs::Counter &Jittered = obs::counter("net.fault.jittered");
  obs::Counter &InvalidBlock = obs::counter("net.byzantine.invalid_block");
  obs::Counter &Malleated = obs::counter("net.byzantine.malleated");

  static ChaosMetrics &get() {
    static ChaosMetrics M;
    return M;
  }
};

/// A frame held back by jitter.
struct DelayedFrame {
  double Release = 0;
  uint64_t Seq = 0;
  Bytes Frame;

  bool operator>(const DelayedFrame &O) const {
    if (Release != O.Release)
      return Release > O.Release;
    return Seq > O.Seq;
  }
};

class ChaosConnection : public Connection {
public:
  ChaosConnection(std::shared_ptr<Connection> Inner,
                  std::shared_ptr<ChaosState> Chaos, const Clock &Clk,
                  std::string SelfAddr)
      : Inner(std::move(Inner)), Chaos(std::move(Chaos)), Clk(Clk),
        Self(std::move(SelfAddr)),
        RecvRng(this->Chaos->linkSeed(this->Inner->peerAddress(), Self)),
        SendRng(this->Chaos->linkSeed(Self, this->Inner->peerAddress()) ^
                0x5a5a5a5a5a5a5a5aull) {}

  ~ChaosConnection() override {
    std::lock_guard<std::mutex> Lock(Mu);
    unschedule();
  }

  Status send(const Bytes &Frame) override {
    auto Byz = Chaos->byzantineFor(Self);
    if (!Byz)
      return Inner->send(Frame);
    std::lock_guard<std::mutex> Lock(Mu);
    return Inner->send(mangle(*Byz, Frame));
  }

  std::optional<Bytes> receive() override {
    std::lock_guard<std::mutex> Lock(Mu);
    pullInner();
    if (Held.empty() || Held.top().Release > Clk.now())
      return std::nullopt;
    Bytes F = Held.top().Frame;
    if (Held.top().Release > 0)
      Chaos->removePendingRelease(Held.top().Release);
    Held.pop();
    return F;
  }

  bool waitReadable(double TimeoutSec) override {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      pullInner();
      if (!Held.empty() && Held.top().Release <= Clk.now())
        return true;
      if (!Held.empty())
        TimeoutSec = std::min(TimeoutSec, Held.top().Release - Clk.now());
    }
    Inner->waitReadable(TimeoutSec);
    std::lock_guard<std::mutex> Lock(Mu);
    pullInner();
    return !Held.empty() && Held.top().Release <= Clk.now();
  }

  void close() override {
    Inner->close();
    std::lock_guard<std::mutex> Lock(Mu);
    unschedule();
    Held = {};
  }

  bool isOpen() const override { return Inner->isOpen(); }
  std::string peerAddress() const override { return Inner->peerAddress(); }

private:
  /// Drain the inner connection, applying the current directed-link plan
  /// to each frame. Caller holds Mu.
  void pullInner() {
    while (auto F = Inner->receive()) {
      FaultPlan Plan = Chaos->planFor(Inner->peerAddress(), Self);
      ChaosMetrics &M = ChaosMetrics::get();
      if (Plan.Drop > 0 && RecvRng.nextBool(Plan.Drop)) {
        M.Dropped.inc();
        continue;
      }
      int Copies =
          (Plan.Duplicate > 0 && RecvRng.nextBool(Plan.Duplicate)) ? 2 : 1;
      if (Copies > 1)
        M.Duplicated.inc();
      for (int C = 0; C < Copies; ++C) {
        DelayedFrame D;
        D.Seq = NextSeq++;
        D.Frame = *F;
        if (Plan.JitterSeconds > 0) {
          D.Release = Clk.now() + RecvRng.nextDouble() * Plan.JitterSeconds;
          M.Jittered.inc();
          Chaos->addPendingRelease(D.Release);
        }
        Held.push(std::move(D));
      }
    }
  }

  /// Drop this connection's scheduled releases (close/destruction).
  /// Caller holds Mu.
  void unschedule() {
    while (!Held.empty()) {
      if (Held.top().Release > 0)
        Chaos->removePendingRelease(Held.top().Release);
      Held.pop();
    }
  }

  /// Byzantine relay: decode the outbound frame; replace a transaction
  /// with its signature-malleated twin, a block with a Merkle-corrupted
  /// copy, per the plan's probabilities. Anything else passes through.
  /// Caller holds Mu (SendRng).
  Bytes mangle(const ByzantinePlan &Byz, const Bytes &Frame) {
    FrameDecoder D;
    D.feed(Frame);
    auto R = D.next();
    if (!R || !*R)
      return Frame; // Not decodable here; relay untouched.
    Message M = std::move(**R);
    ChaosMetrics &CM = ChaosMetrics::get();
    if (auto *TxM = std::get_if<TxMsg>(&M)) {
      if (Byz.MalleateRelay > 0 && SendRng.nextBool(Byz.MalleateRelay)) {
        if (auto Twisted = malleateTxSignatures(TxM->Tx)) {
          CM.Malleated.inc();
          return encodeMessage(TxMsg{std::move(*Twisted)});
        }
      }
    } else if (auto *BlkM = std::get_if<BlockMsg>(&M)) {
      if (Byz.InvalidBlock > 0 && SendRng.nextBool(Byz.InvalidBlock)) {
        CM.InvalidBlock.inc();
        return encodeMessage(BlockMsg{byzantineCorruptBlock(BlkM->B)});
      }
    }
    return Frame;
  }

  std::shared_ptr<Connection> Inner;
  std::shared_ptr<ChaosState> Chaos;
  const Clock &Clk;
  std::string Self;

  mutable std::mutex Mu;
  Rng RecvRng;
  Rng SendRng;
  uint64_t NextSeq = 0;
  std::priority_queue<DelayedFrame, std::vector<DelayedFrame>,
                      std::greater<>>
      Held;
};

} // namespace

// --- ChaosTransport -----------------------------------------------------

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> InnerIn,
                               std::shared_ptr<ChaosState> ChaosIn,
                               const Clock &Clk)
    : Inner(std::move(InnerIn)), Chaos(std::move(ChaosIn)), Clk(Clk) {}

ChaosTransport::~ChaosTransport() = default;

std::string ChaosTransport::listenAddress() const {
  return Inner->listenAddress();
}

std::shared_ptr<Connection> ChaosTransport::wrap(
    std::shared_ptr<Connection> C) {
  if (!C)
    return nullptr;
  return std::make_shared<ChaosConnection>(std::move(C), Chaos, Clk,
                                           Inner->listenAddress());
}

Result<std::shared_ptr<Connection>> ChaosTransport::connect(
    const std::string &Addr) {
  TC_UNWRAP(C, Inner->connect(Addr));
  return wrap(std::move(C));
}

std::shared_ptr<Connection> ChaosTransport::accept() {
  return wrap(Inner->accept());
}

} // namespace net
} // namespace typecoin
