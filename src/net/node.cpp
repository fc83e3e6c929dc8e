//===- net/node.cpp - The concurrent P2P runtime --------------------------===//

#include "net/node.h"

#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace typecoin {
namespace net {

size_t netThreadsFromEnv() {
  const char *V = std::getenv("TYPECOIN_NET_THREADS");
  if (!V || !*V)
    return 0;
  long N = std::strtol(V, nullptr, 10);
  return N < 0 ? 0 : static_cast<size_t>(N);
}

bool compactRelayFromEnv() {
  const char *V = std::getenv("TYPECOIN_COMPACT_RELAY");
  if (!V)
    return true;
  std::string S(V);
  return !(S == "0" || S == "off" || S == "false" || S == "no");
}

std::string netListenFromEnv() {
  const char *V = std::getenv("TYPECOIN_NET_LISTEN");
  return V && *V ? std::string(V) : std::string("node0");
}

std::vector<std::string> netConnectFromEnv() {
  std::vector<std::string> Out;
  const char *V = std::getenv("TYPECOIN_NET_CONNECT");
  if (!V)
    return Out;
  std::string S(V);
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

namespace {

struct NetMetrics {
  obs::Counter &BytesIn = obs::counter("net.bytes.in");
  obs::Counter &BytesOut = obs::counter("net.bytes.out");
  obs::Counter &MsgIn = obs::counter("net.msg.in");
  obs::Counter &MsgOut = obs::counter("net.msg.out");
  obs::Counter &InvDup = obs::counter("net.inv.dup");
  obs::Counter &InvDedup = obs::counter("net.inv.dedup");
  obs::Counter &CompactHit = obs::counter("net.compact.hit");
  obs::Counter &CompactMiss = obs::counter("net.compact.miss");
  obs::Counter &CompactFallback = obs::counter("net.compact.fallback");
  obs::Counter &FullBlockIn = obs::counter("net.block.full.recv");
  obs::Counter &HeadersIn = obs::counter("net.headers.accepted");
  obs::Counter &PeerConnected = obs::counter("net.peer.connected");
  obs::Counter &PeerReady = obs::counter("net.peer.ready");
  obs::Counter &PeerDisconnected = obs::counter("net.peer.disconnected");
  obs::Counter &PeerBanned = obs::counter("net.peer.banned");
  obs::Counter &Penalized = obs::counter("net.ban.penalized");
  obs::Counter &OrphanAdded = obs::counter("net.orphan.added");
  obs::Counter &OrphanEvicted = obs::counter("net.orphan.evicted");

  static NetMetrics &get() {
    static NetMetrics M;
    return M;
  }
};

/// FNV-1a over the listen address: distinct nodes sharing one NetConfig
/// seed still get distinct nonce streams.
uint64_t addrSalt(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H;
}

bitcoin::BlockHash asBlockHash(const InvItem &It) {
  bitcoin::BlockHash H;
  H.Hash = It.Hash;
  return H;
}

bitcoin::TxId asTxId(const InvItem &It) {
  bitcoin::TxId T;
  T.Hash = It.Hash;
  return T;
}

} // namespace

NetNode::NetNode(bitcoin::ChainParams Params, NetConfig CfgIn,
                 std::unique_ptr<Transport> TransIn,
                 std::shared_ptr<Clock> ClkIn)
    : Cfg(CfgIn), Trans(std::move(TransIn)), Clk(std::move(ClkIn)),
      Tc(std::make_unique<tc::Node>(Params, CfgIn.RegistrationDepth)),
      Nonces(CfgIn.Seed ^ addrSalt(Trans->listenAddress())) {
  SelfNonce = Nonces.next();
  if (!Cfg.CompactRelay)
    Cfg.Services &= ~ServiceCompactRelay;
  // Resubmissions from the backoff queue re-enter the gossip layer.
  // tc::Node::tick only runs under NodeMu (see tick/pump), so the
  // locked announcement is sound here.
  Tc->setRelay([this](const tc::Pair &P) { announceTxLocked(P.Btc, nullptr); });
}

NetNode::~NetNode() { stop(); }

// --- Connections --------------------------------------------------------

Result<uint64_t> NetNode::connectTo(const std::string &Addr) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  if (BanScores.count(Addr) && BanScores.at(Addr) >= Cfg.BanThreshold)
    return makeError("net: peer is banned: " + Addr);
  TC_UNWRAP(C, Trans->connect(Addr));
  return addPeerLocked(std::move(C), /*Inbound=*/false)->Id;
}

size_t NetNode::peerCount() const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  size_t N = 0;
  for (const auto &E : Peers)
    if (E.second->St != Peer::State::Disconnected)
      ++N;
  return N;
}

size_t NetNode::readyPeerCount() const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  size_t N = 0;
  for (const auto &E : Peers)
    if (E.second->ready())
      ++N;
  return N;
}

bool NetNode::connectedTo(const std::string &Addr) const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  for (const auto &E : Peers)
    if (E.second->St != Peer::State::Disconnected &&
        E.second->address() == Addr)
      return true;
  return false;
}

int NetNode::banScore(const std::string &Addr) const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  auto It = BanScores.find(Addr);
  return It == BanScores.end() ? 0 : It->second;
}

bool NetNode::isBanned(const std::string &Addr) const {
  return banScore(Addr) >= Cfg.BanThreshold;
}

int NetNode::chainHeight() const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  return Tc->chain().height();
}

bitcoin::BlockHash NetNode::chainTip() const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  return Tc->chain().tipHash();
}

size_t NetNode::orphanCount() const {
  std::lock_guard<std::mutex> Lock(NodeMu);
  return Orphans.size();
}

std::shared_ptr<Peer> NetNode::addPeerLocked(std::shared_ptr<Connection> C,
                                             bool Inbound) {
  auto P = std::make_shared<Peer>();
  P->Id = NextPeerId++;
  P->Conn = std::move(C);
  P->Inbound = Inbound;
  P->ConnectedAt = Clk->now();
  P->LastRecv = P->ConnectedAt;
  Peers[P->Id] = P;
  NetMetrics::get().PeerConnected.inc();

  VersionMsg V;
  V.Services = Cfg.Services;
  V.Nonce = SelfNonce;
  V.StartHeight = Tc->chain().height();
  V.UserAgent = Cfg.UserAgent;
  sendLocked(*P, V);

  if (Running.load()) {
    reapThreadsLocked(); // Free slots held by exited peer threads.
    if (MaxThreads == 0 || PeerThreads < MaxThreads) {
      P->Dedicated = true;
      ++PeerThreads;
      Threads.emplace_back(&NetNode::peerLoop, this, P);
    }
  }
  return P;
}

void NetNode::sendLocked(Peer &P, const Message &M) {
  if (!P.Conn->isOpen() || P.St == Peer::State::Disconnected)
    return;
  Bytes F = encodeMessage(M);
  NetMetrics::get().BytesOut.inc(F.size());
  NetMetrics::get().MsgOut.inc();
  (void)P.Conn->send(F); // A closed pipe is detected on the next drain.
}

void NetNode::disconnectLocked(Peer &P, const char *Why) {
  (void)Why;
  if (P.St == Peer::State::Disconnected)
    return;
  P.St = Peer::State::Disconnected;
  // Release every in-flight mark this peer holds — both bodies already
  // requested and bodies still queued for a GetData slot — or no other
  // peer would ever be asked for them.
  for (const auto &R : P.Requested)
    if (R.first.Kind == InvKind::Block)
      BlocksInFlight.erase(asBlockHash(R.first));
  for (const bitcoin::BlockHash &H : P.BodiesToFetch)
    BlocksInFlight.erase(H);
  P.Requested.clear();
  P.Reconstructing.clear();
  P.BodiesToFetch.clear();
  P.Conn->close();
  NetMetrics::get().PeerDisconnected.inc();
}

void NetNode::penalizeLocked(Peer &P, int Points, const char *Why) {
  NetMetrics::get().Penalized.inc();
  int &S = BanScores[P.address()];
  S += Points;
  if (S >= Cfg.BanThreshold) {
    NetMetrics::get().PeerBanned.inc();
    disconnectLocked(P, Why);
  }
}

void NetNode::reapLocked() {
  for (auto It = Peers.begin(); It != Peers.end();) {
    if (It->second->St == Peer::State::Disconnected)
      It = Peers.erase(It);
    else
      ++It;
  }
}

// --- Local traffic ------------------------------------------------------

Status NetNode::submitTransaction(const bitcoin::Transaction &Tx) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  TC_TRY(Tc->submitPlain(Tx));
  announceTxLocked(Tx, nullptr);
  return Status::success();
}

Status NetNode::submitPair(const tc::Pair &P) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  TC_TRY(Tc->submitPair(P));
  announceTxLocked(P.Btc, nullptr);
  return Status::success();
}

Result<bitcoin::Block> NetNode::mine(const crypto::KeyId &Payout,
                                     uint32_t Time) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  TC_TRY(Tc->mineBlock(Payout, Time));
  const bitcoin::Block *B = Tc->chain().blockByHash(Tc->chain().tipHash());
  announceBlockLocked(*B, nullptr);
  return *B;
}

// --- Execution ----------------------------------------------------------

size_t NetNode::pump() {
  std::lock_guard<std::mutex> Lock(NodeMu);
  size_t N = acceptPendingLocked();
  // Snapshot: handlers never add peers, but reap-safety is cheap.
  std::vector<std::shared_ptr<Peer>> Ps;
  Ps.reserve(Peers.size());
  for (const auto &E : Peers)
    Ps.push_back(E.second);
  for (const auto &P : Ps)
    N += drainPeerLocked(P);
  timersLocked(Clk->now());
  N += Tc->tick(Clk->now());
  reapLocked();
  return N;
}

size_t NetNode::acceptPendingLocked() {
  size_t N = 0;
  while (auto C = Trans->accept()) {
    auto It = BanScores.find(C->peerAddress());
    if (It != BanScores.end() && It->second >= Cfg.BanThreshold) {
      C->close();
      continue;
    }
    addPeerLocked(std::move(C), /*Inbound=*/true);
    ++N;
  }
  return N;
}

size_t NetNode::drainPeerLocked(const std::shared_ptr<Peer> &P) {
  if (P->St == Peer::State::Disconnected)
    return 0;
  size_t N = 0;
  NetMetrics &M = NetMetrics::get();
  while (auto F = P->Conn->receive()) {
    M.BytesIn.inc(F->size());
    P->LastRecv = Clk->now();
    P->Decoder.feed(*F);
    for (;;) {
      auto R = P->Decoder.next();
      if (!R) {
        // Poisoned stream: one corrupt frame costs the full penalty —
        // resynchronizing on attacker-controlled bytes is worse.
        penalizeLocked(*P, Cfg.BanThreshold, "corrupt frame stream");
        if (P->St != Peer::State::Disconnected)
          disconnectLocked(*P, "corrupt frame stream");
        return N;
      }
      if (!*R)
        break;
      ++N;
      M.MsgIn.inc();
      handleLocked(*P, std::move(**R));
      if (P->St == Peer::State::Disconnected)
        return N;
    }
  }
  if (!P->Conn->isOpen())
    disconnectLocked(*P, "connection closed");
  return N;
}

void NetNode::timersLocked(double Now) {
  bool BlocksReleased = false;
  for (const auto &E : Peers) {
    Peer &P = *E.second;
    if (P.St == Peer::State::Handshaking &&
        Now - P.ConnectedAt > Cfg.Timers.HandshakeTimeoutSec) {
      disconnectLocked(P, "handshake timeout");
      continue;
    }
    if (!P.ready())
      continue;
    // Stalled download: a peer that answers pings but never delivers a
    // requested block would keep the hash in BlocksInFlight forever,
    // locking every other peer out of fetching it. Cut the peer loose
    // (releasing its marks) and nudge the survivors below.
    bool Stalled = false;
    for (auto It = P.Requested.begin(); It != P.Requested.end();) {
      if (Now - It->second <= Cfg.Timers.StallTimeoutSec) {
        ++It;
      } else if (It->first.Kind == InvKind::Block) {
        Stalled = true;
        break;
      } else {
        It = P.Requested.erase(It); // Tx: a future Inv may re-request.
      }
    }
    if (Stalled) {
      disconnectLocked(P, "stalling block download");
      BlocksReleased = true;
      continue;
    }
    if (P.LastPingSent >= 0 &&
        Now - P.LastPingSent > Cfg.Timers.PingTimeoutSec) {
      disconnectLocked(P, "ping timeout");
      continue;
    }
    if (P.LastPingSent < 0 && Now - P.LastRecv >= Cfg.Timers.PingIntervalSec) {
      P.PingNonce = Nonces.next();
      P.LastPingSent = Now;
      sendLocked(P, PingMsg{P.PingNonce});
    }
  }
  if (BlocksReleased) {
    // Reassign: ask everyone else for headers; the released blocks are
    // fetchable again, so the answers re-schedule their bodies.
    for (const auto &E : Peers)
      if (E.second->ready())
        sendGetHeadersLocked(*E.second);
  }
}

size_t NetNode::tick(double Now) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  timersLocked(Now);
  return Tc->tick(Now);
}

void NetNode::start(size_t MaxThreadsIn) {
  std::lock_guard<std::mutex> Lock(NodeMu);
  if (Running.load())
    return;
  MaxThreads = MaxThreadsIn;
  Running.store(true);
  Threads.emplace_back(&NetNode::acceptorLoop, this);
  for (const auto &E : Peers) {
    if (E.second->St == Peer::State::Disconnected)
      continue;
    if (MaxThreads == 0 || PeerThreads < MaxThreads) {
      E.second->Dedicated = true;
      ++PeerThreads;
      Threads.emplace_back(&NetNode::peerLoop, this, E.second);
    }
  }
}

void NetNode::stop() {
  std::vector<std::thread> Joinable;
  {
    std::lock_guard<std::mutex> Lock(NodeMu);
    if (!Running.load())
      return;
    Running.store(false);
    Joinable.swap(Threads);
    PeerThreads = 0;
    for (const auto &E : Peers)
      E.second->Dedicated = false;
  }
  for (std::thread &T : Joinable)
    T.join();
  std::lock_guard<std::mutex> Lock(NodeMu);
  ExitedThreads.clear(); // All of them are joined now.
}

void NetNode::reapThreadsLocked() {
  // Exiting peer threads park their id here as their last locked
  // action; by the time anyone else holds NodeMu and reads it, the
  // corresponding join can only block momentarily.
  for (std::thread::id Id : ExitedThreads) {
    for (auto It = Threads.begin(); It != Threads.end(); ++It) {
      if (It->get_id() == Id) {
        It->join();
        Threads.erase(It);
        break;
      }
    }
  }
  ExitedThreads.clear();
}

void NetNode::acceptorLoop() {
  while (Running.load()) {
    {
      std::lock_guard<std::mutex> Lock(NodeMu);
      reapThreadsLocked();
      acceptPendingLocked();
      // Serve peers without a dedicated thread, round-robin.
      std::vector<std::shared_ptr<Peer>> Ps;
      for (const auto &E : Peers)
        if (!E.second->Dedicated)
          Ps.push_back(E.second);
      for (const auto &P : Ps)
        drainPeerLocked(P);
      timersLocked(Clk->now());
      Tc->tick(Clk->now());
      reapLocked();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void NetNode::peerLoop(std::shared_ptr<Peer> P) {
  // Peer state (St, Dedicated) is only ever read or written under
  // NodeMu; the Connection itself is internally synchronized, so the
  // waitReadable block happens lock-free.
  bool Gone = false;
  while (Running.load() && !Gone) {
    {
      std::lock_guard<std::mutex> Lock(NodeMu);
      if (P->St != Peer::State::Disconnected)
        drainPeerLocked(P); // Disconnects on a closed pipe itself.
      Gone = P->St == Peer::State::Disconnected;
    }
    if (!Gone)
      P->Conn->waitReadable(0.05);
  }
  // Hand the thread slot back so churned peers do not pin capacity;
  // the acceptor (or the next addPeer) joins the exited handle.
  std::lock_guard<std::mutex> Lock(NodeMu);
  if (P->Dedicated) {
    P->Dedicated = false;
    if (PeerThreads > 0)
      --PeerThreads;
  }
  ExitedThreads.push_back(std::this_thread::get_id());
}

void NetNode::resync() {
  std::lock_guard<std::mutex> Lock(NodeMu);
  const bitcoin::Block *Tip = Tc->chain().blockByHash(Tc->chain().tipHash());
  InvItem TipInv = invBlock(Tip->hash());
  for (const auto &E : Peers) {
    Peer &P = *E.second;
    if (!P.ready())
      continue;
    sendGetHeadersLocked(P);
    // Retransmit outstanding GetData: the original may have been eaten
    // by a fault plan, and nothing else ever re-requests an item that
    // is already marked in flight. Duplicate answers are idempotent.
    if (!P.Requested.empty()) {
      GetDataMsg Again;
      for (const auto &R : P.Requested)
        Again.Items.push_back(R.first);
      sendLocked(P, Again);
    }
    requestBodiesLocked(P);
    // Forced tip re-announcement: a drop may have eaten the original,
    // so bypass the Known filter (the duplicate is counted, not
    // suppressed, on the receiving side).
    P.Known.insert(TipInv);
    sendLocked(P, InvMsg{{TipInv}});
  }
}

// --- Handlers -----------------------------------------------------------

void NetNode::handleLocked(Peer &P, Message M) {
  // Before the handshake completes only handshake + liveness traffic is
  // legal; anything else is ignored (cheap, and chaos reordering must
  // not escalate into penalties).
  if (P.St != Peer::State::Ready) {
    bool Allowed = std::holds_alternative<VersionMsg>(M) ||
                   std::holds_alternative<VerackMsg>(M) ||
                   std::holds_alternative<PingMsg>(M) ||
                   std::holds_alternative<PongMsg>(M);
    if (!Allowed)
      return;
  }
  std::visit(
      [&](auto &Msg) {
        using T = std::decay_t<decltype(Msg)>;
        if constexpr (std::is_same_v<T, VersionMsg>)
          handleVersion(P, Msg);
        else if constexpr (std::is_same_v<T, VerackMsg>) {
          P.VerackReceived = true;
          if (P.VersionReceived && P.St == Peer::State::Handshaking)
            onHandshakeComplete(P);
        } else if constexpr (std::is_same_v<T, PingMsg>)
          sendLocked(P, PongMsg{Msg.Nonce});
        else if constexpr (std::is_same_v<T, PongMsg>) {
          if (Msg.Nonce == P.PingNonce)
            P.LastPingSent = -1;
        } else if constexpr (std::is_same_v<T, InvMsg>)
          handleInv(P, Msg);
        else if constexpr (std::is_same_v<T, GetDataMsg>)
          handleGetData(P, Msg);
        else if constexpr (std::is_same_v<T, GetHeadersMsg>)
          handleGetHeaders(P, Msg);
        else if constexpr (std::is_same_v<T, HeadersMsg>)
          handleHeaders(P, Msg);
        else if constexpr (std::is_same_v<T, BlockMsg>)
          handleBlock(P, Msg);
        else if constexpr (std::is_same_v<T, TxMsg>)
          handleTx(P, Msg);
        else if constexpr (std::is_same_v<T, CmpctBlockMsg>)
          handleCmpctBlock(P, Msg);
        else if constexpr (std::is_same_v<T, GetBlockTxnMsg>)
          handleGetBlockTxn(P, Msg);
        else if constexpr (std::is_same_v<T, BlockTxnMsg>)
          handleBlockTxn(P, std::move(Msg));
      },
      M);
}

void NetNode::handleVersion(Peer &P, const VersionMsg &M) {
  if (P.VersionReceived) {
    penalizeLocked(P, 10, "duplicate version");
    return;
  }
  if (M.Nonce == SelfNonce) {
    disconnectLocked(P, "connected to self");
    return;
  }
  P.VersionReceived = true;
  P.Services = M.Services;
  P.StartHeight = M.StartHeight;
  sendLocked(P, VerackMsg{});
  if (P.VerackReceived && P.St == Peer::State::Handshaking)
    onHandshakeComplete(P);
}

void NetNode::onHandshakeComplete(Peer &P) {
  P.St = Peer::State::Ready;
  NetMetrics::get().PeerReady.inc();
  // Headers-first initial sync: ask for everything after our best
  // chain. Symmetric (both ends ask), so whichever side is behind
  // catches up; an up-to-date peer answers with zero headers.
  sendGetHeadersLocked(P);
}

std::vector<bitcoin::BlockHash> NetNode::locatorLocked() const {
  // Exponentially-spaced sample of the best chain, newest first,
  // always ending at genesis.
  std::vector<bitcoin::BlockHash> L;
  const bitcoin::Blockchain &Chain = Tc->chain();
  int Step = 1;
  for (int H = Chain.height(); H > 0; H -= Step) {
    L.push_back(*Chain.blockHashAt(H));
    if (L.size() >= 10)
      Step *= 2;
  }
  L.push_back(*Chain.blockHashAt(0));
  return L;
}

void NetNode::sendGetHeadersLocked(Peer &P) {
  GetHeadersMsg G;
  G.Locator = locatorLocked();
  sendLocked(P, G);
}

void NetNode::handleGetHeaders(Peer &P, const GetHeadersMsg &M) {
  const bitcoin::Blockchain &Chain = Tc->chain();
  std::set<bitcoin::BlockHash> Loc(M.Locator.begin(), M.Locator.end());
  int Fork = 0;
  for (int H = Chain.height(); H >= 0; --H) {
    if (Loc.count(*Chain.blockHashAt(H))) {
      Fork = H;
      break;
    }
  }
  HeadersMsg R;
  for (int H = Fork + 1;
       H <= Chain.height() && R.Headers.size() < MaxHeadersPerMsg; ++H) {
    const bitcoin::Block *B = Chain.blockByHash(*Chain.blockHashAt(H));
    R.Headers.push_back(B->Header);
    if (!M.Stop.isNull() && B->hash() == M.Stop)
      break;
  }
  sendLocked(P, R);
}

void NetNode::handleHeaders(Peer &P, const HeadersMsg &M) {
  const bitcoin::Blockchain &Chain = Tc->chain();
  std::set<bitcoin::BlockHash> Batch;
  size_t Accepted = 0;
  bool Truncated = false;
  for (const bitcoin::BlockHeader &H : M.Headers) {
    bitcoin::BlockHash HH = H.hash();
    bool Connects = Chain.blockByHash(H.Prev) != nullptr ||
                    Batch.count(H.Prev) != 0 ||
                    BlocksInFlight.count(H.Prev) != 0;
    if (!Connects)
      continue; // Unconnected headers carry no usable ancestry; skip.
    Batch.insert(HH);
    ++Accepted;
    if (Chain.blockByHash(HH) || BlocksInFlight.count(HH))
      continue; // Body already present or scheduled.
    if (P.BodiesToFetch.size() >= Cfg.MaxBodiesQueued) {
      // Bounded schedule: the rest re-arrives on the next GetHeaders
      // round once this queue drains.
      Truncated = true;
      continue;
    }
    BlocksInFlight.insert(HH);
    P.BodiesToFetch.push_back(HH);
  }
  NetMetrics::get().HeadersIn.inc(Accepted);
  P.MoreHeadersExpected = Truncated || M.Headers.size() == MaxHeadersPerMsg;
  requestBodiesLocked(P);
}

void NetNode::requestBodiesLocked(Peer &P) {
  GetDataMsg G;
  while (!P.BodiesToFetch.empty() &&
         P.Requested.size() < Cfg.MaxBlocksInFlight) {
    bitcoin::BlockHash H = P.BodiesToFetch.front();
    P.BodiesToFetch.pop_front();
    if (Tc->chain().blockByHash(H)) {
      BlocksInFlight.erase(H);
      continue;
    }
    InvItem It = invBlock(H);
    P.Requested.emplace(It, Clk->now());
    G.Items.push_back(It);
  }
  if (!G.Items.empty())
    sendLocked(P, G);
}

void NetNode::handleInv(Peer &P, const InvMsg &M) {
  NetMetrics &Met = NetMetrics::get();
  GetDataMsg G;
  for (const InvItem &It : M.Items) {
    if (!P.Known.insert(It))
      Met.InvDup.inc(); // Duplicate announcement on this link.
    if (P.Requested.count(It))
      continue;
    if (It.Kind == InvKind::Block) {
      bitcoin::BlockHash H = asBlockHash(It);
      if (Tc->chain().blockByHash(H) || BlocksInFlight.count(H))
        continue;
      BlocksInFlight.insert(H);
    } else {
      bitcoin::TxId T = asTxId(It);
      if (Tc->mempool().contains(T) || Tc->chain().findTransaction(T))
        continue;
    }
    P.Requested.emplace(It, Clk->now());
    G.Items.push_back(It);
  }
  if (!G.Items.empty())
    sendLocked(P, G);
}

void NetNode::handleGetData(Peer &P, const GetDataMsg &M) {
  for (const InvItem &It : M.Items) {
    if (It.Kind == InvKind::Block) {
      const bitcoin::Block *B = Tc->chain().blockByHash(asBlockHash(It));
      if (!B)
        continue; // NotFound is silent; the requester times out.
      P.Known.insert(It);
      sendLocked(P, BlockMsg{*B});
    } else {
      bitcoin::TxId T = asTxId(It);
      const bitcoin::Transaction *Tx = Tc->mempool().get(T);
      if (!Tx)
        Tx = Tc->chain().findTransaction(T);
      if (!Tx)
        continue;
      P.Known.insert(It);
      sendLocked(P, TxMsg{*Tx});
    }
  }
}

void NetNode::handleTx(Peer &P, const TxMsg &M) {
  bitcoin::TxId Id = M.Tx.txid();
  InvItem It = invTx(Id);
  P.Known.insert(It);
  P.Requested.erase(It);
  if (Tc->mempool().contains(Id) || Tc->chain().findTransaction(Id))
    return;
  // Policy rejection (fee, standardness, double-spend race — e.g. a
  // malleated twin arriving after the original) is not misbehaviour.
  if (!Tc->mempool().acceptTransaction(M.Tx, Tc->chain()))
    return;
  announceTxLocked(M.Tx, &P);
}

void NetNode::handleBlock(Peer &P, const BlockMsg &M) {
  NetMetrics::get().FullBlockIn.inc();
  bitcoin::BlockHash H = M.B.hash();
  InvItem It = invBlock(H);
  P.Known.insert(It);
  P.Requested.erase(It);
  BlocksInFlight.erase(H);
  acceptBlockLocked(&P, M.B, /*FromCompact=*/false);
  if (P.St == Peer::State::Disconnected)
    return;
  requestBodiesLocked(P);
  if (P.BodiesToFetch.empty() && P.Requested.empty() &&
      P.MoreHeadersExpected) {
    P.MoreHeadersExpected = false;
    sendGetHeadersLocked(P);
  }
}

void NetNode::handleCmpctBlock(Peer &P, const CmpctBlockMsg &M) {
  NetMetrics &Met = NetMetrics::get();
  bitcoin::BlockHash H = M.Header.hash();
  P.Known.insert(invBlock(H));
  if (Tc->chain().blockByHash(H)) {
    Met.InvDup.inc(); // Already held: a redundant announcement.
    return;
  }
  size_t Total = M.ShortIds.size() + M.Prefilled.size();
  if (Total == 0 || Total > MaxVectorItems) {
    penalizeLocked(P, 10, "empty/oversized compact block");
    return;
  }
  CompactPending R;
  R.Header = M.Header;
  R.Txs.resize(Total);
  R.Have.assign(Total, false);
  for (const PrefilledTx &PF : M.Prefilled) {
    if (PF.Index >= Total || R.Have[PF.Index]) {
      penalizeLocked(P, 10, "bad prefilled index");
      return;
    }
    R.Txs[PF.Index] = PF.Tx;
    R.Have[PF.Index] = true;
  }

  // Resolve short ids against the mempool. An id matching two pool
  // entries is ambiguous and treated as missing (BIP 152 semantics).
  auto Snap = Tc->mempool().snapshot();
  std::map<uint64_t, size_t> BySid;
  std::set<uint64_t> Ambiguous;
  for (size_t I = 0; I < Snap.size(); ++I) {
    uint64_t Sid = shortTxId(H, M.Nonce, Snap[I].txid());
    if (!BySid.emplace(Sid, I).second)
      Ambiguous.insert(Sid);
  }
  size_t SidIdx = 0;
  for (size_t Slot = 0; Slot < Total; ++Slot) {
    if (R.Have[Slot])
      continue;
    uint64_t Sid = M.ShortIds[SidIdx++];
    auto F = BySid.find(Sid);
    if (F != BySid.end() && !Ambiguous.count(Sid)) {
      R.Txs[Slot] = Snap[F->second];
      R.Have[Slot] = true;
    } else {
      R.MissingIndexes.push_back(Slot);
    }
  }

  if (R.MissingIndexes.empty()) {
    Met.CompactHit.inc();
    bitcoin::Block B;
    B.Header = M.Header;
    B.Txs = std::move(R.Txs);
    acceptBlockLocked(&P, B, /*FromCompact=*/true);
    return;
  }
  Met.CompactMiss.inc();
  GetBlockTxnMsg G;
  G.Block = H;
  G.Indexes.assign(R.MissingIndexes.begin(), R.MissingIndexes.end());
  P.Reconstructing[H] = std::move(R);
  sendLocked(P, G);
}

void NetNode::handleGetBlockTxn(Peer &P, const GetBlockTxnMsg &M) {
  const bitcoin::Block *B = Tc->chain().blockByHash(M.Block);
  if (!B)
    return;
  BlockTxnMsg R;
  R.Block = M.Block;
  for (uint64_t I : M.Indexes) {
    if (I >= B->Txs.size()) {
      penalizeLocked(P, 10, "getblocktxn index out of range");
      return;
    }
    R.Txs.push_back(B->Txs[I]);
  }
  sendLocked(P, R);
}

void NetNode::handleBlockTxn(Peer &P, BlockTxnMsg M) {
  auto It = P.Reconstructing.find(M.Block);
  if (It == P.Reconstructing.end())
    return;
  CompactPending R = std::move(It->second);
  P.Reconstructing.erase(It);
  if (M.Txs.size() != R.MissingIndexes.size()) {
    penalizeLocked(P, 10, "blocktxn count mismatch");
    return;
  }
  for (size_t I = 0; I < M.Txs.size(); ++I)
    R.Txs[R.MissingIndexes[I]] = std::move(M.Txs[I]);
  bitcoin::Block B;
  B.Header = R.Header;
  B.Txs = std::move(R.Txs);
  acceptBlockLocked(&P, B, /*FromCompact=*/true);
}

// --- Block acceptance and gossip ----------------------------------------

void NetNode::acceptBlockLocked(Peer *From, const bitcoin::Block &B,
                                bool FromCompact) {
  bitcoin::BlockHash H = B.hash();
  if (Tc->chain().blockByHash(H))
    return;
  if (!Tc->chain().blockByHash(B.Header.Prev)) {
    if (From)
      addOrphanLocked(*From, B);
    return;
  }
  if (!Tc->submitBlock(B)) {
    if (!From)
      return;
    if (FromCompact) {
      // A short-id collision can corrupt an honest reconstruction:
      // retry with the full block before blaming the sender.
      NetMetrics::get().CompactFallback.inc();
      InvItem It = invBlock(H);
      From->Requested.emplace(It, Clk->now());
      BlocksInFlight.insert(H);
      sendLocked(*From, GetDataMsg{{It}});
    } else {
      penalizeLocked(*From, 100, "invalid block");
    }
    return;
  }
  announceBlockLocked(B, From);
  // Release orphans parented on the new block (their own children
  // cascade through the recursive call).
  auto Range = Orphans.equal_range(H);
  std::vector<bitcoin::Block> Released;
  for (auto It = Range.first; It != Range.second; ++It)
    Released.push_back(std::move(It->second.Blk));
  Orphans.erase(Range.first, Range.second);
  for (const bitcoin::Block &Child : Released)
    acceptBlockLocked(nullptr, Child, /*FromCompact=*/false);
}

void NetNode::addOrphanLocked(Peer &From, const bitcoin::Block &B) {
  auto Range = Orphans.equal_range(B.Header.Prev);
  bitcoin::BlockHash H = B.hash();
  for (auto It = Range.first; It != Range.second; ++It)
    if (It->second.Blk.hash() == H)
      return; // Duplicate orphan.
  NetMetrics::get().OrphanAdded.inc();
  Orphans.emplace(B.Header.Prev, OrphanEntry{B, NextOrphanSeq++});
  while (Orphans.size() > Cfg.OrphanLimit) {
    auto Oldest = Orphans.begin();
    for (auto It = Orphans.begin(); It != Orphans.end(); ++It)
      if (It->second.Seq < Oldest->second.Seq)
        Oldest = It;
    Orphans.erase(Oldest);
    NetMetrics::get().OrphanEvicted.inc();
  }
  // We are missing ancestry — ask the sender for the headers between
  // our chain and this block.
  sendGetHeadersLocked(From);
}

void NetNode::announceTxLocked(const bitcoin::Transaction &Tx, Peer *Skip) {
  InvItem It = invTx(Tx.txid());
  NetMetrics &Met = NetMetrics::get();
  for (const auto &E : Peers) {
    Peer &Q = *E.second;
    if (&Q == Skip || !Q.ready())
      continue;
    if (!Q.Known.insert(It)) {
      Met.InvDedup.inc(); // Suppressed: this link already knows it.
      continue;
    }
    sendLocked(Q, InvMsg{{It}});
  }
}

void NetNode::announceBlockLocked(const bitcoin::Block &B, Peer *Skip) {
  InvItem It = invBlock(B.hash());
  NetMetrics &Met = NetMetrics::get();
  std::optional<CmpctBlockMsg> Compact; // Built at most once.
  for (const auto &E : Peers) {
    Peer &Q = *E.second;
    if (&Q == Skip || !Q.ready())
      continue;
    if (!Q.Known.insert(It)) {
      Met.InvDedup.inc();
      continue;
    }
    if (Cfg.CompactRelay && Q.compactNegotiated()) {
      if (!Compact)
        Compact = buildCompactLocked(B);
      sendLocked(Q, *Compact);
    } else {
      sendLocked(Q, InvMsg{{It}});
    }
  }
}

CmpctBlockMsg NetNode::buildCompactLocked(const bitcoin::Block &B) {
  CmpctBlockMsg C;
  C.Header = B.Header;
  C.Nonce = Nonces.next();
  C.Prefilled.push_back(PrefilledTx{0, B.Txs[0]}); // Coinbase: never pooled.
  bitcoin::BlockHash H = B.hash();
  for (size_t I = 1; I < B.Txs.size(); ++I)
    C.ShortIds.push_back(shortTxId(H, C.Nonce, B.Txs[I].txid()));
  return C;
}

} // namespace net
} // namespace typecoin
