//===- analysis/dataflow.cpp - Affine dataflow over a pending set ---------===//

#include "analysis/dataflow.h"

#include "support/strings.h"

#include <algorithm>
#include <map>

namespace typecoin {
namespace analysis {

namespace {

std::string outpointKey(const std::string &Txid, uint32_t Index) {
  return Txid + ":" + std::to_string(Index);
}

/// "txid:n" -> "txid".
std::string outpointTxid(const std::string &Outpoint) {
  return Outpoint.substr(0, Outpoint.find(':'));
}

std::string shortId(const std::string &Txid) {
  return Txid.size() > 12 ? Txid.substr(0, 12) + ".." : Txid;
}

} // namespace

DataflowTx DataflowTx::fromBitcoinTx(const bitcoin::Transaction &Btc) {
  DataflowTx Out;
  Out.Txid = Btc.txid().toHex();
  for (const bitcoin::TxIn &In : Btc.Inputs) {
    if (In.Prevout.isNull())
      continue;
    Out.Consumes.push_back(
        outpointKey(In.Prevout.Tx.toHex(), In.Prevout.Index));
  }
  return Out;
}

DataflowTx DataflowTx::fromPair(const tc::Transaction &Tc,
                                const bitcoin::Transaction &Btc) {
  DataflowTx Out;
  Out.Txid = Btc.txid().toHex();
  for (const tc::Input &In : Tc.Inputs)
    Out.Consumes.push_back(outpointKey(In.SourceTxid, In.SourceIndex));
  return Out;
}

LintReport analyzeAffineDataflow(const std::vector<DataflowTx> &Pending) {
  LintReport Out;

  // First consumer of each resource within the pending set.
  std::map<std::string, std::string> FirstConsumer;

  for (const DataflowTx &Tx : Pending) {
    for (size_t I = 0; I < Tx.Consumes.size(); ++I) {
      const std::string &Res = Tx.Consumes[I];
      auto [It, Fresh] = FirstConsumer.emplace(Res, Tx.Txid);
      if (!Fresh)
        Out.error("dataflow-double-consume",
                  "resource " + Res + " is consumed twice: by " +
                      shortId(It->second) + " and by " + shortId(Tx.Txid) +
                      "; the affine discipline admits at most one consumer",
                  "tx[" + shortId(Tx.Txid) + "]/input[" + std::to_string(I) +
                      "]");
    }
  }

  // Cycle detection over pending->pending consumption edges (iterative
  // three-color DFS; no topological confirmation order exists inside a
  // cycle, so none of its members can ever confirm).
  std::map<std::string, size_t> PendingByTxid;
  for (size_t I = 0; I < Pending.size(); ++I)
    PendingByTxid.emplace(Pending[I].Txid, I);
  enum Color { White, Grey, Black };
  std::vector<Color> Colors(Pending.size(), White);
  auto edges = [&](size_t N) {
    std::vector<size_t> Out;
    for (const std::string &Res : Pending[N].Consumes) {
      auto It = PendingByTxid.find(outpointTxid(Res));
      if (It != PendingByTxid.end())
        Out.push_back(It->second);
    }
    return Out;
  };
  for (size_t Root = 0; Root < Pending.size(); ++Root) {
    if (Colors[Root] != White)
      continue;
    std::vector<std::pair<size_t, size_t>> Stack{{Root, 0}};
    Colors[Root] = Grey;
    while (!Stack.empty()) {
      auto &[Node, NextEdge] = Stack.back();
      std::vector<size_t> Succ = edges(Node);
      if (NextEdge >= Succ.size()) {
        Colors[Node] = Black;
        Stack.pop_back();
        continue;
      }
      size_t To = Succ[NextEdge++];
      if (Colors[To] == Grey) {
        // Walk the grey stack back to To to name the cycle members.
        std::vector<std::string> Members{shortId(Pending[To].Txid)};
        for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
          if (It->first == To)
            break;
          Members.push_back(shortId(Pending[It->first].Txid));
        }
        std::reverse(Members.begin(), Members.end());
        Out.error("dataflow-cycle",
                  "pending transactions consume each other cyclically (" +
                      join(Members, " -> ") +
                      "); no confirmation order exists",
                  "tx[" + shortId(Pending[To].Txid) + "]");
        continue;
      }
      if (Colors[To] == White) {
        Colors[To] = Grey;
        Stack.push_back({To, 0});
      }
    }
  }

  return Out;
}

} // namespace analysis
} // namespace typecoin
