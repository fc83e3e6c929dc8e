//===- analysis/dataflow.h - Affine dataflow over a pending set --*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The affine dataflow pass over a pending set. Typecoin's logic makes
/// every transaction-output an *affine* resource: it may be consumed at
/// most once (paper Section 2, "the transaction-outputs are affine").
/// The Bitcoin layer enforces this on the best chain; this pass proves
/// it statically over a set of not-yet-confirmed transactions (the
/// files `tclint --dataflow` is given) and flags the shapes no single
/// transaction shows on its own:
///
///  * **double-consume** — two pending transactions (or two inputs)
///    consume the same resource: at most one can ever confirm;
///  * **cycle** — pending transactions that consume each other's
///    outputs cyclically, so no topological confirmation order exists.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_DATAFLOW_H
#define TYPECOIN_ANALYSIS_DATAFLOW_H

#include "analysis/diagnostic.h"
#include "bitcoin/transaction.h"
#include "typecoin/transaction.h"

#include <string>
#include <vector>

namespace typecoin {
namespace analysis {

/// One transaction as the dataflow pass sees it: an identity and the
/// resources it consumes.
struct DataflowTx {
  /// Display-hex Bitcoin txid of the (carrier) transaction.
  std::string Txid;
  /// Consumed resources as "txid:n" display-hex outpoint keys.
  std::vector<std::string> Consumes;

  /// Project a Bitcoin transaction (coinbase inputs are not resources).
  static DataflowTx fromBitcoinTx(const bitcoin::Transaction &Btc);
  /// Project a Typecoin transaction riding in carrier \p Btc: the
  /// consumed resources are the Typecoin inputs' source outpoints.
  static DataflowTx fromPair(const tc::Transaction &Tc,
                             const bitcoin::Transaction &Btc);
};

/// Prove the affine discipline within \p Pending. Spans are
/// `tx[<txid>]/input[<i>]` (or `tx[<txid>]` for whole-tx findings such
/// as cycles).
LintReport analyzeAffineDataflow(const std::vector<DataflowTx> &Pending);

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_DATAFLOW_H
