//===- typecoin/state.h - Typecoin chain state and T-ok checking -*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chain-formation judgement of Appendix A: a set of confirmed
/// Typecoin transactions accumulates a global basis (with `this`
/// replaced by each transaction's id) and a table of typed
/// transaction-outputs. `checkTransaction` implements the `T ok` rule:
///
///   * the local basis is well-formed and fresh,
///   * the affine grant is well-formed and fresh,
///   * each input's claimed type matches the (resolved) type of the
///     output it spends — "txouts that do not arise from valid Typecoin
///     transactions are taken to have the trivial type 1" (Section 3),
///   * the proof term proves (C (x) A (x) R) -o if(phi, B) in empty
///     contexts, and
///   * the condition phi holds (with evidence from the blockchain).
///
/// Invalid primaries fall back to the first valid fallback transaction;
/// if none is valid the inputs are spoiled (Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_STATE_H
#define TYPECOIN_TYPECOIN_STATE_H

#include "typecoin/transaction.h"

#include <map>
#include <set>

namespace typecoin {
namespace tc {

/// The accumulated Typecoin chain state.
class State {
public:
  /// Check `T ok` for one alternative (its fallbacks are not consulted)
  /// against the current state, without mutating it. \p Oracle supplies
  /// condition evidence at the evaluation time.
  Status checkTransaction(const Transaction &T,
                          const logic::CondOracle &Oracle) const;

  /// Which of {primary, fallbacks...} is the effective transaction?
  /// Checks each alternative once, in order, and returns the index of
  /// the first valid one (0 = primary). When none is valid the error
  /// carries the primary's reason.
  Result<size_t> selectValid(const Transaction &T,
                             const logic::CondOracle &Oracle) const;

  /// Register transaction \p T, confirmed under Bitcoin id \p Txid.
  /// Applies the first valid of {T, fallbacks}; when none is valid the
  /// inputs are spoiled (consumed with no typed outputs created).
  /// Returns the selected index, or the number of alternatives if the
  /// transaction spoiled.
  Result<size_t> applyTransaction(const Transaction &T,
                                  const std::string &Txid,
                                  const logic::CondOracle &Oracle);

  /// The global basis Sigma_global.
  const logic::Basis &globalBasis() const { return Global; }

  /// Resolved type of a txout; trivial type 1 for outputs that did not
  /// arise from registered Typecoin transactions (Section 3.1).
  logic::PropPtr outputType(const std::string &Txid, uint32_t Index) const;

  /// The registered amount of a Typecoin output (nullopt for trivial).
  std::optional<bitcoin::Amount> outputAmount(const std::string &Txid,
                                              uint32_t Index) const;

  /// Has the given txout been consumed by a registered transaction?
  bool isConsumed(const std::string &Txid, uint32_t Index) const;

  /// Number of registered transactions.
  size_t size() const { return Txs.size(); }

  /// The registered transaction body (post-selection), if any.
  const Transaction *find(const std::string &Txid) const;

  /// All registered Bitcoin txids, in map order (for the invariant
  /// auditor, typecoin/audit.h).
  std::vector<std::string> registeredTxids() const;

  /// Did the named transaction spoil (no valid alternative at
  /// registration)?
  bool isSpoiled(const std::string &Txid) const;

  /// A deterministic digest of the full registered state — registered
  /// txids, spoiled flags, resolved output types, and the consumed
  /// set. Two nodes (or one node before a crash and after recovery)
  /// agree on Typecoin state iff their fingerprints are equal; the
  /// chaos suite compares these entry-for-entry summaries instead of
  /// trusting convergence of the underlying Bitcoin tips alone.
  std::string fingerprint() const;

private:
  logic::Basis Global;
  struct Entry {
    Transaction T;
    std::vector<logic::PropPtr> ResolvedOutputTypes;
    bool Spoiled = false;
  };
  std::map<std::string, Entry> Txs;
  std::set<std::pair<std::string, uint32_t>> Consumed;
};

/// Stand-alone verification of a claimed txout (Section 3): given the
/// transaction that produced it and "the set of all Typecoin
/// transactions upstream", re-check everything from an empty state and
/// confirm output \p Index of \p Txid has type \p Claimed. \p Upstream
/// maps Bitcoin txids to transactions and must be closed under
/// dependencies; \p OrderedTxids gives the confirmation order.
Result<logic::PropPtr>
verifyClaimedOutput(const std::vector<std::pair<std::string, Transaction>>
                        &OrderedUpstream,
                    const std::string &Txid, uint32_t Index,
                    const logic::PropPtr &Claimed,
                    const logic::CondOracle &Oracle);

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_STATE_H
