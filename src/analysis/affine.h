//===- analysis/affine.h - Affine-usage audit of proof terms -----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A purely structural audit of affine hypothesis usage in proof terms:
/// no type inference, linear in the size of the term. It needs no basis
/// and no upstream state, so `tclint` can run it on a bare transaction.
/// Scopes use the checker's own context type (`logic/context.h`):
///
///   * innermost-binder lookup; consuming an affine hypothesis twice is
///     a *contraction attempt*, reported as an error (`affine-reuse`)
///     because the checker is guaranteed to reject it,
///   * the two components of a `&`-pair and the two branches of a
///     `case` see the same affine context, and consumption merges as the
///     union, so using one hypothesis in both arms is *not* a reuse,
///   * inside `!M` every affine hypothesis is unavailable
///     (`affine-banged`),
///   * an affine hypothesis that is never consumed is legal weakening
///     (the paper embraces it, Section 4) but often a bug in practice,
///     so it is reported as a warning (`affine-unused`).
///
/// Because errors are emitted only where the checker must reject,
/// lint-clean proofs are never rejected by the checker *for an
/// affine-usage reason* (property-tested in
/// tests/analysis/lint_property_test.cpp). Terms nested deeper than
/// `MaxTermNesting` get one `proof-depth` error, as the checker rejects
/// them too.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_AFFINE_H
#define TYPECOIN_ANALYSIS_AFFINE_H

#include "analysis/diagnostic.h"
#include "logic/proof.h"

namespace typecoin {
namespace analysis {

/// Options for the affine audit.
struct AffineAuditOptions {
  /// Emit `affine-unused` warnings for weakened hypotheses.
  bool WarnUnused = true;
};

/// Audit \p M, assuming the named hypotheses \p Affine and
/// \p Persistent are in scope (both may be empty: transaction proof
/// obligations are closed terms). Findings are appended to \p Out with
/// spans rooted at \p SpanRoot.
void auditAffineUsage(const logic::ProofPtr &M,
                      const std::vector<std::string> &Affine,
                      const std::vector<std::string> &Persistent,
                      LintReport &Out, const std::string &SpanRoot = "proof",
                      const AffineAuditOptions &Opts = AffineAuditOptions());

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_AFFINE_H
