//===- analysis/lint.cpp - Pre-validation lint for Typecoin -------------------===//

#include "analysis/lint.h"

#include "bitcoin/standard.h"

#include <set>

namespace typecoin {
namespace analysis {

using bitcoin::DustThreshold;
using tc::Transaction;

namespace {

std::string idx(const char *What, size_t I) {
  return std::string(What) + "[" + std::to_string(I) + "]";
}

Severity policySeverity(const LintOptions &Opts) {
  // Standardness violations only block relay when the mempool requires
  // standard transactions; otherwise they are advisory.
  return Opts.RequireStandard ? Severity::Error : Severity::Warning;
}

/// Diagnostics shared by the primary and every fallback: the fallback
/// compatibility rules of Section 5 force identical inputs (txout and
/// amount) and identical output amounts/owners, so a finding here
/// condemns every alternative at once.
void lintShared(const Transaction &T, const LintOptions &Opts,
                LintReport &Out) {
  if (T.Inputs.empty())
    Out.error("input-none",
              "transaction has no inputs (replay protection requires at "
              "least one, Section 2)");

  std::set<std::pair<std::string, uint32_t>> Seen;
  for (size_t I = 0; I < T.Inputs.size(); ++I) {
    const tc::Input &In = T.Inputs[I];
    if (In.SourceTxid.size() != 64 ||
        In.SourceTxid.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos)
      Out.error("input-txid",
                "source txid is not 64 hex digits: '" + In.SourceTxid + "'",
                idx("input", I));
    else if (!Seen.insert({In.SourceTxid, In.SourceIndex}).second)
      Out.error("input-dup",
                "txout " + In.SourceTxid + ":" +
                    std::to_string(In.SourceIndex) +
                    " is spent twice by this transaction (an affine "
                    "resource admits at most one consumer)",
                idx("input", I));
    if (In.Amount < 0)
      Out.warn("input-amount", "claimed input amount is negative",
               idx("input", I));
  }

  for (size_t I = 0; I < T.Outputs.size(); ++I) {
    const tc::Output &Out_ = T.Outputs[I];
    if (!bitcoin::moneyRange(Out_.Amount))
      Out.error("output-amount",
                "output amount is outside the money range",
                idx("output", I));
    else if (Out_.Amount < DustThreshold)
      Out.add(policySeverity(Opts), "output-dust",
              "output amount " + std::to_string(Out_.Amount) +
                  " is below the dust threshold (" +
                  std::to_string(DustThreshold) +
                  "); the realized Bitcoin output will not relay",
              idx("output", I));
  }

  for (size_t I = 0; I < T.Fallbacks.size(); ++I)
    if (auto S = tc::checkFallbackCompatible(T, T.Fallbacks[I]); !S)
      Out.error("fallback-shape", S.error().message(), idx("fallback", I));

  auto BodyComplete = [](const Transaction &X) {
    if (!X.Grant || !X.Proof)
      return false;
    for (const tc::Input &In : X.Inputs)
      if (!In.Type)
        return false;
    for (const tc::Output &O : X.Outputs)
      if (!O.Type)
        return false;
    return true;
  };
  bool Serializable = BodyComplete(T);
  for (const Transaction &F : T.Fallbacks)
    Serializable = Serializable && BodyComplete(F);
  if (Serializable) {
    size_t Size = T.serialize().size();
    if (Size > MaxTcBytes)
      Out.warn("tc-oversize",
               "serialized Typecoin transaction is " +
                   std::to_string(Size) + " bytes (advisory cap " +
                   std::to_string(MaxTcBytes) + ")");
  }
}

/// Diagnostics private to one alternative (primary or a single
/// fallback): its proof term and its claimed types. An error here only
/// condemns this alternative — another may still validate.
void lintAlternative(const Transaction &T, const LintOptions &Opts,
                     LintReport &Out, const std::string &SpanRoot) {
  auto At = [&](const std::string &S) {
    return SpanRoot.empty() ? S : SpanRoot + "/" + S;
  };

  if (!T.Grant)
    Out.error("grant-missing", "transaction has no affine grant (C)",
              At("grant"));
  for (size_t I = 0; I < T.Inputs.size(); ++I)
    if (!T.Inputs[I].Type)
      Out.error("input-type", "input has no claimed type",
                At(idx("input", I)));
  for (size_t I = 0; I < T.Outputs.size(); ++I)
    if (!T.Outputs[I].Type)
      Out.error("output-type", "output has no type", At(idx("output", I)));

  if (!T.Proof) {
    Out.error("proof-missing", "transaction has no proof term",
              At("proof"));
    return;
  }
  AffineAuditOptions AuditOpts;
  AuditOpts.WarnUnused = Opts.WarnUnused;
  auditAffineUsage(T.Proof, {}, {}, Out, At("proof"), AuditOpts);
}

} // namespace

LintReport lint(const Transaction &T, const LintOptions &Opts) {
  LintReport Out;
  lintShared(T, Opts, Out);
  lintAlternative(T, Opts, Out, "");
  for (size_t I = 0; I < T.Fallbacks.size(); ++I)
    lintAlternative(T.Fallbacks[I], Opts, Out, idx("fallback", I));
  return Out;
}

LintReport lintScripts(const bitcoin::Transaction &Btc,
                       const LintOptions &Opts) {
  LintReport Out;
  for (size_t I = 0; I < Btc.Outputs.size(); ++I)
    if (!bitcoin::moneyRange(Btc.Outputs[I].Value))
      Out.error("output-amount", "output value is outside the money range",
                idx("output", I));
  for (const bitcoin::PolicyViolation &V : bitcoin::policyViolations(Btc))
    Out.add(policySeverity(Opts), V.Code, V.Message,
            V.Where ? idx(V.Where, V.Index) : "");
  return Out;
}

LintReport lintEmbedding(const Transaction &T,
                         const bitcoin::Transaction &Btc) {
  LintReport Out;
  auto Embedded = tc::extractMetadata(Btc);
  if (!Embedded) {
    Out.error("embed-missing",
              "no Typecoin metadata found in the Bitcoin transaction "
              "(expected a 1-of-2 multisig, bogus-P2PK, or OP_RETURN "
              "carrier)");
    return Out;
  }
  if (*Embedded != T.hash()) {
    Out.error("embed-mismatch",
              "embedded hash does not match the Typecoin transaction "
              "hash");
    return Out;
  }
  if (auto S = tc::checkCorrespondence(T, Btc); !S)
    Out.error("embed-correspondence", S.error().message());
  return Out;
}

LintReport lint(const tc::Pair &P, const LintOptions &Opts) {
  LintReport Out = lint(P.Tc, Opts);
  Out.merge(lintScripts(P.Btc, Opts), "btc");
  Out.merge(lintEmbedding(P.Tc, P.Btc));
  return Out;
}

Status lintGate(const Transaction &T, const LintOptions &Opts) {
  LintReport Shared;
  lintShared(T, Opts, Shared);
  TC_TRY(Shared.toStatus());
  LintReport Primary;
  lintAlternative(T, Opts, Primary, "");
  if (!Primary.hasErrors())
    return Status::success();
  for (const Transaction &F : T.Fallbacks) {
    LintReport FR;
    lintAlternative(F, Opts, FR, "");
    if (!FR.hasErrors())
      return Status::success(); // Section 5: a valid fallback relays.
  }
  return makeError("lint: primary and every fallback fail pre-validation: " +
                   Primary.firstAtLeast(Severity::Error)->str());
}

} // namespace analysis
} // namespace typecoin
