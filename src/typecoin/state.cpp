//===- typecoin/state.cpp - Typecoin chain state and T-ok checking -----------===//

#include "typecoin/state.h"

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace typecoin {
namespace tc {

using logic::PropPtr;

/// Per-rule obs probes for the `T ok` pipeline: one counter for checks,
/// one for failures, one latency histogram per numbered rule of
/// checkTransaction plus the end-to-end total. Looked up once per process.
namespace {
struct CheckerMetrics {
  obs::Counter &Checks = obs::counter("checker.checks");
  obs::Counter &Failures = obs::counter("checker.failures");
  obs::Histogram &TotalNs = obs::latencyHistogram("checker.check_ns");
  obs::Histogram &BasisNs = obs::latencyHistogram("checker.rule.basis_ns");
  obs::Histogram &GrantNs = obs::latencyHistogram("checker.rule.grant_ns");
  obs::Histogram &InputsNs = obs::latencyHistogram("checker.rule.inputs_ns");
  obs::Histogram &OutputsNs =
      obs::latencyHistogram("checker.rule.outputs_ns");
  obs::Histogram &ProofNs = obs::latencyHistogram("checker.rule.proof_ns");
  obs::Histogram &ConditionNs =
      obs::latencyHistogram("checker.rule.condition_ns");

  static CheckerMetrics &get() {
    static CheckerMetrics M;
    return M;
  }
};
} // namespace

Status State::checkTransaction(const Transaction &T,
                               const logic::CondOracle &Oracle) const {
  CheckerMetrics &M = CheckerMetrics::get();
  M.Checks.inc();
  obs::ScopedTimer Total(M.TotalNs);
  obs::Span Trace("checker.check");
  // Count the failure on every early exit; rules below return through
  // TC_TRY, so a scope guard is the only reliable funnel.
  struct FailureGuard {
    obs::Counter &Failures;
    bool Disarmed = false;
    ~FailureGuard() {
      if (!Disarmed)
        Failures.inc();
    }
  } Guard{M.Failures};

  // 1. Local basis: well-formed against the global basis, and fresh.
  {
    obs::Span S("checker.basis");
    obs::ScopedTimer Rule(M.BasisNs);
    TC_TRY(T.LocalBasis.checkFormedAgainst(Global));
    TC_TRY(T.LocalBasis.checkFresh());
  }

  // Sigma_global, Sigma.
  logic::Basis Combined = Global;
  TC_TRY(Combined.append(T.LocalBasis));

  // 2. Affine grant: well-formed and fresh.
  {
    obs::Span S("checker.grant");
    obs::ScopedTimer Rule(M.GrantNs);
    TC_TRY(logic::checkProp(Combined.lfSig(), {}, T.Grant));
    if (auto S2 = logic::checkPropFresh(T.Grant); !S2)
      return S2.takeError().withContext("grant");
  }

  // 3. Every transaction must have at least one input (Section 2:
  // replayed transactions are invalid because "every transaction has at
  // least one input").
  if (T.Inputs.empty())
    return makeError("typecoin: transaction has no inputs");

  // 4. Inputs: claimed types are well-formed and agree with the types of
  // the outputs they spend; no duplicates.
  {
    obs::Span S("checker.inputs");
    obs::ScopedTimer Rule(M.InputsNs);
    std::set<std::pair<std::string, uint32_t>> Seen;
    for (size_t I = 0; I < T.Inputs.size(); ++I) {
      const Input &In = T.Inputs[I];
      if (!Seen.insert({In.SourceTxid, In.SourceIndex}).second)
        return makeError("typecoin: duplicate input " + In.SourceTxid +
                         ":" + std::to_string(In.SourceIndex));
      if (Consumed.count({In.SourceTxid, In.SourceIndex}))
        return makeError("typecoin: input " + In.SourceTxid + ":" +
                         std::to_string(In.SourceIndex) +
                         " is already consumed");
      TC_TRY(logic::checkProp(Combined.lfSig(), {}, In.Type));
      PropPtr Expected = outputType(In.SourceTxid, In.SourceIndex);
      if (!logic::propEqual(In.Type, Expected))
        return makeError("typecoin: input " + std::to_string(I) +
                         " claims type " + logic::printProp(In.Type) +
                         " but the spent output has type " +
                         logic::printProp(Expected));
      auto KnownAmount = outputAmount(In.SourceTxid, In.SourceIndex);
      if (KnownAmount && *KnownAmount != In.Amount)
        return makeError("typecoin: input " + std::to_string(I) +
                         " amount disagrees with the spent output");
    }
  }

  // 5. Output types are well-formed.
  {
    obs::Span S("checker.outputs");
    obs::ScopedTimer Rule(M.OutputsNs);
    for (size_t I = 0; I < T.Outputs.size(); ++I) {
      const Output &Out = T.Outputs[I];
      if (!Out.Owner.isValid())
        return makeError("typecoin: output " + std::to_string(I) +
                         " has an invalid owner key");
      TC_TRY(logic::checkProp(Combined.lfSig(), {}, Out.Type));
    }
  }

  // 6. The proof obligation.
  logic::CondPtr Phi = logic::cTrue();
  {
    obs::Span S("checker.proof");
    obs::ScopedTimer Rule(M.ProofNs);
    TxAffirmationVerifier Affirm(T);
    logic::ProofChecker Checker(Combined, Affirm);
    TC_UNWRAP(Proved, Checker.infer(T.Proof));
    if (Proved->Kind != logic::Prop::Tag::Lolli)
      return makeError("typecoin: proof term proves " +
                       logic::printProp(Proved) +
                       ", expected a lolli obligation");
    PropPtr CAR = logic::pTensor(
        T.Grant, logic::pTensor(T.inputTensor(), T.receiptTensor()));
    if (!logic::propEqual(Proved->L, CAR))
      return makeError("typecoin: proof consumes " +
                       logic::printProp(Proved->L) + ", expected " +
                       logic::printProp(CAR));

    PropPtr B = T.outputTensor();
    PropPtr Produced = Proved->R;
    if (Produced->Kind == logic::Prop::Tag::If) {
      Phi = Produced->Cond;
      Produced = Produced->Body;
    }
    if (!logic::propEqual(Produced, B))
      return makeError("typecoin: proof produces " +
                       logic::printProp(Produced) + ", expected " +
                       logic::printProp(B));
  }

  // 7. The condition must hold now, with blockchain evidence.
  {
    obs::Span S("checker.condition");
    obs::ScopedTimer Rule(M.ConditionNs);
    TC_UNWRAP(Holds, logic::evalCond(Phi, Oracle));
    if (!Holds)
      return makeError("typecoin: condition " + logic::printCond(Phi) +
                       " does not hold");
  }
  Guard.Disarmed = true;
  return Status::success();
}

Result<size_t> State::selectValid(const Transaction &T,
                                  const logic::CondOracle &Oracle) const {
  Status Primary = checkTransaction(T, Oracle);
  if (Primary)
    return static_cast<size_t>(0);
  for (size_t I = 0; I < T.Fallbacks.size(); ++I)
    if (checkTransaction(T.Fallbacks[I], Oracle))
      return I + 1;
  if (T.Fallbacks.empty())
    return Primary.takeError();
  return Primary.takeError().withContext(
      "typecoin: no valid alternative (primary and " +
      std::to_string(T.Fallbacks.size()) + " fallbacks all invalid); primary");
}

Result<size_t> State::applyTransaction(const Transaction &T,
                                       const std::string &Txid,
                                       const logic::CondOracle &Oracle) {
  if (Txs.count(Txid))
    return makeError("typecoin: transaction " + Txid.substr(0, 8) +
                     " already registered");

  auto Selected = selectValid(T, Oracle);
  const Transaction *Effective = nullptr;
  size_t Index;
  if (Selected) {
    Index = *Selected;
    Effective = Index == 0 ? &T : &T.Fallbacks[Index - 1];
  } else {
    // Spoiled: inputs are consumed, nothing is produced (Section 5,
    // "an invalid transaction spoils its inputs").
    Index = T.Fallbacks.size() + 1;
  }

  const Transaction &ForInputs = Effective ? *Effective : T;
  // Double-spend rejection at this layer (Bitcoin enforces it too).
  for (const Input &In : ForInputs.Inputs)
    if (Consumed.count({In.SourceTxid, In.SourceIndex}))
      return makeError("typecoin: input " + In.SourceTxid + ":" +
                       std::to_string(In.SourceIndex) +
                       " is already consumed");

  static obs::Counter &RegisteredC = obs::counter("checker.registered");
  static obs::Counter &SpoiledC = obs::counter("checker.spoiled");
  (Effective ? RegisteredC : SpoiledC).inc();

  Entry E;
  E.T = ForInputs;
  E.Spoiled = Effective == nullptr;
  if (Effective) {
    for (const Output &Out : Effective->Outputs)
      E.ResolvedOutputTypes.push_back(logic::resolveProp(Out.Type, Txid));
    TC_TRY(Global.append(Effective->LocalBasis.resolved(Txid)));
  } else {
    for (size_t I = 0; I < T.Outputs.size(); ++I)
      E.ResolvedOutputTypes.push_back(logic::pOne());
  }
  for (const Input &In : ForInputs.Inputs)
    Consumed.insert({In.SourceTxid, In.SourceIndex});
  Txs[Txid] = std::move(E);
  return Index;
}

PropPtr State::outputType(const std::string &Txid, uint32_t Index) const {
  auto It = Txs.find(Txid);
  if (It == Txs.end())
    return logic::pOne(); // Trivial type for non-Typecoin txouts.
  if (Index >= It->second.ResolvedOutputTypes.size())
    return logic::pOne();
  return It->second.ResolvedOutputTypes[Index];
}

std::optional<bitcoin::Amount>
State::outputAmount(const std::string &Txid, uint32_t Index) const {
  auto It = Txs.find(Txid);
  if (It == Txs.end() || It->second.Spoiled ||
      Index >= It->second.T.Outputs.size())
    return std::nullopt;
  return It->second.T.Outputs[Index].Amount;
}

bool State::isConsumed(const std::string &Txid, uint32_t Index) const {
  return Consumed.count({Txid, Index}) != 0;
}

const Transaction *State::find(const std::string &Txid) const {
  auto It = Txs.find(Txid);
  return It == Txs.end() ? nullptr : &It->second.T;
}

std::vector<std::string> State::registeredTxids() const {
  std::vector<std::string> Out;
  Out.reserve(Txs.size());
  for (const auto &[Txid, E] : Txs)
    Out.push_back(Txid);
  return Out;
}

bool State::isSpoiled(const std::string &Txid) const {
  auto It = Txs.find(Txid);
  return It != Txs.end() && It->second.Spoiled;
}

std::string State::fingerprint() const {
  crypto::Sha256 Hasher;
  auto Feed = [&Hasher](const std::string &S) {
    // Length-prefix every field so concatenations cannot collide.
    uint64_t Len = S.size();
    Hasher.update(reinterpret_cast<const uint8_t *>(&Len), sizeof(Len));
    Hasher.update(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  };
  for (const auto &[Txid, E] : Txs) {
    Feed(Txid);
    Feed(E.Spoiled ? "spoiled" : "valid");
    Feed(std::to_string(E.ResolvedOutputTypes.size()));
    for (const logic::PropPtr &P : E.ResolvedOutputTypes) {
      // Feed the memoized content digest instead of re-printing the
      // proposition: fingerprints are only ever compared against other
      // in-process fingerprints, so any injective encoding works.
      crypto::Digest32 D = logic::propDigest(P);
      Hasher.update(D.data(), D.size());
    }
  }
  Feed("|consumed|");
  for (const auto &[Txid, Index] : Consumed) {
    Feed(Txid);
    Feed(std::to_string(Index));
  }
  return toHex(Hasher.finalize());
}

Result<logic::PropPtr> verifyClaimedOutput(
    const std::vector<std::pair<std::string, Transaction>> &OrderedUpstream,
    const std::string &Txid, uint32_t Index, const logic::PropPtr &Claimed,
    const logic::CondOracle &Oracle) {
  State Fresh;
  for (const auto &[UpTxid, UpTx] : OrderedUpstream) {
    auto Applied = Fresh.applyTransaction(UpTx, UpTxid, Oracle);
    if (!Applied)
      return Applied.takeError().withContext("upstream " +
                                             UpTxid.substr(0, 8));
  }
  logic::PropPtr Actual = Fresh.outputType(Txid, Index);
  if (!logic::propEqual(Actual, Claimed))
    return makeError("verify: output has type " + logic::printProp(Actual) +
                     ", not the claimed " + logic::printProp(Claimed));
  return Actual;
}

} // namespace tc
} // namespace typecoin
