//===- logic/check.cpp - The affine proof checker -----------------------------===//

#include "logic/check.h"

#include "logic/context.h"

namespace typecoin {
namespace logic {

namespace {

/// The working state of one checking run.
class Engine {
public:
  Engine(const Basis &Sigma, const AffirmationVerifier &Affirm,
         const CheckOptions &Opts)
      : Sigma(Sigma), Affirm(Affirm), Opts(Opts) {}

  Result<PropPtr> run(const ProofPtr &M,
                      const std::vector<Hypothesis> &Affine,
                      const std::vector<Hypothesis> &Persistent) {
    for (const Hypothesis &H : Persistent)
      bind(H.Name, H.P, /*IsPersistent=*/true);
    for (const Hypothesis &H : Affine)
      bind(H.Name, H.P, /*IsPersistent=*/false);
    TC_UNWRAP(Out, infer(M));
    TC_TRY(popScope(0));
    return Out;
  }

private:
  /// A hypothesis's proposition and the LF depth it was bound at.
  struct Bound {
    PropPtr P;
    unsigned PsiDepth = 0;
  };

  const Basis &Sigma;
  const AffirmationVerifier &Affirm;
  CheckOptions Opts;
  lf::Context Psi;
  AffineContext<Bound> Ctx;
  unsigned Depth = 0;

  void bind(const std::string &Name, const PropPtr &P, bool IsPersistent) {
    Ctx.bind(Name, !IsPersistent,
             Bound{P, static_cast<unsigned>(Psi.size())});
  }

  /// Leave a binder scope opened at \p Mark, enforcing linearity if
  /// requested.
  Status popScope(size_t Mark) {
    Status Out = Status::success();
    if (!Opts.StrictLinear)
      Ctx.exitScope(Mark);
    else
      Ctx.exitScope(Mark, [&Out](const auto &E) {
        if (Out)
          Out = makeError("linear: hypothesis " + E.Name +
                          " was never consumed");
      });
    return Out;
  }

  Result<PropPtr> lookupVar(const std::string &Name) {
    auto [What, Hyp] = Ctx.use(Name);
    switch (What) {
    case Use::Unbound:
      return makeError("check: unbound proof variable " + Name);
    case Use::Blocked:
      return makeError("check: affine hypothesis " + Name +
                       " is not available under !");
    case Use::Consumed:
      return makeError("check: affine hypothesis " + Name +
                       " is already consumed");
    case Use::Ok:
      break;
    }
    int Delta = static_cast<int>(Psi.size()) -
                static_cast<int>(Hyp->Data.PsiDepth);
    return shiftProp(Hyp->Data.P, Delta);
  }

  Status checkAgainst(const ProofPtr &M, const PropPtr &Goal) {
    TC_UNWRAP(Actual, infer(M));
    if (!propEqual(Actual, Goal))
      return makeError("check: proof has type " + printProp(Actual) +
                       ", expected " + printProp(Goal));
    return Status::success();
  }

  Result<PropPtr> infer(const ProofPtr &M);
};

Result<PropPtr> Engine::infer(const ProofPtr &M) {
  if (++Depth > MaxTermNesting)
    return makeError("check: proof nesting too deep");
  struct DepthGuard {
    unsigned &D;
    ~DepthGuard() { --D; }
  } Guard{Depth};

  switch (M->Kind) {
  case Proof::Tag::Var:
    return lookupVar(M->Name);

  case Proof::Tag::Const: {
    const PropPtr *P = Sigma.lookupProp(M->CName);
    if (!P)
      return makeError("check: unknown proposition constant " +
                       M->CName.toString());
    // Constants were declared in the empty LF context; shift into the
    // current one.
    return shiftProp(*P, static_cast<int>(Psi.size()));
  }

  case Proof::Tag::Lam: {
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->Annot));
    size_t Mark = Ctx.mark();
    bind(M->X, M->Annot, /*IsPersistent=*/false);
    TC_UNWRAP(BodyType, infer(M->A));
    TC_TRY(popScope(Mark));
    return pLolli(M->Annot, BodyType);
  }

  case Proof::Tag::App: {
    TC_UNWRAP(FnType, infer(M->A));
    if (FnType->Kind != Prop::Tag::Lolli)
      return makeError("check: applying a proof of non-lolli type " +
                       printProp(FnType));
    TC_TRY(checkAgainst(M->B, FnType->L));
    return FnType->R;
  }

  case Proof::Tag::TensorPair: {
    TC_UNWRAP(L, infer(M->A));
    TC_UNWRAP(R, infer(M->B));
    return pTensor(L, R);
  }

  case Proof::Tag::TensorLet: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Tensor)
      return makeError("check: tensor-let on non-tensor type " +
                       printProp(OfType));
    size_t Mark = Ctx.mark();
    bind(M->X, OfType->L, false);
    bind(M->Y, OfType->R, false);
    TC_UNWRAP(BodyType, infer(M->B));
    TC_TRY(popScope(Mark));
    return BodyType;
  }

  case Proof::Tag::WithPair: {
    // Both components see the same affine context; consumption is the
    // union (only one will ever be used, and the pair as a whole claims
    // everything either needs).
    std::vector<bool> Before = Ctx.snapshot();
    TC_UNWRAP(L, infer(M->A));
    std::vector<bool> AfterL = Ctx.snapshot();
    Ctx.restore(Before);
    TC_UNWRAP(R, infer(M->B));
    std::vector<bool> AfterR = Ctx.snapshot();
    Ctx.merge(AfterL, AfterR);
    return pWith(L, R);
  }

  case Proof::Tag::WithFst:
  case Proof::Tag::WithSnd: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::With)
      return makeError("check: projection from non-& type " +
                       printProp(OfType));
    return M->Kind == Proof::Tag::WithFst ? OfType->L : OfType->R;
  }

  case Proof::Tag::Inl: {
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->Annot));
    TC_UNWRAP(L, infer(M->A));
    return pPlus(L, M->Annot);
  }
  case Proof::Tag::Inr: {
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->Annot));
    TC_UNWRAP(R, infer(M->A));
    return pPlus(M->Annot, R);
  }

  case Proof::Tag::Case: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Plus)
      return makeError("check: case on non-(+) type " + printProp(OfType));
    std::vector<bool> Before = Ctx.snapshot();

    size_t Mark = Ctx.mark();
    bind(M->X, OfType->L, false);
    TC_UNWRAP(LeftType, infer(M->B));
    TC_TRY(popScope(Mark));
    std::vector<bool> AfterL = Ctx.snapshot();

    Ctx.restore(Before);
    bind(M->Y, OfType->R, false);
    TC_UNWRAP(RightType, infer(M->C));
    TC_TRY(popScope(Mark));
    std::vector<bool> AfterR = Ctx.snapshot();

    Ctx.merge(AfterL, AfterR);
    if (!propEqual(LeftType, RightType))
      return makeError("check: case branches prove different "
                       "propositions: " +
                       printProp(LeftType) + " vs " + printProp(RightType));
    return LeftType;
  }

  case Proof::Tag::Abort: {
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->Annot));
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Zero)
      return makeError("check: abort on non-0 type " + printProp(OfType));
    return M->Annot;
  }

  case Proof::Tag::OneIntro:
    return pOne();

  case Proof::Tag::OneLet: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::One)
      return makeError("check: unit-let on non-1 type " +
                       printProp(OfType));
    return infer(M->B);
  }

  case Proof::Tag::BangIntro: {
    // The body may use only persistent hypotheses.
    std::vector<size_t> Blocked = Ctx.block();
    auto BodyType = infer(M->A);
    Ctx.unblock(Blocked);
    if (!BodyType)
      return BodyType.takeError();
    return pBang(*BodyType);
  }

  case Proof::Tag::BangLet: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Bang)
      return makeError("check: bang-let on non-! type " +
                       printProp(OfType));
    size_t Mark = Ctx.mark();
    bind(M->X, OfType->Body, /*IsPersistent=*/true);
    TC_UNWRAP(BodyType, infer(M->B));
    TC_TRY(popScope(Mark));
    return BodyType;
  }

  case Proof::Tag::AllIntro: {
    TC_UNWRAP(QKind, lf::kindOfType(Sigma.lfSig(), Psi, M->QAnnot));
    if (QKind->KindTag != lf::Kind::Tag::Type)
      return makeError("check: quantifier domain must have kind type");
    Psi.push_back(M->QAnnot);
    auto BodyType = infer(M->A);
    Psi.pop_back();
    if (!BodyType)
      return BodyType.takeError();
    return pForall(M->QAnnot, *BodyType);
  }

  case Proof::Tag::AllApp: {
    TC_UNWRAP(FnType, infer(M->A));
    if (FnType->Kind != Prop::Tag::Forall)
      return makeError("check: index application to non-forall type " +
                       printProp(FnType));
    TC_TRY(lf::checkTerm(Sigma.lfSig(), Psi, M->ITerm, FnType->QType));
    return substProp(FnType->Body, 0, M->ITerm);
  }

  case Proof::Tag::ExPack: {
    if (M->Annot->Kind != Prop::Tag::Exists)
      return makeError("check: pack annotation must be existential");
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->Annot));
    TC_TRY(lf::checkTerm(Sigma.lfSig(), Psi, M->ITerm, M->Annot->QType));
    TC_TRY(checkAgainst(M->A, substProp(M->Annot->Body, 0, M->ITerm)));
    return M->Annot;
  }

  case Proof::Tag::ExUnpack: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Exists)
      return makeError("check: unpack of non-existential type " +
                       printProp(OfType));
    Psi.push_back(OfType->QType);
    size_t Mark = Ctx.mark();
    bind(M->X, OfType->Body, false);
    auto BodyType = infer(M->B);
    Status Popped = popScope(Mark);
    Psi.pop_back();
    TC_TRY(std::move(Popped));
    if (!BodyType)
      return BodyType.takeError();
    if (propHasFreeVar(*BodyType, 0))
      return makeError("check: unpack body's type mentions the "
                       "existential witness: " +
                       printProp(*BodyType));
    return shiftProp(*BodyType, -1);
  }

  case Proof::Tag::SayReturn: {
    TC_TRY(lf::checkTerm(Sigma.lfSig(), Psi, M->Who, lf::principalType()));
    TC_UNWRAP(BodyType, infer(M->A));
    return pSays(M->Who, BodyType);
  }

  case Proof::Tag::SayBind: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Says)
      return makeError("check: saybind of non-affirmation type " +
                       printProp(OfType));
    size_t Mark = Ctx.mark();
    bind(M->X, OfType->Body, false);
    TC_UNWRAP(BodyType, infer(M->B));
    TC_TRY(popScope(Mark));
    if (BodyType->Kind != Prop::Tag::Says ||
        !lf::termEqual(BodyType->Who, OfType->Who))
      return makeError("check: saybind body must prove an affirmation "
                       "by the same principal, got " +
                       printProp(BodyType));
    return BodyType;
  }

  case Proof::Tag::Assert:
  case Proof::Tag::AssertBang: {
    if (M->KHash.size() != 40)
      return makeError("check: assert principal must be 40 hex digits");
    TC_TRY(checkProp(Sigma.lfSig(), Psi, M->AProp));
    if (M->Kind == Proof::Tag::Assert)
      TC_TRY(Affirm.verifyAffine(M->KHash, M->AProp, M->Sig));
    else
      TC_TRY(Affirm.verifyPersistent(M->KHash, M->AProp, M->Sig));
    return pSays(lf::principal(M->KHash), M->AProp);
  }

  case Proof::Tag::IfReturn: {
    TC_UNWRAP(BodyType, infer(M->A));
    // Condition formation.
    PropPtr Wrapped = pIf(M->Phi, BodyType);
    TC_TRY(checkProp(Sigma.lfSig(), Psi, Wrapped));
    return Wrapped;
  }

  case Proof::Tag::IfBind: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::If)
      return makeError("check: ifbind of non-conditional type " +
                       printProp(OfType));
    size_t Mark = Ctx.mark();
    bind(M->X, OfType->Body, false);
    TC_UNWRAP(BodyType, infer(M->B));
    TC_TRY(popScope(Mark));
    if (BodyType->Kind != Prop::Tag::If ||
        !condEqual(BodyType->Cond, OfType->Cond))
      return makeError("check: ifbind body must prove a conditional "
                       "under the same condition, got " +
                       printProp(BodyType));
    return BodyType;
  }

  case Proof::Tag::IfWeaken: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::If)
      return makeError("check: ifweaken of non-conditional type " +
                       printProp(OfType));
    PropPtr Wrapped = pIf(M->Phi, OfType->Body);
    TC_TRY(checkProp(Sigma.lfSig(), Psi, Wrapped));
    if (!condEntails(M->Phi, OfType->Cond))
      return makeError("check: ifweaken requires " + printCond(M->Phi) +
                       " => " + printCond(OfType->Cond));
    return Wrapped;
  }

  case Proof::Tag::IfSay: {
    TC_UNWRAP(OfType, infer(M->A));
    if (OfType->Kind != Prop::Tag::Says ||
        OfType->Body->Kind != Prop::Tag::If)
      return makeError("check: if/say expects <m>if(phi, A), got " +
                       printProp(OfType));
    return pIf(OfType->Body->Cond, pSays(OfType->Who, OfType->Body->Body));
  }
  }
  return makeError("check: malformed proof term");
}

} // namespace

Result<PropPtr> ProofChecker::infer(const ProofPtr &M,
                                    const std::vector<Hypothesis> &Affine,
                                    const std::vector<Hypothesis> &Persistent) {
  Engine E(Sigma, Affirm, Opts);
  return E.run(M, Affine, Persistent);
}

Status ProofChecker::check(const ProofPtr &M, const PropPtr &Goal,
                           const std::vector<Hypothesis> &Affine,
                           const std::vector<Hypothesis> &Persistent) {
  TC_UNWRAP(Actual, infer(M, Affine, Persistent));
  if (!propEqual(Actual, Goal))
    return makeError("check: proof proves " + printProp(Actual) +
                     ", expected " + printProp(Goal));
  return Status::success();
}

} // namespace logic
} // namespace typecoin
