//===- logic/proof.cpp - Proof terms -------------------------------------------===//

#include "logic/proof.h"

namespace typecoin {
namespace logic {

static std::shared_ptr<Proof> make(Proof::Tag Kind) {
  return std::make_shared<Proof>(Kind);
}

ProofPtr mVar(std::string Name) {
  auto P = make(Proof::Tag::Var);
  P->Name = std::move(Name);
  return P;
}

ProofPtr mConst(lf::ConstName Name) {
  auto P = make(Proof::Tag::Const);
  P->CName = std::move(Name);
  return P;
}

ProofPtr mLam(std::string X, PropPtr Dom, ProofPtr Body) {
  auto P = make(Proof::Tag::Lam);
  P->X = std::move(X);
  P->Annot = std::move(Dom);
  P->A = std::move(Body);
  return P;
}

ProofPtr mApp(ProofPtr Fn, ProofPtr Arg) {
  auto P = make(Proof::Tag::App);
  P->A = std::move(Fn);
  P->B = std::move(Arg);
  return P;
}

ProofPtr mApps(ProofPtr Fn, const std::vector<ProofPtr> &Args) {
  ProofPtr Out = std::move(Fn);
  for (const ProofPtr &Arg : Args)
    Out = mApp(Out, Arg);
  return Out;
}

ProofPtr mTensorPair(ProofPtr L, ProofPtr R) {
  auto P = make(Proof::Tag::TensorPair);
  P->A = std::move(L);
  P->B = std::move(R);
  return P;
}

ProofPtr mTensorLet(std::string X, std::string Y, ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::TensorLet);
  P->X = std::move(X);
  P->Y = std::move(Y);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

ProofPtr mWithPair(ProofPtr L, ProofPtr R) {
  auto P = make(Proof::Tag::WithPair);
  P->A = std::move(L);
  P->B = std::move(R);
  return P;
}

ProofPtr mWithFst(ProofPtr M) {
  auto P = make(Proof::Tag::WithFst);
  P->A = std::move(M);
  return P;
}

ProofPtr mWithSnd(ProofPtr M) {
  auto P = make(Proof::Tag::WithSnd);
  P->A = std::move(M);
  return P;
}

ProofPtr mInl(PropPtr RightSide, ProofPtr M) {
  auto P = make(Proof::Tag::Inl);
  P->Annot = std::move(RightSide);
  P->A = std::move(M);
  return P;
}

ProofPtr mInr(PropPtr LeftSide, ProofPtr M) {
  auto P = make(Proof::Tag::Inr);
  P->Annot = std::move(LeftSide);
  P->A = std::move(M);
  return P;
}

ProofPtr mCase(ProofPtr Of, std::string X, ProofPtr Left, std::string Y,
               ProofPtr Right) {
  auto P = make(Proof::Tag::Case);
  P->A = std::move(Of);
  P->X = std::move(X);
  P->B = std::move(Left);
  P->Y = std::move(Y);
  P->C = std::move(Right);
  return P;
}

ProofPtr mAbort(PropPtr Goal, ProofPtr M) {
  auto P = make(Proof::Tag::Abort);
  P->Annot = std::move(Goal);
  P->A = std::move(M);
  return P;
}

ProofPtr mOne() {
  static const ProofPtr P = make(Proof::Tag::OneIntro);
  return P;
}

ProofPtr mOneLet(ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::OneLet);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

ProofPtr mBang(ProofPtr M) {
  auto P = make(Proof::Tag::BangIntro);
  P->A = std::move(M);
  return P;
}

ProofPtr mBangLet(std::string X, ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::BangLet);
  P->X = std::move(X);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

ProofPtr mAllIntro(lf::LFTypePtr Dom, ProofPtr Body) {
  auto P = make(Proof::Tag::AllIntro);
  P->QAnnot = std::move(Dom);
  P->A = std::move(Body);
  return P;
}

ProofPtr mAllApp(ProofPtr M, lf::TermPtr Index) {
  auto P = make(Proof::Tag::AllApp);
  P->A = std::move(M);
  P->ITerm = std::move(Index);
  return P;
}

ProofPtr mAllApps(ProofPtr M, const std::vector<lf::TermPtr> &Indexes) {
  ProofPtr Out = std::move(M);
  for (const lf::TermPtr &I : Indexes)
    Out = mAllApp(Out, I);
  return Out;
}

ProofPtr mPack(PropPtr Existential, lf::TermPtr Witness, ProofPtr M) {
  auto P = make(Proof::Tag::ExPack);
  P->Annot = std::move(Existential);
  P->ITerm = std::move(Witness);
  P->A = std::move(M);
  return P;
}

ProofPtr mUnpack(std::string X, ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::ExUnpack);
  P->X = std::move(X);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

ProofPtr mSayReturn(lf::TermPtr Who, ProofPtr M) {
  auto P = make(Proof::Tag::SayReturn);
  P->Who = std::move(Who);
  P->A = std::move(M);
  return P;
}

ProofPtr mSayBind(std::string X, ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::SayBind);
  P->X = std::move(X);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

static ProofPtr makeAssert(Proof::Tag Kind, std::string KHash, PropPtr A,
                           Bytes Sig) {
  auto P = make(Kind);
  P->KHash = std::move(KHash);
  P->AProp = std::move(A);
  P->Sig = std::move(Sig);
  return P;
}

ProofPtr mAssert(std::string KHash, PropPtr A, Bytes Sig) {
  return makeAssert(Proof::Tag::Assert, std::move(KHash), std::move(A),
                    std::move(Sig));
}

ProofPtr mAssertBang(std::string KHash, PropPtr A, Bytes Sig) {
  return makeAssert(Proof::Tag::AssertBang, std::move(KHash), std::move(A),
                    std::move(Sig));
}

ProofPtr mIfReturn(CondPtr Phi, ProofPtr M) {
  auto P = make(Proof::Tag::IfReturn);
  P->Phi = std::move(Phi);
  P->A = std::move(M);
  return P;
}

ProofPtr mIfBind(std::string X, ProofPtr Of, ProofPtr In) {
  auto P = make(Proof::Tag::IfBind);
  P->X = std::move(X);
  P->A = std::move(Of);
  P->B = std::move(In);
  return P;
}

ProofPtr mIfWeaken(CondPtr Phi, ProofPtr M) {
  auto P = make(Proof::Tag::IfWeaken);
  P->Phi = std::move(Phi);
  P->A = std::move(M);
  return P;
}

ProofPtr mIfSay(ProofPtr M) {
  auto P = make(Proof::Tag::IfSay);
  P->A = std::move(M);
  return P;
}

// Resolution --------------------------------------------------------------------

ProofPtr resolveProof(const ProofPtr &M, const std::string &Txid) {
  if (!M)
    return M;
  auto P = std::make_shared<Proof>(*M);
  P->A = resolveProof(M->A, Txid);
  P->B = resolveProof(M->B, Txid);
  P->C = resolveProof(M->C, Txid);
  if (M->CName.isLocal())
    P->CName = M->CName.resolved(Txid);
  if (M->Annot)
    P->Annot = resolveProp(M->Annot, Txid);
  if (M->QAnnot)
    P->QAnnot = lf::resolveType(M->QAnnot, Txid);
  if (M->ITerm)
    P->ITerm = lf::resolveTerm(M->ITerm, Txid);
  if (M->Who)
    P->Who = lf::resolveTerm(M->Who, Txid);
  if (M->AProp)
    P->AProp = resolveProp(M->AProp, Txid);
  return P;
}

// Printing ----------------------------------------------------------------------

std::string printProof(const ProofPtr &M) {
  switch (M->Kind) {
  case Proof::Tag::Var:
    return M->Name;
  case Proof::Tag::Const:
    return M->CName.toString();
  case Proof::Tag::Lam:
    return "\\" + M->X + ":" + printProp(M->Annot) + ". " +
           printProof(M->A);
  case Proof::Tag::App:
    return "(" + printProof(M->A) + " " + printProof(M->B) + ")";
  case Proof::Tag::TensorPair:
    return "(" + printProof(M->A) + ", " + printProof(M->B) + ")";
  case Proof::Tag::TensorLet:
    return "let (" + M->X + ", " + M->Y + ") = " + printProof(M->A) +
           " in " + printProof(M->B);
  case Proof::Tag::WithPair:
    return "<" + printProof(M->A) + ", " + printProof(M->B) + ">";
  case Proof::Tag::WithFst:
    return "fst " + printProof(M->A);
  case Proof::Tag::WithSnd:
    return "snd " + printProof(M->A);
  case Proof::Tag::Inl:
    return "inl " + printProof(M->A);
  case Proof::Tag::Inr:
    return "inr " + printProof(M->A);
  case Proof::Tag::Case:
    return "case " + printProof(M->A) + " of inl " + M->X + " -> " +
           printProof(M->B) + " | inr " + M->Y + " -> " + printProof(M->C);
  case Proof::Tag::Abort:
    return "abort " + printProof(M->A);
  case Proof::Tag::OneIntro:
    return "()";
  case Proof::Tag::OneLet:
    return "let () = " + printProof(M->A) + " in " + printProof(M->B);
  case Proof::Tag::BangIntro:
    return "!" + printProof(M->A);
  case Proof::Tag::BangLet:
    return "let !" + M->X + " = " + printProof(M->A) + " in " +
           printProof(M->B);
  case Proof::Tag::AllIntro:
    return "/\\:" + lf::printType(M->QAnnot) + ". " + printProof(M->A);
  case Proof::Tag::AllApp:
    return printProof(M->A) + " [" + lf::printTerm(M->ITerm) + "]";
  case Proof::Tag::ExPack:
    return "pack(" + lf::printTerm(M->ITerm) + ", " + printProof(M->A) +
           ")";
  case Proof::Tag::ExUnpack:
    return "let (_, " + M->X + ") = unpack " + printProof(M->A) + " in " +
           printProof(M->B);
  case Proof::Tag::SayReturn:
    return "sayreturn_" + lf::printTerm(M->Who) + "(" + printProof(M->A) +
           ")";
  case Proof::Tag::SayBind:
    return "saybind " + M->X + " <- " + printProof(M->A) + " in " +
           printProof(M->B);
  case Proof::Tag::Assert:
    return "assert(K:" + M->KHash.substr(0, 8) + ", " +
           printProp(M->AProp) + ")";
  case Proof::Tag::AssertBang:
    return "assert!(K:" + M->KHash.substr(0, 8) + ", " +
           printProp(M->AProp) + ")";
  case Proof::Tag::IfReturn:
    return "ifreturn_" + printCond(M->Phi) + "(" + printProof(M->A) + ")";
  case Proof::Tag::IfBind:
    return "ifbind " + M->X + " <- " + printProof(M->A) + " in " +
           printProof(M->B);
  case Proof::Tag::IfWeaken:
    return "ifweaken_" + printCond(M->Phi) + "(" + printProof(M->A) + ")";
  case Proof::Tag::IfSay:
    return "if/say(" + printProof(M->A) + ")";
  }
  return "?";
}

// Serialization --------------------------------------------------------------------

void writeProof(Writer &W, const ProofPtr &M) {
  W.writeU8(static_cast<uint8_t>(M->Kind));
  auto WriteChild = [&](const ProofPtr &P) { writeProof(W, P); };
  switch (M->Kind) {
  case Proof::Tag::Var:
    W.writeString(M->Name);
    break;
  case Proof::Tag::Const:
    lf::writeConstName(W, M->CName);
    break;
  case Proof::Tag::Lam:
    W.writeString(M->X);
    writeProp(W, M->Annot);
    WriteChild(M->A);
    break;
  case Proof::Tag::App:
  case Proof::Tag::TensorPair:
  case Proof::Tag::WithPair:
    WriteChild(M->A);
    WriteChild(M->B);
    break;
  case Proof::Tag::TensorLet:
    W.writeString(M->X);
    W.writeString(M->Y);
    WriteChild(M->A);
    WriteChild(M->B);
    break;
  case Proof::Tag::WithFst:
  case Proof::Tag::WithSnd:
  case Proof::Tag::BangIntro:
  case Proof::Tag::IfSay:
    WriteChild(M->A);
    break;
  case Proof::Tag::Inl:
  case Proof::Tag::Inr:
    writeProp(W, M->Annot);
    WriteChild(M->A);
    break;
  case Proof::Tag::Case:
    WriteChild(M->A);
    W.writeString(M->X);
    WriteChild(M->B);
    W.writeString(M->Y);
    WriteChild(M->C);
    break;
  case Proof::Tag::Abort:
    writeProp(W, M->Annot);
    WriteChild(M->A);
    break;
  case Proof::Tag::OneIntro:
    break;
  case Proof::Tag::OneLet:
    WriteChild(M->A);
    WriteChild(M->B);
    break;
  case Proof::Tag::BangLet:
  case Proof::Tag::SayBind:
  case Proof::Tag::IfBind:
  case Proof::Tag::ExUnpack:
    W.writeString(M->X);
    WriteChild(M->A);
    WriteChild(M->B);
    break;
  case Proof::Tag::AllIntro:
    lf::writeType(W, M->QAnnot);
    WriteChild(M->A);
    break;
  case Proof::Tag::AllApp:
    WriteChild(M->A);
    lf::writeTerm(W, M->ITerm);
    break;
  case Proof::Tag::ExPack:
    writeProp(W, M->Annot);
    lf::writeTerm(W, M->ITerm);
    WriteChild(M->A);
    break;
  case Proof::Tag::SayReturn:
    lf::writeTerm(W, M->Who);
    WriteChild(M->A);
    break;
  case Proof::Tag::Assert:
  case Proof::Tag::AssertBang:
    W.writeString(M->KHash);
    writeProp(W, M->AProp);
    W.writeVarBytes(M->Sig);
    break;
  case Proof::Tag::IfReturn:
  case Proof::Tag::IfWeaken:
    writeCond(W, M->Phi);
    WriteChild(M->A);
    break;
  }
}

Result<ProofPtr> readProof(Reader &R) {
  Reader::Nest Level(R);
  TC_TRY(Level.check());
  TC_UNWRAP(TagByte, R.readU8());
  auto Tag = static_cast<Proof::Tag>(TagByte);
  switch (Tag) {
  case Proof::Tag::Var: {
    TC_UNWRAP(Name, R.readString());
    return mVar(std::move(Name));
  }
  case Proof::Tag::Const: {
    TC_UNWRAP(Name, lf::readConstName(R));
    return mConst(Name);
  }
  case Proof::Tag::Lam: {
    TC_UNWRAP(X, R.readString());
    TC_UNWRAP(Dom, readProp(R));
    TC_UNWRAP(Body, readProof(R));
    return mLam(std::move(X), std::move(Dom), std::move(Body));
  }
  case Proof::Tag::App:
  case Proof::Tag::TensorPair:
  case Proof::Tag::WithPair: {
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(B, readProof(R));
    if (Tag == Proof::Tag::App)
      return mApp(std::move(A), std::move(B));
    if (Tag == Proof::Tag::TensorPair)
      return mTensorPair(std::move(A), std::move(B));
    return mWithPair(std::move(A), std::move(B));
  }
  case Proof::Tag::TensorLet: {
    TC_UNWRAP(X, R.readString());
    TC_UNWRAP(Y, R.readString());
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(B, readProof(R));
    return mTensorLet(std::move(X), std::move(Y), std::move(A), std::move(B));
  }
  case Proof::Tag::WithFst:
  case Proof::Tag::WithSnd:
  case Proof::Tag::BangIntro:
  case Proof::Tag::IfSay: {
    TC_UNWRAP(A, readProof(R));
    if (Tag == Proof::Tag::WithFst)
      return mWithFst(std::move(A));
    if (Tag == Proof::Tag::WithSnd)
      return mWithSnd(std::move(A));
    if (Tag == Proof::Tag::BangIntro)
      return mBang(std::move(A));
    return mIfSay(std::move(A));
  }
  case Proof::Tag::Inl:
  case Proof::Tag::Inr: {
    TC_UNWRAP(Annot, readProp(R));
    TC_UNWRAP(A, readProof(R));
    return Tag == Proof::Tag::Inl ? mInl(std::move(Annot), std::move(A))
                                  : mInr(std::move(Annot), std::move(A));
  }
  case Proof::Tag::Case: {
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(X, R.readString());
    TC_UNWRAP(B, readProof(R));
    TC_UNWRAP(Y, R.readString());
    TC_UNWRAP(C, readProof(R));
    return mCase(std::move(A), std::move(X), std::move(B), std::move(Y),
                 std::move(C));
  }
  case Proof::Tag::Abort: {
    TC_UNWRAP(Annot, readProp(R));
    TC_UNWRAP(A, readProof(R));
    return mAbort(std::move(Annot), std::move(A));
  }
  case Proof::Tag::OneIntro:
    return mOne();
  case Proof::Tag::OneLet: {
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(B, readProof(R));
    return mOneLet(std::move(A), std::move(B));
  }
  case Proof::Tag::BangLet:
  case Proof::Tag::SayBind:
  case Proof::Tag::IfBind:
  case Proof::Tag::ExUnpack: {
    TC_UNWRAP(X, R.readString());
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(B, readProof(R));
    if (Tag == Proof::Tag::BangLet)
      return mBangLet(std::move(X), std::move(A), std::move(B));
    if (Tag == Proof::Tag::SayBind)
      return mSayBind(std::move(X), std::move(A), std::move(B));
    if (Tag == Proof::Tag::IfBind)
      return mIfBind(std::move(X), std::move(A), std::move(B));
    return mUnpack(std::move(X), std::move(A), std::move(B));
  }
  case Proof::Tag::AllIntro: {
    TC_UNWRAP(Dom, lf::readType(R));
    TC_UNWRAP(A, readProof(R));
    return mAllIntro(std::move(Dom), std::move(A));
  }
  case Proof::Tag::AllApp: {
    TC_UNWRAP(A, readProof(R));
    TC_UNWRAP(ITerm, lf::readTerm(R));
    return mAllApp(std::move(A), std::move(ITerm));
  }
  case Proof::Tag::ExPack: {
    TC_UNWRAP(Annot, readProp(R));
    TC_UNWRAP(ITerm, lf::readTerm(R));
    TC_UNWRAP(A, readProof(R));
    return mPack(std::move(Annot), std::move(ITerm), std::move(A));
  }
  case Proof::Tag::SayReturn: {
    TC_UNWRAP(Who, lf::readTerm(R));
    TC_UNWRAP(A, readProof(R));
    return mSayReturn(std::move(Who), std::move(A));
  }
  case Proof::Tag::Assert:
  case Proof::Tag::AssertBang: {
    TC_UNWRAP(KHash, R.readString());
    TC_UNWRAP(AProp, readProp(R));
    TC_UNWRAP(Sig, R.readVarBytes());
    return Tag == Proof::Tag::Assert
               ? mAssert(std::move(KHash), std::move(AProp), std::move(Sig))
               : mAssertBang(std::move(KHash), std::move(AProp),
                             std::move(Sig));
  }
  case Proof::Tag::IfReturn:
  case Proof::Tag::IfWeaken: {
    TC_UNWRAP(Phi, readCond(R));
    TC_UNWRAP(A, readProof(R));
    return Tag == Proof::Tag::IfReturn
               ? mIfReturn(std::move(Phi), std::move(A))
               : mIfWeaken(std::move(Phi), std::move(A));
  }
  }
  return makeError("logic: bad proof tag");
}

} // namespace logic
} // namespace typecoin
