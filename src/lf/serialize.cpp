//===- lf/serialize.cpp - Canonical serialization of LF syntax --------------===//

#include "lf/serialize.h"

#include <unordered_map>
#include <utility>

namespace typecoin {
namespace lf {

namespace {
/// Write-side memo shared across the term/type mutual recursion: a node
/// (term or type — the pointers never collide) maps to the (offset,
/// length) of its first serialization in this writer's buffer, and every
/// later occurrence is one bulk copy instead of a re-walk. Mirrors
/// logic's writeProp memo; the wire format is unchanged, since the
/// copied bytes are exactly what the re-walk would have produced.
using SpanMemo = std::unordered_map<const void *, std::pair<size_t, size_t>>;

void writeTermMemo(Writer &W, const TermPtr &T, SpanMemo &Memo);
void writeTypeMemo(Writer &W, const LFTypePtr &T, SpanMemo &Memo);
} // namespace

void writeConstName(Writer &W, const ConstName &Name) {
  W.writeU8(static_cast<uint8_t>(Name.Kind));
  W.writeString(Name.Txid);
  W.writeString(Name.Label);
}

Result<ConstName> readConstName(Reader &R) {
  TC_UNWRAP(Kind, R.readU8());
  if (Kind > 2)
    return makeError("lf: bad constant-name space tag");
  TC_UNWRAP(Txid, R.readString());
  TC_UNWRAP(Label, R.readString());
  ConstName Name;
  Name.Kind = static_cast<ConstName::Space>(Kind);
  Name.Txid = std::move(Txid);
  Name.Label = std::move(Label);
  return Name;
}

namespace {
void writeTermMemo(Writer &W, const TermPtr &T, SpanMemo &Memo) {
  // use_count() > 1 marks nodes that can possibly recur in this walk;
  // unique nodes skip the map entirely, so pure trees pay nothing.
  bool Shared = T.use_count() > 1;
  if (Shared) {
    auto It = Memo.find(T.get());
    if (It != Memo.end()) {
      W.copyFromSelf(It->second.first, It->second.second);
      return;
    }
  }
  size_t Start = W.size();
  W.writeU8(static_cast<uint8_t>(T->Kind));
  switch (T->Kind) {
  case Term::Tag::Var:
    W.writeU32(T->VarIndex);
    break;
  case Term::Tag::Const:
    writeConstName(W, T->Name);
    break;
  case Term::Tag::Lam:
    writeTypeMemo(W, T->Annot, Memo);
    writeTermMemo(W, T->Body, Memo);
    break;
  case Term::Tag::App:
    writeTermMemo(W, T->Fn, Memo);
    writeTermMemo(W, T->Arg, Memo);
    break;
  case Term::Tag::Principal:
    W.writeString(T->PrincipalHash);
    break;
  case Term::Tag::Nat:
    W.writeU64(T->NatValue);
    break;
  }
  if (Shared)
    Memo.emplace(T.get(), std::make_pair(Start, W.size() - Start));
}
} // namespace

void writeTerm(Writer &W, const TermPtr &T) {
  SpanMemo Memo;
  writeTermMemo(W, T, Memo);
}

// Note on interning: the readers below build nodes exclusively through
// the lf constructors, so with TYPECOIN_INTERN=1 every deserialized
// term/type lands in the hash-consing arena — decoding the same wire
// bytes twice (or in two different streams) yields pointer-equal trees.
Result<TermPtr> readTerm(Reader &R) {
  Reader::Nest Level(R);
  TC_TRY(Level.check());
  TC_UNWRAP(Tag, R.readU8());
  switch (static_cast<Term::Tag>(Tag)) {
  case Term::Tag::Var: {
    TC_UNWRAP(Index, R.readU32());
    return var(Index);
  }
  case Term::Tag::Const: {
    TC_UNWRAP(Name, readConstName(R));
    return constant(Name);
  }
  case Term::Tag::Lam: {
    TC_UNWRAP(Annot, readType(R));
    TC_UNWRAP(Body, readTerm(R));
    return lam(Annot, Body);
  }
  case Term::Tag::App: {
    TC_UNWRAP(Fn, readTerm(R));
    TC_UNWRAP(Arg, readTerm(R));
    return app(Fn, Arg);
  }
  case Term::Tag::Principal: {
    TC_UNWRAP(Hash, R.readString());
    return principal(Hash);
  }
  case Term::Tag::Nat: {
    TC_UNWRAP(Value, R.readU64());
    return nat(Value);
  }
  }
  return makeError("lf: bad term tag");
}

namespace {
void writeTypeMemo(Writer &W, const LFTypePtr &T, SpanMemo &Memo) {
  bool Shared = T.use_count() > 1;
  if (Shared) {
    auto It = Memo.find(T.get());
    if (It != Memo.end()) {
      W.copyFromSelf(It->second.first, It->second.second);
      return;
    }
  }
  size_t Start = W.size();
  W.writeU8(static_cast<uint8_t>(T->Kind));
  switch (T->Kind) {
  case LFType::Tag::Const:
    writeConstName(W, T->Name);
    break;
  case LFType::Tag::App:
    writeTypeMemo(W, T->Head, Memo);
    writeTermMemo(W, T->Arg, Memo);
    break;
  case LFType::Tag::Pi:
    writeTypeMemo(W, T->Head, Memo);
    writeTypeMemo(W, T->Cod, Memo);
    break;
  }
  if (Shared)
    Memo.emplace(T.get(), std::make_pair(Start, W.size() - Start));
}
} // namespace

void writeType(Writer &W, const LFTypePtr &T) {
  SpanMemo Memo;
  writeTypeMemo(W, T, Memo);
}

Result<LFTypePtr> readType(Reader &R) {
  Reader::Nest Level(R);
  TC_TRY(Level.check());
  TC_UNWRAP(Tag, R.readU8());
  switch (static_cast<LFType::Tag>(Tag)) {
  case LFType::Tag::Const: {
    TC_UNWRAP(Name, readConstName(R));
    return tConst(Name);
  }
  case LFType::Tag::App: {
    TC_UNWRAP(Head, readType(R));
    TC_UNWRAP(Arg, readTerm(R));
    return tApp(Head, Arg);
  }
  case LFType::Tag::Pi: {
    TC_UNWRAP(Dom, readType(R));
    TC_UNWRAP(Cod, readType(R));
    return tPi(Dom, Cod);
  }
  }
  return makeError("lf: bad type tag");
}

void writeKind(Writer &W, const KindPtr &K) {
  W.writeU8(static_cast<uint8_t>(K->KindTag));
  if (K->KindTag == Kind::Tag::Pi) {
    writeType(W, K->Dom);
    writeKind(W, K->Cod);
  }
}

Result<KindPtr> readKind(Reader &R) {
  Reader::Nest Level(R);
  TC_TRY(Level.check());
  TC_UNWRAP(Tag, R.readU8());
  switch (static_cast<Kind::Tag>(Tag)) {
  case Kind::Tag::Type:
    return kType();
  case Kind::Tag::Prop:
    return kProp();
  case Kind::Tag::Pi: {
    TC_UNWRAP(Dom, readType(R));
    TC_UNWRAP(Cod, readKind(R));
    return kPi(Dom, Cod);
  }
  }
  return makeError("lf: bad kind tag");
}

void writeSignature(Writer &W, const Signature &Sig) {
  W.writeCompactSize(Sig.size());
  for (const ConstName &Name : Sig.order()) {
    const Declaration *D = Sig.lookup(Name);
    writeConstName(W, Name);
    W.writeU8(static_cast<uint8_t>(D->Kind));
    if (D->Kind == Declaration::Sort::Family)
      writeKind(W, D->FamilyKind);
    else
      writeType(W, D->TermType);
  }
}

Result<Signature> readSignature(Reader &R) {
  TC_UNWRAP(Count, R.readCompactSize());
  if (Count > 100000)
    return makeError("lf: implausible signature size");
  Signature Sig;
  for (uint64_t I = 0; I < Count; ++I) {
    TC_UNWRAP(Name, readConstName(R));
    TC_UNWRAP(Sort, R.readU8());
    if (Sort == static_cast<uint8_t>(Declaration::Sort::Family)) {
      TC_UNWRAP(K, readKind(R));
      TC_TRY(Sig.declareFamily(Name, K));
    } else if (Sort == static_cast<uint8_t>(Declaration::Sort::TermConst)) {
      TC_UNWRAP(Ty, readType(R));
      TC_TRY(Sig.declareTerm(Name, Ty));
    } else {
      return makeError("lf: bad declaration sort");
    }
  }
  return Sig;
}

} // namespace lf
} // namespace typecoin
