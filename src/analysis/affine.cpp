//===- analysis/affine.cpp - Affine-usage audit of proof terms ----------------===//

#include "analysis/affine.h"

#include "logic/context.h"

namespace typecoin {
namespace analysis {

using logic::Proof;
using logic::ProofPtr;

namespace {

/// The structural walker over the checker's own context discipline
/// (logic/context.h). Each entry remembers where it was first consumed,
/// for the reuse message.
class Walker {
public:
  Walker(LintReport &Out, const AffineAuditOptions &Opts)
      : Out(Out), Opts(Opts) {}

  void run(const ProofPtr &M, const std::vector<std::string> &Affine,
           const std::vector<std::string> &Persistent,
           const std::string &SpanRoot) {
    Path.push_back(SpanRoot);
    for (const std::string &Name : Persistent)
      Ctx.bind(Name, /*Affine=*/false);
    for (const std::string &Name : Affine)
      Ctx.bind(Name, /*Affine=*/true);
    walk(M);
    popScope(0, /*TopLevel=*/true);
  }

private:
  LintReport &Out;
  const AffineAuditOptions &Opts;
  logic::AffineContext<std::string> Ctx;
  std::vector<std::string> Path;
  unsigned Depth = 0;
  bool DepthReported = false;

  std::string span() const {
    std::string S;
    for (size_t I = 0; I < Path.size(); ++I) {
      if (I)
        S += "/";
      S += Path[I];
    }
    return S;
  }

  /// Leave a scope opened at \p Mark, warning about weakened affine
  /// hypotheses bound inside it.
  void popScope(size_t Mark, bool TopLevel = false) {
    if (!Opts.WarnUnused)
      return Ctx.exitScope(Mark);
    Ctx.exitScope(Mark, [&](const auto &E) {
      Out.warn("affine-unused",
               "affine hypothesis '" + E.Name + "' is never consumed" +
                   (TopLevel ? "" : " in its scope") +
                   " (weakening is legal but usually wasteful)",
               span());
    });
  }

  void useVar(const std::string &Name) {
    auto [What, Hyp] = Ctx.use(Name);
    switch (What) {
    case logic::Use::Unbound:
      Out.error("affine-unbound",
                "proof variable '" + Name + "' is unbound", span());
      return;
    case logic::Use::Blocked:
      Out.error("affine-banged",
                "affine hypothesis '" + Name +
                    "' is used under '!', where only persistent "
                    "hypotheses are available",
                span());
      return;
    case logic::Use::Consumed:
      Out.error("affine-reuse",
                "affine hypothesis '" + Name +
                    "' is consumed a second time (first consumed at " +
                    Hyp->Data +
                    "); contraction is not available for affine "
                    "resources",
                span());
      return;
    case logic::Use::Ok:
      if (Hyp->Affine)
        Hyp->Data = span();
      return;
    }
  }

  /// RAII-free path segment push/pop via explicit helpers keeps the walk
  /// readable without exceptions.
  void walkAt(const ProofPtr &M, const std::string &Segment) {
    Path.push_back(Segment);
    walk(M);
    Path.pop_back();
  }

  void walk(const ProofPtr &M);
};

void Walker::walk(const ProofPtr &M) {
  if (!M) {
    Out.error("proof-malformed", "null proof subterm", span());
    return;
  }
  if (++Depth > MaxTermNesting) {
    if (!DepthReported) {
      DepthReported = true;
      Out.error("proof-depth",
                "proof nesting exceeds " + std::to_string(MaxTermNesting) +
                    " (the checker rejects such terms)",
                span());
    }
    --Depth;
    return;
  }
  struct DepthGuard {
    unsigned &D;
    ~DepthGuard() { --D; }
  } Guard{Depth};

  switch (M->Kind) {
  case Proof::Tag::Var:
    useVar(M->Name);
    return;

  case Proof::Tag::Const:
  case Proof::Tag::OneIntro:
    return;

  case Proof::Tag::Lam: {
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    walkAt(M->A, "lam(" + M->X + ")");
    popScope(Mark);
    return;
  }

  case Proof::Tag::App:
    walkAt(M->A, "app.fn");
    walkAt(M->B, "app.arg");
    return;

  case Proof::Tag::TensorPair:
    walkAt(M->A, "tensor.l");
    walkAt(M->B, "tensor.r");
    return;

  case Proof::Tag::TensorLet: {
    walkAt(M->A, "let(" + M->X + "," + M->Y + ").of");
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    Ctx.bind(M->Y, /*Affine=*/true);
    walkAt(M->B, "let(" + M->X + "," + M->Y + ").in");
    popScope(Mark);
    return;
  }

  case Proof::Tag::WithPair: {
    // Both components share the affine context; consumption is the
    // union (check.cpp WithPair).
    std::vector<bool> Before = Ctx.snapshot();
    walkAt(M->A, "with.l");
    std::vector<bool> AfterL = Ctx.snapshot();
    Ctx.restore(Before);
    walkAt(M->B, "with.r");
    std::vector<bool> AfterR = Ctx.snapshot();
    Ctx.merge(AfterL, AfterR);
    return;
  }

  case Proof::Tag::WithFst:
    walkAt(M->A, "fst");
    return;
  case Proof::Tag::WithSnd:
    walkAt(M->A, "snd");
    return;

  case Proof::Tag::Inl:
    walkAt(M->A, "inl");
    return;
  case Proof::Tag::Inr:
    walkAt(M->A, "inr");
    return;

  case Proof::Tag::Case: {
    walkAt(M->A, "case.of");
    std::vector<bool> Before = Ctx.snapshot();

    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    walkAt(M->B, "case.inl(" + M->X + ")");
    popScope(Mark);
    std::vector<bool> AfterL = Ctx.snapshot();

    Ctx.restore(Before);
    Ctx.bind(M->Y, /*Affine=*/true);
    walkAt(M->C, "case.inr(" + M->Y + ")");
    popScope(Mark);
    std::vector<bool> AfterR = Ctx.snapshot();

    Ctx.merge(AfterL, AfterR);
    return;
  }

  case Proof::Tag::Abort:
    walkAt(M->A, "abort");
    return;

  case Proof::Tag::OneLet:
    walkAt(M->A, "unitlet.of");
    walkAt(M->B, "unitlet.in");
    return;

  case Proof::Tag::BangIntro: {
    std::vector<size_t> Blocked = Ctx.block();
    walkAt(M->A, "bang");
    Ctx.unblock(Blocked);
    return;
  }

  case Proof::Tag::BangLet: {
    walkAt(M->A, "banglet(" + M->X + ").of");
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/false); // Persistent.
    walkAt(M->B, "banglet(" + M->X + ").in");
    popScope(Mark);
    return;
  }

  case Proof::Tag::AllIntro:
    walkAt(M->A, "allintro");
    return;
  case Proof::Tag::AllApp:
    walkAt(M->A, "allapp");
    return;
  case Proof::Tag::ExPack:
    walkAt(M->A, "pack");
    return;

  case Proof::Tag::ExUnpack: {
    walkAt(M->A, "unpack(" + M->X + ").of");
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    walkAt(M->B, "unpack(" + M->X + ").in");
    popScope(Mark);
    return;
  }

  case Proof::Tag::SayReturn:
    walkAt(M->A, "sayreturn");
    return;

  case Proof::Tag::SayBind: {
    walkAt(M->A, "saybind(" + M->X + ").of");
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    walkAt(M->B, "saybind(" + M->X + ").in");
    popScope(Mark);
    return;
  }

  case Proof::Tag::Assert:
  case Proof::Tag::AssertBang: {
    if (M->KHash.size() != 40)
      Out.error("assert-principal",
                "assert principal literal must be 40 hex digits, got " +
                    std::to_string(M->KHash.size()),
                span());
    else if (M->KHash.find_first_not_of("0123456789abcdefABCDEF") !=
             std::string::npos)
      Out.warn("assert-principal",
               "assert principal literal contains non-hex characters",
               span());
    if (M->Sig.empty())
      Out.warn("assert-signature", "assert carries an empty signature blob",
               span());
    return;
  }

  case Proof::Tag::IfReturn:
    walkAt(M->A, "ifreturn");
    return;

  case Proof::Tag::IfBind: {
    walkAt(M->A, "ifbind(" + M->X + ").of");
    size_t Mark = Ctx.mark();
    Ctx.bind(M->X, /*Affine=*/true);
    walkAt(M->B, "ifbind(" + M->X + ").in");
    popScope(Mark);
    return;
  }

  case Proof::Tag::IfWeaken:
    walkAt(M->A, "ifweaken");
    return;
  case Proof::Tag::IfSay:
    walkAt(M->A, "ifsay");
    return;
  }
  Out.error("proof-malformed", "unrecognized proof-term tag", span());
}

} // namespace

void auditAffineUsage(const ProofPtr &M,
                      const std::vector<std::string> &Affine,
                      const std::vector<std::string> &Persistent,
                      LintReport &Out, const std::string &SpanRoot,
                      const AffineAuditOptions &Opts) {
  Walker W(Out, Opts);
  W.run(M, Affine, Persistent, SpanRoot);
}

} // namespace analysis
} // namespace typecoin
