//===- tools/tclint.cpp - Typecoin transaction linter CLI ---------------------===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the `analysis` lint library: reads
/// serialized Typecoin transactions (or Bitcoin carrier transactions)
/// from disk and prints every diagnostic with its span.
///
///   tclint tx1.tc tx2.tc            lint Typecoin transactions
///   tclint --btc carrier.btc        lint a Bitcoin transaction's scripts
///   tclint --pair tx.tc carrier.btc lint a coupled pair end-to-end
///   tclint --sym --btc carrier.btc  symbolic script verification (tcsym)
///   tclint --script lock.script     tcsym on a raw locking script
///   tclint --dataflow --btc a.btc b.btc   affine dataflow over the set
///   tclint --json ...               machine-readable findings
///   tclint --hex tx.hex             input files hold hex text
///   tclint --store DIR              offline durable-store verification
///   tclint --selftest               run the built-in self checks
///   tclint --emit-demo PREFIX       write demo transactions to disk
///
/// Exit status: 0 clean, 1 error findings, 2 warning findings only,
/// 3 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/tcsym.h"

#include "bitcoin/standard.h"
#include "store/chainstore.h"
#include "support/rng.h"

#include <cctype>
#include <fstream>
#include <iostream>

using namespace typecoin;

namespace {

struct CliOptions {
  analysis::LintOptions Lint;
  analysis::SymOptions Sym;
  bool Hex = false;
  bool Btc = false;
  bool Quiet = false;
  bool SymMode = false;     ///< --sym: tcsym over carrier output scripts.
  bool Dataflow = false;    ///< --dataflow: affine dataflow over the set.
  bool ScriptMode = false;  ///< --script: files are raw locking scripts.
  bool Json = false;        ///< --json: typecoin-findings/1 document.
};

/// Exit codes: clean beats nothing, warnings beat clean, errors beat
/// warnings, usage/IO beats all. Numerically 0 < 2 < 1 < 3.
constexpr int ExitClean = 0;
constexpr int ExitError = 1;
constexpr int ExitWarn = 2;
constexpr int ExitUsage = 3;

int combineExit(int A, int B) {
  auto Rank = [](int E) {
    switch (E) {
    case ExitClean:
      return 0;
    case ExitWarn:
      return 1;
    case ExitError:
      return 2;
    default:
      return 3;
    }
  };
  return Rank(A) >= Rank(B) ? A : B;
}

int reportExit(const analysis::LintReport &R) {
  if (R.hasErrors())
    return ExitError;
  if (R.count(analysis::Severity::Warning) != 0)
    return ExitWarn;
  return ExitClean;
}

void usage(std::ostream &OS) {
  OS << "usage: tclint [options] [file...]\n"
        "\n"
        "Lint serialized Typecoin transactions before submitting them to\n"
        "the full proof checker.\n"
        "\n"
        "  --btc             treat files as Bitcoin transactions (script\n"
        "                    standardness lint only)\n"
        "  --pair TC BTC     lint a Typecoin transaction together with its\n"
        "                    Bitcoin carrier (embedding + correspondence)\n"
        "  --sym             symbolic script verification (tcsym): prove\n"
        "                    spendability, stack safety, and malleability\n"
        "                    classes of every output script (--btc, --pair\n"
        "                    and --script inputs)\n"
        "  --script          files are raw locking scripts, verified with\n"
        "                    tcsym (implies --sym)\n"
        "  --dataflow        affine dataflow over the whole file set:\n"
        "                    double-consume and consumption cycles\n"
        "  --json            emit a typecoin-findings/1 JSON document on\n"
        "                    stdout instead of text\n"
        "  --hex             files hold hex text instead of raw bytes\n"
        "  --store DIR       open a durable chainstate store directory\n"
        "                    offline: verify record checksums and WAL\n"
        "                    consistency, report the last durable epoch.\n"
        "                    Torn tails (crash-legal damage) are warnings;\n"
        "                    corruption is an error\n"
        "  --non-standard    relay policy does not require standard\n"
        "                    scripts (standardness findings become\n"
        "                    warnings)\n"
        "  --no-unused       suppress affine-unused warnings\n"
        "  --quiet, -q       print errors only\n"
        "  --selftest        run the built-in self checks and exit\n"
        "  --emit-demo P     write P.tc (clean), P.bad.tc (duplicated\n"
        "                    affine hypothesis), P.btc (non-standard\n"
        "                    script), P.unspendable.btc, P.malleable.btc,\n"
        "                    P.doubleconsume.btc and exit\n"
        "  --help, -h        this text\n"
        "\n"
        "exit status: 0 clean, 1 errors, 2 warnings only, 3 usage or I/O\n"
        "failure\n";
}

Result<Bytes> readInput(const std::string &Path, bool Hex) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return makeError("cannot open '" + Path + "'");
  Bytes Data((std::istreambuf_iterator<char>(In)),
             std::istreambuf_iterator<char>());
  if (!Hex)
    return Data;
  std::string Stripped;
  for (uint8_t C : Data)
    if (!std::isspace(C))
      Stripped.push_back(static_cast<char>(C));
  return fromHex(Stripped);
}

Status writeOutput(const std::string &Path, const Bytes &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  if (!Out)
    return makeError("cannot write '" + Path + "'");
  return Status::success();
}

/// Everything a run accumulates, so text and JSON modes share one
/// pipeline: per-file reports (label-prefixed), tcsym verdicts, and the
/// pending set for the final dataflow pass.
struct Session {
  CliOptions Cli;
  analysis::LintReport All;
  obs::Json Verdicts = obs::Json::array();
  std::vector<analysis::DataflowTx> Pending;
  bool IoError = false;

  void ioError(const std::string &Message) {
    std::cerr << "tclint: " << Message << "\n";
    IoError = true;
  }

  /// Print (text mode) and fold one unit's report into the session.
  void addReport(const std::string &Label, const analysis::LintReport &R) {
    if (!Cli.Json) {
      for (const analysis::Diagnostic &D : R.diagnostics()) {
        if (Cli.Quiet && D.Sev != analysis::Severity::Error)
          continue;
        std::cout << Label << ": " << D.str() << "\n";
      }
      if (!Cli.Quiet || R.hasErrors())
        std::cout << Label << ": " << R.count(analysis::Severity::Error)
                  << " error(s), " << R.count(analysis::Severity::Warning)
                  << " warning(s)\n";
    }
    All.merge(R, Label);
  }

  void addVerdict(const std::string &Label,
                  const analysis::ScriptVerdict &V) {
    obs::Json J = analysis::verdictJson(V);
    J.set("file", Label);
    Verdicts.push(std::move(J));
    if (!Cli.Json && !Cli.Quiet)
      std::cout << Label << ": " << analysis::spendabilityName(V.Spend)
                << ", " << V.PathsExplored << " path(s), inputs needed "
                << V.InputsNeeded << "\n";
  }
};

//===----------------------------------------------------------------------===//
// Demo transactions (--selftest / --emit-demo)
//===----------------------------------------------------------------------===//

crypto::PublicKey demoOwner() {
  Rng Rand(0x7c11);
  return crypto::PrivateKey::generate(Rand).publicKey();
}

/// A structurally clean transaction: one well-formed input, one
/// non-dust output, a grant, and a proof that consumes its hypothesis
/// exactly once.
tc::Transaction demoClean() {
  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = std::string(64, 'a');
  In.SourceIndex = 0;
  In.Type = logic::pOne();
  In.Amount = 100000;
  T.Inputs.push_back(std::move(In));
  tc::Output Out;
  Out.Type = logic::pOne();
  Out.Amount = 100000;
  Out.Owner = demoOwner();
  T.Outputs.push_back(std::move(Out));
  T.Grant = logic::pOne();
  T.Proof = logic::mLam("x", logic::pOne(), logic::mVar("x"));
  return T;
}

/// Same shape, but the proof consumes the affine hypothesis twice —
/// contraction, which the checker rejects.
tc::Transaction demoAffineReuse() {
  tc::Transaction T = demoClean();
  T.Proof = logic::mLam(
      "x", logic::pOne(),
      logic::mTensorPair(logic::mVar("x"), logic::mVar("x")));
  return T;
}

/// A Bitcoin transaction whose output script matches no standard
/// template (a bare OP_NOP).
bitcoin::Transaction demoNonStandard() {
  bitcoin::Transaction Btc;
  bitcoin::OutPoint Point;
  Point.Tx.Hash[0] = 0x42;
  Btc.Inputs.push_back(bitcoin::TxIn{Point, {}});
  Btc.Outputs.push_back(
      bitcoin::TxOut{1000000, bitcoin::Script().op(bitcoin::OP_NOP)});
  return Btc;
}

/// A carrier with a provably unspendable (non-OP_RETURN) output:
/// `1 2 EQUALVERIFY 1` fails on every path. tcsym flags it as an error
/// — the output is permanent UTXO deadweight.
bitcoin::Transaction demoUnspendable() {
  bitcoin::Transaction Btc = demoNonStandard();
  Btc.Outputs[0].ScriptPubKey = bitcoin::Script()
                                    .pushInt(1)
                                    .pushInt(2)
                                    .op(bitcoin::OP_EQUALVERIFY)
                                    .pushInt(1);
  return Btc;
}

/// The paper's 1-of-2 multisig embedding shape: spendable, but carrying
/// all three malleability classes (witness signature DER slack, the
/// never-examined CHECKMULTISIG dummy, and m < n signature
/// substitution).
bitcoin::Transaction demoMalleable() {
  bitcoin::Transaction Btc = demoNonStandard();
  Bytes Metadata(33, 0x02); // Metadata-as-key blob, as the embedding does.
  Btc.Outputs[0].ScriptPubKey = bitcoin::makeMultiSig(
      1, {demoOwner().serialize(), Metadata});
  return Btc;
}

/// Two inputs consuming the same resource: the affine dataflow pass
/// proves at most one consumer can exist.
bitcoin::Transaction demoDoubleConsume() {
  bitcoin::Transaction Btc = demoNonStandard();
  Btc.Inputs.push_back(Btc.Inputs[0]);
  Btc.Outputs[0].ScriptPubKey = bitcoin::makeP2PKH(demoOwner().id());
  return Btc;
}

int selftest() {
  int Failures = 0;
  auto Expect = [&](bool Cond, const char *What) {
    std::cout << (Cond ? "ok:   " : "FAIL: ") << What << "\n";
    if (!Cond)
      ++Failures;
  };

  Expect(!analysis::lint(demoClean()).hasErrors(),
         "clean transaction lints without errors");
  Expect(analysis::lintGate(demoClean()).hasValue(),
         "clean transaction passes the gate");

  analysis::LintReport Reuse = analysis::lint(demoAffineReuse());
  Expect(Reuse.has("affine-reuse"),
         "duplicated affine hypothesis is flagged as affine-reuse");
  Expect(!analysis::lintGate(demoAffineReuse()).hasValue(),
         "duplicated affine hypothesis is rejected by the gate");

  analysis::LintReport Scripts = analysis::lintScripts(demoNonStandard());
  Expect(Scripts.has("script-nonstandard"),
         "non-standard output script is flagged");
  analysis::LintOptions Lax;
  Lax.RequireStandard = false;
  Expect(!analysis::lintScripts(demoNonStandard(), Lax).hasErrors(),
         "non-standard script is only a warning without RequireStandard");

  // Serialization round trip: what --emit-demo writes, a later lint run
  // must parse back to an equivalent report.
  auto Back = tc::Transaction::deserialize(demoAffineReuse().serialize());
  Expect(Back.hasValue() && analysis::lint(*Back).has("affine-reuse"),
         "affine-reuse survives a serialize/deserialize round trip");

  // tcsym: the symbolic verifier's headline verdicts.
  auto P2PKH = analysis::analyzeScript(bitcoin::makeP2PKH(demoOwner().id()));
  Expect(P2PKH.Spend == analysis::Spendability::Spendable &&
             P2PKH.StackSafe,
         "P2PKH is symbolically spendable and stack-safe");
  auto Dead = analysis::analyzeScript(
      demoUnspendable().Outputs[0].ScriptPubKey);
  Expect(Dead.Spend == analysis::Spendability::Unspendable,
         "contradictory script is proven unspendable");
  auto Mall = analysis::analyzeScript(
      demoMalleable().Outputs[0].ScriptPubKey);
  Expect(Mall.Malleability ==
             (analysis::MalleableDER | analysis::MalleableExtraStack |
              analysis::MalleableSigSubst),
         "1-of-2 multisig shows all three malleability classes");

  // Dataflow: a self-double-consume is an error.
  analysis::LintReport Flow = analysis::analyzeAffineDataflow(
      {analysis::DataflowTx::fromBitcoinTx(demoDoubleConsume())});
  Expect(Flow.has("dataflow-double-consume"),
         "double consumption is flagged by the dataflow pass");

  std::cout << (Failures ? "selftest FAILED\n" : "selftest passed\n");
  return Failures ? 1 : 0;
}

int emitDemo(const std::string &Prefix) {
  auto Check = [](Status S) {
    if (!S) {
      std::cerr << "tclint: " << S.error().message() << "\n";
      return ExitUsage;
    }
    return 0;
  };
  if (int E = Check(writeOutput(Prefix + ".tc", demoClean().serialize())))
    return E;
  if (int E = Check(
          writeOutput(Prefix + ".bad.tc", demoAffineReuse().serialize())))
    return E;
  if (int E =
          Check(writeOutput(Prefix + ".btc", demoNonStandard().serialize())))
    return E;
  if (int E = Check(writeOutput(Prefix + ".unspendable.btc",
                                demoUnspendable().serialize())))
    return E;
  if (int E = Check(writeOutput(Prefix + ".malleable.btc",
                                demoMalleable().serialize())))
    return E;
  if (int E = Check(writeOutput(Prefix + ".doubleconsume.btc",
                                demoDoubleConsume().serialize())))
    return E;
  std::cout << "wrote " << Prefix << ".tc, " << Prefix << ".bad.tc, "
            << Prefix << ".btc, " << Prefix << ".unspendable.btc, "
            << Prefix << ".malleable.btc, " << Prefix
            << ".doubleconsume.btc\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// File linting
//===----------------------------------------------------------------------===//

void lintBtc(const std::string &Path, const bitcoin::Transaction &Btc,
             Session &S) {
  analysis::LintReport R = analysis::lintScripts(Btc, S.Cli.Lint);
  if (S.Cli.SymMode) {
    std::vector<analysis::ScriptVerdict> Verdicts;
    R.merge(analysis::analyzeCarrierScripts(Btc, S.Cli.Sym, &Verdicts));
    for (size_t I = 0; I < Verdicts.size(); ++I)
      S.addVerdict(Path + "/output[" + std::to_string(I) + "]",
                   Verdicts[I]);
  }
  if (S.Cli.Dataflow)
    S.Pending.push_back(analysis::DataflowTx::fromBitcoinTx(Btc));
  S.addReport(Path, R);
}

void lintFile(const std::string &Path, Session &S) {
  auto Data = readInput(Path, S.Cli.Hex);
  if (!Data) {
    S.ioError(Data.error().message());
    return;
  }
  if (S.Cli.ScriptMode) {
    bitcoin::Script Lock(*Data);
    analysis::ScriptVerdict V = analysis::analyzeScript(Lock, S.Cli.Sym);
    S.addVerdict(Path, V);
    S.addReport(Path, V.Report);
    return;
  }
  if (S.Cli.Btc) {
    auto Btc = bitcoin::Transaction::deserialize(*Data);
    if (!Btc) {
      S.ioError(Path + ": not a Bitcoin transaction: " +
                Btc.error().message());
      return;
    }
    lintBtc(Path, *Btc, S);
    return;
  }
  auto T = tc::Transaction::deserialize(*Data);
  if (!T) {
    S.ioError(Path + ": not a Typecoin transaction: " +
              T.error().message());
    return;
  }
  if (S.Cli.Dataflow) {
    analysis::DataflowTx Tx;
    Tx.Txid = Path;
    for (const tc::Input &In : T->Inputs)
      Tx.Consumes.push_back(In.SourceTxid + ":" +
                            std::to_string(In.SourceIndex));
    S.Pending.push_back(std::move(Tx));
  }
  S.addReport(Path, analysis::lint(*T, S.Cli.Lint));
}

void lintPair(const std::string &TcPath, const std::string &BtcPath,
              Session &S) {
  auto TcData = readInput(TcPath, S.Cli.Hex);
  auto BtcData = readInput(BtcPath, S.Cli.Hex);
  if (!TcData || !BtcData) {
    S.ioError(!TcData ? TcData.error().message()
                      : BtcData.error().message());
    return;
  }
  auto T = tc::Transaction::deserialize(*TcData);
  auto Btc = bitcoin::Transaction::deserialize(*BtcData);
  if (!T || !Btc) {
    S.ioError("cannot parse pair: " +
              (!T ? T.error().message() : Btc.error().message()));
    return;
  }
  tc::Pair P;
  P.Tc = *T;
  P.Btc = *Btc;
  const std::string Label = TcPath + "+" + BtcPath;
  analysis::LintReport R = analysis::lint(P, S.Cli.Lint);
  if (S.Cli.SymMode) {
    std::vector<analysis::ScriptVerdict> Verdicts;
    R.merge(analysis::analyzeCarrierScripts(P.Btc, S.Cli.Sym, &Verdicts));
    for (size_t I = 0; I < Verdicts.size(); ++I)
      S.addVerdict(Label + "/output[" + std::to_string(I) + "]",
                   Verdicts[I]);
  }
  if (S.Cli.Dataflow)
    S.Pending.push_back(analysis::DataflowTx::fromPair(P.Tc, P.Btc));
  S.addReport(Label, R);
}

//===----------------------------------------------------------------------===//
// Durable-store verification (--store)
//===----------------------------------------------------------------------===//

/// Offline store check: map what a recovery would see onto lint
/// severities. Torn tails are the damage the durability contract
/// explicitly permits (a crash mid-append) and recovery repairs them,
/// so they rate a warning; an undecodable snapshot or WAL record is
/// corruption the contract does not allow — an error.
void lintStore(const std::string &Dir, Session &S) {
  store::PosixVfs V;
  auto Inspect = store::inspectStore(V, Dir);
  if (!Inspect) {
    S.ioError(Inspect.error().message());
    return;
  }
  if (!Inspect->DirExists) {
    S.ioError("store '" + Dir + "': no store files found");
    return;
  }
  analysis::LintReport R;
  if (Inspect->EpochPresent) {
    if (Inspect->EpochCorrupt)
      R.error("store-epoch-corrupt",
              "epoch snapshot does not decode; recovery falls back to "
              "from-genesis replay");
    else if (!S.Cli.Quiet && !S.Cli.Json)
      std::cout << Dir << ": last durable epoch " << Inspect->EpochNumber
                << " (tip height " << Inspect->TipHeight << ", "
                << Inspect->TipHashHex << ")\n";
  } else {
    R.note("store-no-epoch",
           "no epoch snapshot yet; recovery replays the block log from "
           "genesis");
  }
  if (Inspect->BlockTailBytes)
    R.warn("store-torn-tail",
           "block log has a torn tail of " +
               std::to_string(Inspect->BlockTailBytes) +
               " byte(s); recovery truncates it");
  if (Inspect->WalTailBytes)
    R.warn("store-torn-tail",
           "WAL has a torn tail of " +
               std::to_string(Inspect->WalTailBytes) +
               " byte(s); recovery truncates it");
  if (Inspect->UndecodableWalRecords)
    R.error("store-wal-corrupt",
            std::to_string(Inspect->UndecodableWalRecords) +
                " WAL record(s) pass their checksum but do not decode");
  if (Inspect->TmpLeftover)
    R.note("store-tmp-leftover",
           "a crash left an epoch temp file behind; recovery removes it");
  if (!S.Cli.Quiet && !S.Cli.Json)
    std::cout << Dir << ": " << Inspect->BlockRecords
              << " block record(s), " << Inspect->WalRecords
              << " WAL record(s)\n";
  S.addReport(Dir, R);
}

} // namespace

int main(int argc, char **argv) {
  Session S;
  CliOptions &Cli = S.Cli;
  std::vector<std::string> Files;
  std::string PairTc, PairBtc, DemoPrefix, StoreDir;
  bool Selftest = false, PairMode = false, EmitDemo = false;
  bool StoreMode = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--selftest") {
      Selftest = true;
    } else if (A == "--hex") {
      Cli.Hex = true;
    } else if (A == "--btc") {
      Cli.Btc = true;
    } else if (A == "--sym") {
      Cli.SymMode = true;
    } else if (A == "--script") {
      Cli.ScriptMode = true;
      Cli.SymMode = true;
    } else if (A == "--dataflow") {
      Cli.Dataflow = true;
    } else if (A == "--json") {
      Cli.Json = true;
    } else if (A == "--non-standard") {
      Cli.Lint.RequireStandard = false;
    } else if (A == "--no-unused") {
      Cli.Lint.WarnUnused = false;
    } else if (A == "--quiet" || A == "-q") {
      Cli.Quiet = true;
    } else if (A == "--pair") {
      if (I + 2 >= argc) {
        std::cerr << "tclint: --pair needs two file arguments\n";
        return ExitUsage;
      }
      PairMode = true;
      PairTc = argv[++I];
      PairBtc = argv[++I];
    } else if (A == "--store") {
      if (I + 1 >= argc) {
        std::cerr << "tclint: --store needs a directory argument\n";
        return ExitUsage;
      }
      StoreMode = true;
      StoreDir = argv[++I];
    } else if (A == "--emit-demo") {
      if (I + 1 >= argc) {
        std::cerr << "tclint: --emit-demo needs a path prefix\n";
        return ExitUsage;
      }
      EmitDemo = true;
      DemoPrefix = argv[++I];
    } else if (A == "--help" || A == "-h") {
      usage(std::cout);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "tclint: unknown option '" << A << "'\n";
      usage(std::cerr);
      return ExitUsage;
    } else {
      Files.push_back(A);
    }
  }

  if (Selftest)
    return selftest();
  if (EmitDemo)
    return emitDemo(DemoPrefix);

  if (!PairMode && !StoreMode && Files.empty()) {
    usage(std::cerr);
    return ExitUsage;
  }

  if (StoreMode)
    lintStore(StoreDir, S);
  if (PairMode)
    lintPair(PairTc, PairBtc, S);
  for (const std::string &F : Files)
    lintFile(F, S);

  if (Cli.Dataflow)
    S.addReport("dataflow", analysis::analyzeAffineDataflow(S.Pending));

  if (Cli.Json) {
    obs::Json Doc = analysis::findingsJson(S.All);
    if (Cli.SymMode)
      Doc.set("verdicts", std::move(S.Verdicts));
    std::cout << Doc.dump(2) << "\n";
  }

  if (S.IoError)
    return ExitUsage;
  return combineExit(ExitClean, reportExit(S.All));
}
