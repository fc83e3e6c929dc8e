//===- tools/benchrunner.cpp - Unified benchmark runner -----------------------===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drive every `bench/bench_*` binary, collect the Google Benchmark
/// JSON each produces (`--benchmark_out`), merge it with the obs
/// snapshot the binary exports under `TYPECOIN_OBS_EXPORT`, and write
/// one combined report (schema `typecoin-bench/1`):
///
///   benchrunner [--smoke] [--bench-dir DIR] [--out FILE] [--keep-logs]
///   benchrunner --selftest
///
/// `--smoke` caps per-benchmark time (CI's bench-smoke job); the merged
/// report is written to `BENCH_<date>.json` in the current directory
/// unless `--out` says otherwise. Its top-level `provenance` object says
/// which build and host produced it: `git_rev` of the source tree
/// (`unknown` outside git), `build_type`, `compiler`, `nproc`, and `env`,
/// every `TYPECOIN_*` variable the caller set. Any benchmark binary that fails to
/// run or emits malformed JSON fails the whole run (exit 1) — a bench
/// report with silently missing rows would poison perf comparisons.
///
/// Exit status: 0 success, 1 benchmark failure/malformed output,
/// 2 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "obs/export.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

extern char **environ;

using namespace typecoin;
namespace fs = std::filesystem;

namespace {

struct Options {
  bool Smoke = false;
  bool KeepLogs = false;
  std::string BenchDir;
  std::string OutFile;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: benchrunner [--smoke] [--bench-dir DIR] [--out FILE]"
      " [--keep-logs]\n"
      "       benchrunner --selftest\n");
  return 2;
}

Result<obs::Json> readJsonFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeError("benchrunner: cannot open " + Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return obs::Json::parse(Buf.str());
}

/// `<bindir>/tools/benchrunner` -> `<bindir>/bench`, the layout
/// bench/targets.cmake produces. `--bench-dir` overrides.
fs::path defaultBenchDir(const char *Argv0) {
  std::error_code Ec;
  fs::path Self = fs::canonical(Argv0, Ec);
  if (Ec)
    Self = Argv0;
  return Self.parent_path().parent_path() / "bench";
}

/// Shell-quote with single quotes (paths come from the filesystem and
/// may hold spaces; embedded quotes get the '\'' dance).
std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

/// Validate one Google Benchmark output document: context object plus a
/// non-empty benchmarks array whose rows all carry a name.
Status checkBenchmarkDoc(const obs::Json &Doc, const std::string &Name) {
  const obs::Json *Context = Doc.get("context");
  if (!Context || !Context->isObject())
    return makeError("benchrunner: " + Name + ": missing context object");
  const obs::Json *Benchmarks = Doc.get("benchmarks");
  if (!Benchmarks || !Benchmarks->isArray() || Benchmarks->items().empty())
    return makeError("benchrunner: " + Name + ": no benchmark rows");
  for (const obs::Json &Row : Benchmarks->items())
    if (!Row.get("name"))
      return makeError("benchrunner: " + Name +
                       ": benchmark row without a name");
  return Status::success();
}

struct RunResult {
  std::string Binary;
  obs::Json BenchDoc;
  obs::Json ObsDoc; // Null when the binary recorded no metrics.
};

Result<RunResult> runOne(const fs::path &Bin, const fs::path &TmpDir,
                         const Options &Opt) {
  std::string Name = Bin.filename().string();
  fs::path BenchOut = TmpDir / (Name + ".bench.json");
  fs::path ObsOut = TmpDir / (Name + ".obs.json");
  fs::path Log = TmpDir / (Name + ".log");

  std::string Cmd = "TYPECOIN_OBS_EXPORT=" + shellQuote(ObsOut.string()) +
                    " " + shellQuote(Bin.string()) +
                    " --benchmark_out=" + shellQuote(BenchOut.string()) +
                    " --benchmark_out_format=json";
  // A bare number of seconds: Google Benchmark 1.7 rejects the "s"
  // suffix, and 1.8 still reads a bare number as seconds.
  if (Opt.Smoke)
    Cmd += " --benchmark_min_time=0.01";
  // The figure benches print witnesses on stdout; keep that out of the
  // report but on disk for debugging.
  Cmd += " > " + shellQuote(Log.string()) + " 2>&1";

  std::fprintf(stderr, "benchrunner: running %s\n", Name.c_str());
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0)
    return makeError("benchrunner: " + Name + " exited with status " +
                     std::to_string(Rc) + " (log: " + Log.string() + ")");

  TC_UNWRAP(BenchDoc, readJsonFile(BenchOut.string()));
  TC_TRY(checkBenchmarkDoc(BenchDoc, Name));

  RunResult Out;
  Out.Binary = Name;
  Out.BenchDoc = std::move(BenchDoc);
  // The obs snapshot is best-effort: a bench that never touches an
  // instrumented path writes one only because the env exporter attaches
  // on first registry use; absence is not an error.
  if (fs::exists(ObsOut))
    if (auto ObsDoc = readJsonFile(ObsOut.string()))
      Out.ObsDoc = std::move(*ObsDoc);

  if (!Opt.KeepLogs) {
    std::error_code Ec;
    fs::remove(BenchOut, Ec);
    fs::remove(ObsOut, Ec);
    fs::remove(Log, Ec);
  }
  return Out;
}

/// `2026-08-06` from a benchmark context date like
/// `2026-08-06T12:34:56+00:00`; "undated" when absent.
std::string reportDate(const std::vector<RunResult> &Runs) {
  for (const RunResult &R : Runs)
    if (const obs::Json *Context = R.BenchDoc.get("context"))
      if (const obs::Json *Date = Context->get("date")) {
        std::string S = Date->str();
        if (S.size() >= 10)
          return S.substr(0, 10);
      }
  return "undated";
}

/// `git rev-parse HEAD` of the source tree, or "unknown" outside git.
std::string gitRev() {
  std::string Cmd = "git -C " + shellQuote(TYPECOIN_SOURCE_DIR) +
                    " rev-parse HEAD 2>/dev/null";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return "unknown";
  std::array<char, 128> Buf{};
  std::string Out;
  while (std::fgets(Buf.data(), Buf.size(), Pipe))
    Out += Buf.data();
  int Rc = pclose(Pipe);
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Rc == 0 && !Out.empty() ? Out : "unknown";
}

/// Which build and host produced a report.
obs::Json provenance() {
  obs::Json Env = obs::Json::object();
  for (char **E = environ; *E; ++E) {
    std::string Var = *E;
    size_t Eq = Var.find('=');
    if (Var.rfind("TYPECOIN_", 0) == 0 && Eq != std::string::npos)
      Env.set(Var.substr(0, Eq), obs::Json(Var.substr(Eq + 1)));
  }
  obs::Json P = obs::Json::object();
  P.set("git_rev", obs::Json(gitRev()));
  P.set("build_type", obs::Json(TYPECOIN_BUILD_TYPE));
  P.set("compiler", obs::Json(TYPECOIN_COMPILER));
  P.set("nproc", obs::Json(static_cast<uint64_t>(
                     std::thread::hardware_concurrency())));
  P.set("env", std::move(Env));
  return P;
}

/// A report's provenance object carries every field, with string values
/// (`nproc` a positive number, `env` an object of strings).
Status checkProvenance(const obs::Json &Report) {
  const obs::Json *P = Report.get("provenance");
  if (!P || !P->isObject())
    return makeError("benchrunner: report has no provenance object");
  for (const char *Key : {"git_rev", "build_type", "compiler"}) {
    const obs::Json *V = P->get(Key);
    if (!V || !V->isString() || V->str().empty())
      return makeError(std::string("benchrunner: provenance.") + Key +
                       " missing or empty");
  }
  const obs::Json *Nproc = P->get("nproc");
  if (!Nproc || !Nproc->isNumber() || Nproc->asUint() == 0)
    return makeError("benchrunner: provenance.nproc missing or zero");
  const obs::Json *Env = P->get("env");
  if (!Env || !Env->isObject())
    return makeError("benchrunner: provenance.env missing");
  for (const auto &[Name, Value] : Env->members())
    if (Name.rfind("TYPECOIN_", 0) != 0 || !Value.isString())
      return makeError("benchrunner: provenance.env holds " + Name);
  return Status::success();
}

/// Validation-logic checks that do not need the (slow) bench binaries.
int selftest() {
  auto MustFail = [](const char *Text, const char *What) {
    auto Doc = obs::Json::parse(Text);
    if (!Doc) {
      std::fprintf(stderr, "selftest: %s did not even parse\n", What);
      return false;
    }
    if (checkBenchmarkDoc(*Doc, "fake")) {
      std::fprintf(stderr, "selftest: %s was accepted\n", What);
      return false;
    }
    return true;
  };
  auto Good = obs::Json::parse(
      "{\"context\": {\"date\": \"2026-08-06T00:00:00\"},"
      " \"benchmarks\": [{\"name\": \"BM_X\", \"real_time\": 1.5}]}");
  if (!Good || !checkBenchmarkDoc(*Good, "fake")) {
    std::fprintf(stderr, "selftest: valid benchmark doc rejected\n");
    return 1;
  }
  if (!MustFail("{\"benchmarks\": [{\"name\": \"BM_X\"}]}",
                "doc without context") ||
      !MustFail("{\"context\": {}, \"benchmarks\": []}",
                "doc with no benchmark rows") ||
      !MustFail("{\"context\": {}, \"benchmarks\": [{\"real_time\": 1}]}",
                "row without a name"))
    return 1;
  // The date extraction the output filename depends on.
  RunResult R;
  R.BenchDoc = std::move(*Good);
  std::vector<RunResult> Runs;
  Runs.push_back(std::move(R));
  if (reportDate(Runs) != "2026-08-06") {
    std::fprintf(stderr, "selftest: date extraction broken (got %s)\n",
                 reportDate(Runs).c_str());
    return 1;
  }
  // A report carries its provenance, including the caller's knobs, and
  // keeps it through a write and re-read.
  setenv("TYPECOIN_SELFTEST_KNOB", "7", /*overwrite=*/1);
  obs::Json Report = obs::Json::object();
  Report.set("schema", obs::Json("typecoin-bench/1"));
  Report.set("provenance", provenance());
  auto Reread = obs::Json::parse(Report.dump(2));
  if (!Reread || !checkProvenance(*Reread)) {
    std::fprintf(stderr, "selftest: provenance rejected\n");
    return 1;
  }
  const obs::Json *Knob =
      Reread->get("provenance")->get("env")->get("TYPECOIN_SELFTEST_KNOB");
  if (!Knob || Knob->str() != "7") {
    std::fprintf(stderr, "selftest: provenance.env lost a TYPECOIN_ knob\n");
    return 1;
  }
  auto Bare = obs::Json::parse("{\"schema\": \"typecoin-bench/1\"}");
  if (!Bare || checkProvenance(*Bare)) {
    std::fprintf(stderr, "selftest: report without provenance accepted\n");
    return 1;
  }
  std::printf("benchrunner selftest: ok\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (Argc == 2 && std::string(Argv[1]) == "--selftest")
    return selftest();
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--smoke") {
      Opt.Smoke = true;
    } else if (A == "--keep-logs") {
      Opt.KeepLogs = true;
    } else if (A == "--bench-dir" && I + 1 < Argc) {
      Opt.BenchDir = Argv[++I];
    } else if (A == "--out" && I + 1 < Argc) {
      Opt.OutFile = Argv[++I];
    } else {
      return usage();
    }
  }

  fs::path BenchDir =
      Opt.BenchDir.empty() ? defaultBenchDir(Argv[0]) : fs::path(Opt.BenchDir);
  if (!fs::is_directory(BenchDir)) {
    std::fprintf(stderr, "benchrunner: bench directory %s not found\n",
                 BenchDir.string().c_str());
    return 2;
  }

  std::vector<fs::path> Binaries;
  for (const fs::directory_entry &E : fs::directory_iterator(BenchDir)) {
    if (!E.is_regular_file())
      continue;
    std::string Name = E.path().filename().string();
    if (Name.rfind("bench_", 0) == 0 && Name.find('.') == std::string::npos)
      Binaries.push_back(E.path());
  }
  std::sort(Binaries.begin(), Binaries.end());
  if (Binaries.empty()) {
    std::fprintf(stderr, "benchrunner: no bench_* binaries in %s\n",
                 BenchDir.string().c_str());
    return 2;
  }

  std::error_code Ec;
  fs::path TmpDir = fs::temp_directory_path(Ec);
  if (Ec)
    TmpDir = ".";
  TmpDir /= "benchrunner";
  fs::create_directories(TmpDir, Ec);

  std::vector<RunResult> Runs;
  for (const fs::path &Bin : Binaries) {
    auto R = runOne(Bin, TmpDir, Opt);
    if (!R) {
      std::fprintf(stderr, "%s\n", R.error().message().c_str());
      return 1;
    }
    Runs.push_back(std::move(*R));
  }

  obs::Json Report = obs::Json::object();
  Report.set("schema", obs::Json("typecoin-bench/1"));
  Report.set("date", obs::Json(reportDate(Runs)));
  Report.set("smoke", obs::Json(Opt.Smoke));
  Report.set("provenance", provenance());
  obs::Json RunsJson = obs::Json::array();
  for (RunResult &R : Runs) {
    obs::Json Entry = obs::Json::object();
    Entry.set("binary", obs::Json(R.Binary));
    if (const obs::Json *Context = R.BenchDoc.get("context"))
      Entry.set("context", *Context);
    if (const obs::Json *Benchmarks = R.BenchDoc.get("benchmarks"))
      Entry.set("benchmarks", *Benchmarks);
    if (!R.ObsDoc.isNull())
      Entry.set("obs", std::move(R.ObsDoc));
    RunsJson.push(std::move(Entry));
  }
  Report.set("runs", std::move(RunsJson));

  std::string OutFile =
      Opt.OutFile.empty() ? "BENCH_" + reportDate(Runs) + ".json"
                          : Opt.OutFile;
  std::ofstream Out(OutFile);
  if (!Out) {
    std::fprintf(stderr, "benchrunner: cannot open %s for writing\n",
                 OutFile.c_str());
    return 2;
  }
  Out << Report.dump(2) << "\n";
  if (!Out) {
    std::fprintf(stderr, "benchrunner: write to %s failed\n",
                 OutFile.c_str());
    return 2;
  }
  std::fprintf(stderr, "benchrunner: wrote %s (%zu binaries)\n",
               OutFile.c_str(), Runs.size());
  return 0;
}
