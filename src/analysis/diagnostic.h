//===- analysis/diagnostic.h - Lint diagnostics ------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured diagnostics for the static-analysis layer (`tclint`).
/// Unlike \ref Status, which aborts at the first problem, a lint pass
/// accumulates every finding so a client (or the CLI) can report them
/// all at once. Each diagnostic carries a stable machine-readable code,
/// a severity, and a "span": a path into the linted artifact (e.g.
/// `proof/lam(x)/app/arg` or `output[2]`) playing the role a
/// file:line location plays in a source-level linter.
///
/// A report also renders to a machine-readable JSON document (schema
/// `typecoin-findings/1`), shared by `tclint --json` and the CI
/// symcheck job.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_DIAGNOSTIC_H
#define TYPECOIN_ANALYSIS_DIAGNOSTIC_H

#include "obs/json.h"
#include "support/result.h"

#include <string>
#include <vector>

namespace typecoin {
namespace analysis {

/// How bad a finding is.
enum class Severity {
  Note,    ///< Informational; never affects acceptance.
  Warning, ///< Suspicious but legal (e.g. a never-consumed hypothesis).
  Error,   ///< The full checker / relay policy is guaranteed to reject.
};

const char *severityName(Severity S);

/// One finding.
struct Diagnostic {
  Severity Sev = Severity::Warning;
  /// Stable machine-readable code, e.g. "affine-reuse",
  /// "script-nonstandard", "embed-mismatch".
  std::string Code;
  /// Human-readable message, naming hypotheses/outputs involved.
  std::string Message;
  /// Path into the linted artifact (the lint analogue of a source span).
  std::string Span;

  std::string str() const;
};

/// The accumulated output of a lint pass.
class LintReport {
public:
  void add(Severity Sev, std::string Code, std::string Message,
           std::string Span = "") {
    Diags.push_back(
        {Sev, std::move(Code), std::move(Message), std::move(Span)});
  }
  void note(std::string Code, std::string Message, std::string Span = "") {
    add(Severity::Note, std::move(Code), std::move(Message),
        std::move(Span));
  }
  void warn(std::string Code, std::string Message, std::string Span = "") {
    add(Severity::Warning, std::move(Code), std::move(Message),
        std::move(Span));
  }
  void error(std::string Code, std::string Message, std::string Span = "") {
    add(Severity::Error, std::move(Code), std::move(Message),
        std::move(Span));
  }

  /// Append another report, prefixing each span with \p SpanPrefix
  /// (used when a sub-artifact such as a fallback is linted recursively).
  void merge(const LintReport &Other, const std::string &SpanPrefix = "");

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  size_t size() const { return Diags.size(); }

  size_t count(Severity Sev) const;
  bool hasErrors() const { return count(Severity::Error) != 0; }

  /// True when some diagnostic has the given code.
  bool has(const std::string &Code) const;
  /// First diagnostic with the given minimum severity, or null.
  const Diagnostic *firstAtLeast(Severity Sev) const;

  /// Multi-line rendering, one diagnostic per line.
  std::string str() const;

  /// Collapse into a Status: the first error (if any) becomes the error
  /// message; warnings and notes succeed.
  Status toStatus() const;

private:
  std::vector<Diagnostic> Diags;
};

/// Render a report as a `typecoin-findings/1` JSON document:
/// `{schema, counts{note,warning,error}, findings[{severity,code,
/// message,span}]}`.
obs::Json findingsJson(const LintReport &R);

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_DIAGNOSTIC_H
