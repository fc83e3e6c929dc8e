//===- analysis/diagnostic.cpp - Lint diagnostics -----------------------------===//

#include "analysis/diagnostic.h"

namespace typecoin {
namespace analysis {

const char *severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string Out = severityName(Sev);
  Out += " [";
  Out += Code;
  Out += "] ";
  Out += Message;
  if (!Span.empty()) {
    Out += " (at ";
    Out += Span;
    Out += ")";
  }
  return Out;
}

void LintReport::merge(const LintReport &Other,
                       const std::string &SpanPrefix) {
  for (const Diagnostic &D : Other.Diags) {
    Diagnostic Copy = D;
    if (!SpanPrefix.empty())
      Copy.Span = Copy.Span.empty() ? SpanPrefix
                                    : SpanPrefix + "/" + Copy.Span;
    Diags.push_back(std::move(Copy));
  }
}

size_t LintReport::count(Severity Sev) const {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Sev)
      ++N;
  return N;
}

bool LintReport::has(const std::string &Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

const Diagnostic *LintReport::firstAtLeast(Severity Sev) const {
  for (const Diagnostic &D : Diags)
    if (static_cast<int>(D.Sev) >= static_cast<int>(Sev))
      return &D;
  return nullptr;
}

std::string LintReport::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str();
    Out += "\n";
  }
  return Out;
}

Status LintReport::toStatus() const {
  for (const Diagnostic &D : Diags)
    if (D.Sev == Severity::Error)
      return makeError("lint: " + D.str());
  return Status::success();
}

obs::Json findingsJson(const LintReport &R) {
  obs::Json Doc = obs::Json::object();
  Doc.set("schema", "typecoin-findings/1");
  obs::Json Counts = obs::Json::object();
  Counts.set("note", static_cast<int64_t>(R.count(Severity::Note)));
  Counts.set("warning", static_cast<int64_t>(R.count(Severity::Warning)));
  Counts.set("error", static_cast<int64_t>(R.count(Severity::Error)));
  Doc.set("counts", std::move(Counts));
  obs::Json Findings = obs::Json::array();
  for (const Diagnostic &D : R.diagnostics()) {
    obs::Json F = obs::Json::object();
    F.set("severity", severityName(D.Sev));
    F.set("code", D.Code);
    F.set("message", D.Message);
    F.set("span", D.Span);
    Findings.push(std::move(F));
  }
  Doc.set("findings", std::move(Findings));
  return Doc;
}

} // namespace analysis
} // namespace typecoin
