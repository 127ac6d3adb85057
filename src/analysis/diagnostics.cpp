#include "analysis/diagnostics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace lint {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "unknown";
}

std::string
SourceLoc::toString() const
{
    if (!valid())
        return file;
    std::string out = file.empty() ? "<input>" : file;
    out += strformat(":%d", line);
    if (column > 0)
        out += strformat(":%d", column);
    return out;
}

std::string
Diagnostic::toString() const
{
    std::string out;
    const std::string at = loc.toString();
    if (!at.empty())
        out += at + ": ";
    out += strformat("%s: %s [%s]", severityName(severity),
                     message.c_str(), code.c_str());
    return out;
}

const std::vector<DiagInfo> &
diagnosticCatalog()
{
    // AB1xx: circuit/QASM, AB2xx: layout/lattice, AB3xx: LLG theory.
    static const std::vector<DiagInfo> catalog{
        {"AB101", Severity::Error,
         "gate applied with identical operand qubits (e.g. CX control "
         "= target)"},
        {"AB102", Severity::Warning,
         "qubit used after measurement without an intervening reset"},
        {"AB103", Severity::Note, "declared qubit is never used"},
        {"AB104", Severity::Note,
         "classical register is never written by a measurement"},
        {"AB105", Severity::Error,
         "register-width mismatch in a broadcast gate or measurement"},
        {"AB106", Severity::Warning,
         "adjacent self-inverse gate pair cancels to the identity "
         "(dead work)"},
        {"AB107", Severity::Note,
         "magic-state hotspot: one qubit consumes a dominant share of "
         "the T/rotation gates"},
        {"AB108", Severity::Note,
         "gate on a dead qubit: the qubit is never measured or "
         "entangled afterwards, so the gate has no observable "
         "effect"},
        {"AB109", Severity::Warning,
         "dead measurement: its classical destination bit is "
         "overwritten by a later measurement before being read"},
        {"AB201", Severity::Error,
         "tile whose four corner vertices are all dead: any braid "
         "touching it is statically unroutable"},
        {"AB202", Severity::Note,
         "channel-capacity lower bound: a vertex cut between "
         "interacting tile groups bounds the achievable makespan"},
        {"AB203", Severity::Error,
         "dead vertices disconnect the live routing graph between "
         "tiles"},
        {"AB204", Severity::Error,
         "lattice too small for lattice surgery: a gate's minimal "
         "merge region (live tile corners plus ancilla-bus interior) "
         "exceeds the live routing-vertex count"},
        {"AB301", Severity::Note,
         "LLG violates both schedulability theorems (size > 3 and not "
         "strictly nested): in-box routing is not guaranteed"},
        {"AB302", Severity::Note,
         "four pairwise strictly-interfering CX gates in one layer "
         "(Theorem 3 obstruction)"},
        // AB4xx: schedule-level advisories (schedule-lint stage).
        {"AB401", Severity::Note,
         "optimality gap: the achieved makespan exceeds the "
         "certified lower bound (critical path / channel capacity) "
         "by more than the advisory threshold"},
        {"AB402", Severity::Note,
         "congestion hotspot: one routing vertex is busy for a "
         "dominant share of the schedule (flight-recording "
         "heatmap)"},
        {"AB403", Severity::Note,
         "idle-resource window: a long stretch of the schedule has "
         "no braid or merge region in flight"},
    };
    return catalog;
}

const DiagInfo *
findDiagInfo(const std::string &code)
{
    for (const DiagInfo &info : diagnosticCatalog())
        if (code == info.code)
            return &info;
    return nullptr;
}

DiagnosticEngine::DiagnosticEngine(LintOptions options)
    : options_(std::move(options))
{}

bool
DiagnosticEngine::suppressed(const std::string &code) const
{
    for (const std::string &s : options_.suppressions) {
        if (s == code)
            return true;
        // Family wildcard: "AB1xx" suppresses every AB1-family code.
        if (s.size() == code.size() && s.size() > 2 &&
            s.compare(s.size() - 2, 2, "xx") == 0 &&
            code.compare(0, s.size() - 2, s, 0, s.size() - 2) == 0)
            return true;
    }
    return false;
}

void
DiagnosticEngine::report(const char *code, SourceLoc loc,
                         std::string message)
{
    const DiagInfo *info = findDiagInfo(code);
    require(info != nullptr, "lint: unregistered diagnostic code");
    report(code, info->severity, std::move(loc), std::move(message));
}

void
DiagnosticEngine::report(const char *code, Severity severity,
                         SourceLoc loc, std::string message)
{
    if (options_.level == LintLevel::Off)
        return;
    if (suppressed(code)) {
        ++suppressed_;
        return;
    }
    if (severity == Severity::Warning && options_.werror)
        severity = Severity::Error;
    if (options_.level == LintLevel::Errors &&
        severity != Severity::Error)
        return;
    if (options_.level == LintLevel::Warnings &&
        severity == Severity::Note)
        return;
    diagnostics_.push_back(
        {code, severity, std::move(message), std::move(loc), {}});
}

void
DiagnosticEngine::reportWithFix(const char *code, SourceLoc loc,
                                std::string message,
                                std::vector<FixReplacement> fixes)
{
    const size_t before = diagnostics_.size();
    report(code, std::move(loc), std::move(message));
    // Attach only when the diagnostic survived suppression/filtering.
    if (diagnostics_.size() > before)
        diagnostics_.back().fixes = std::move(fixes);
}

size_t
DiagnosticEngine::count(Severity severity) const
{
    return static_cast<size_t>(std::count_if(
        diagnostics_.begin(), diagnostics_.end(),
        [severity](const Diagnostic &d) {
            return d.severity == severity;
        }));
}

void
DiagnosticEngine::setMetric(const std::string &name, long value)
{
    metrics_[name] = value;
}

std::string
DiagnosticEngine::toText() const
{
    std::string out;
    for (const Diagnostic &d : diagnostics_)
        out += d.toString() + "\n";
    if (!diagnostics_.empty() || suppressed_ > 0) {
        out += strformat("%zu error(s), %zu warning(s), %zu note(s)",
                         count(Severity::Error),
                         count(Severity::Warning),
                         count(Severity::Note));
        if (suppressed_ > 0)
            out += strformat(", %zu suppressed", suppressed_);
        out += "\n";
    }
    return out;
}

std::string
DiagnosticEngine::toSarif() const
{
    std::string out;
    json::Writer w(out);
    // SARIF wraps texts and uris in one-member objects.
    const auto wrapped = [&w](const char *key, const char *member,
                              std::string_view s) {
        w.key(key).beginObject().key(member).value(s).end();
    };
    w.beginObject().key("$schema").value(
        "https://json.schemastore.org/sarif-2.1.0.json");
    w.key("version").value("2.1.0").key("runs").beginArray();
    w.beginObject().key("tool").beginObject().key("driver").beginObject();
    w.key("name").value("autobraid-lint").key("version").value("1.0.0");
    w.key("informationUri").value(
        "https://github.com/autobraid/autobraid");
    w.key("rules").beginArray();
    // SARIF 2.1.0 severity levels share the engine's names.
    for (const DiagInfo &info : diagnosticCatalog()) {
        w.beginObject().key("id").value(info.code);
        wrapped("shortDescription", "text", info.summary);
        wrapped("defaultConfiguration", "level",
                severityName(info.severity));
        w.end();
    }
    w.end().end().end().key("results").beginArray();
    for (const Diagnostic &d : diagnostics_) {
        w.beginObject().key("ruleId").value(d.code);
        w.key("level").value(severityName(d.severity));
        wrapped("message", "text", d.message);
        if (d.loc.valid()) {
            w.key("locations").beginArray().beginObject();
            w.key("physicalLocation").beginObject();
            wrapped("artifactLocation", "uri",
                    d.loc.file.empty() ? "<input>" : d.loc.file);
            w.key("region").beginObject().key("startLine").value(
                d.loc.line);
            if (d.loc.column > 0)
                w.key("startColumn").value(d.loc.column);
            w.end().end().end().end();
        }
        if (!d.fixes.empty()) {
            // SARIF fix objects: one artifactChange per touched
            // file, whole-line replacements (endLine = startLine,
            // no columns; empty insertedContent deletes the line).
            w.key("fixes").beginArray().beginObject();
            wrapped("description", "text", "mechanical fix");
            w.key("artifactChanges").beginArray();
            for (const FixReplacement &fix : d.fixes) {
                w.beginObject();
                wrapped("artifactLocation", "uri", fix.file);
                w.key("replacements").beginArray().beginObject();
                w.key("deletedRegion").beginObject();
                w.key("startLine").value(fix.line);
                w.key("endLine").value(fix.line).end();
                if (!fix.text.empty())
                    wrapped("insertedContent", "text", fix.text);
                w.end().end().end();
            }
            w.end().end().end();
        }
        w.end();
    }
    w.end().end().end().end();
    return out;
}

} // namespace lint
} // namespace autobraid
