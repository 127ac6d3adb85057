#include "analysis/circuit_lints.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "circuit/peephole.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace lint {

SourceLoc
GateProvenance::at(GateIdx g) const
{
    SourceLoc loc;
    loc.file = file;
    if (g < lines.size())
        loc.line = lines[g];
    return loc;
}

namespace {

/** True when @p kind consumes magic states (T gates or rotations). */
bool
consumesMagic(GateKind kind)
{
    return kind == GateKind::T || kind == GateKind::Tdg ||
           kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ;
}

constexpr GateIdx kNone = static_cast<GateIdx>(-1);

/** AB107 fires when one qubit holds more than this share of T work... */
constexpr double kTHotspotShare = 0.5;
/** ... and the circuit has at least this many T/rotation gates. */
constexpr size_t kTHotspotMin = 16;

/** AB108 and AB109 report this many; the rest collapse into one. */
constexpr size_t kMaxDeadReports = 16;

void
lintUnusedQubits(const Circuit &circuit, DiagnosticEngine &engine)
{
    std::vector<bool> used(static_cast<size_t>(circuit.numQubits()));
    for (const Gate &g : circuit.gates()) {
        used[static_cast<size_t>(g.q0)] = true;
        if (g.q1 != kNoQubit)
            used[static_cast<size_t>(g.q1)] = true;
    }
    std::vector<Qubit> unused;
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        if (!used[static_cast<size_t>(q)])
            unused.push_back(q);
    if (unused.empty())
        return;
    std::string list;
    for (size_t i = 0; i < unused.size() && i < 8; ++i)
        list += strformat("%sq%d", i ? ", " : "", unused[i]);
    if (unused.size() > 8)
        list += ", ...";
    engine.report("AB103", SourceLoc{},
                  strformat("%zu of %d declared qubits are never used "
                            "(%s): the grid is sized for all of them",
                            unused.size(), circuit.numQubits(),
                            list.c_str()));
}

void
lintAdjacentInverses(const Circuit &circuit, DiagnosticEngine &engine,
                     const GateProvenance *prov)
{
    // Line-deletion fixes are only safe when a source line holds
    // exactly one gate (broadcasts and user-gate expansions map many
    // gates to one line; deleting it would drop the others too).
    std::map<int, size_t> gates_per_line;
    if (prov && !prov->file.empty())
        for (int line : prov->lines)
            if (line > 0)
                ++gates_per_line[line];
    auto soleGateLine = [&](GateIdx g) -> int {
        if (!prov || prov->file.empty() || g >= prov->lines.size())
            return 0;
        const int line = prov->lines[g];
        if (line <= 0 || gates_per_line[line] != 1)
            return 0;
        return line;
    };

    // last[q] = index of the most recent gate touching qubit q.
    std::vector<GateIdx> last(static_cast<size_t>(circuit.numQubits()),
                              kNone);
    for (GateIdx i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gate(i);
        // A pair is adjacent when the previous gate on every operand
        // of g is the same gate; gatesCancel() (shared with the
        // generator peephole) decides whether the pair is dead work.
        const GateIdx p0 = last[static_cast<size_t>(g.q0)];
        const bool pair_adjacent =
            g.arity() == 1
                ? p0 != kNone
                : p0 != kNone &&
                      p0 == last[static_cast<size_t>(g.q1)];
        if (pair_adjacent && gatesCancel(circuit.gate(p0), g)) {
            const GateIdx p = last[static_cast<size_t>(g.q0)];
            std::string message =
                strformat("gate #%zu (%s) cancels with gate #%zu "
                          "(%s): the pair is dead work",
                          i, g.toString().c_str(), p,
                          circuit.gate(p).toString().c_str());
            const int line_i = soleGateLine(i);
            const int line_p = soleGateLine(p);
            if (line_i > 0 && line_p > 0 && line_i != line_p)
                engine.reportWithFix("AB106",
                                     prov ? prov->at(i)
                                          : SourceLoc{},
                                     std::move(message),
                                     {{prov->file, line_p, ""},
                                      {prov->file, line_i, ""}});
            else
                engine.report("AB106",
                              prov ? prov->at(i) : SourceLoc{},
                              std::move(message));
            // Treat the pair as removed so a run of three identical
            // gates reports one pair, not two overlapping ones.
            last[static_cast<size_t>(g.q0)] = kNone;
            if (g.q1 != kNoQubit)
                last[static_cast<size_t>(g.q1)] = kNone;
            continue;
        }
        last[static_cast<size_t>(g.q0)] = i;
        if (g.q1 != kNoQubit)
            last[static_cast<size_t>(g.q1)] = i;
    }
}

void
lintMagicHotspot(const Circuit &circuit, DiagnosticEngine &engine)
{
    std::vector<size_t> t_count(
        static_cast<size_t>(circuit.numQubits()));
    size_t total = 0;
    for (const Gate &g : circuit.gates()) {
        if (!consumesMagic(g.kind))
            continue;
        ++t_count[static_cast<size_t>(g.q0)];
        ++total;
    }
    if (total < kTHotspotMin || circuit.numQubits() < 2)
        return;
    Qubit hot = 0;
    for (Qubit q = 1; q < circuit.numQubits(); ++q)
        if (t_count[static_cast<size_t>(q)] >
            t_count[static_cast<size_t>(hot)])
            hot = q;
    const size_t peak = t_count[static_cast<size_t>(hot)];
    if (static_cast<double>(peak) <=
        kTHotspotShare * static_cast<double>(total))
        return;
    engine.report(
        "AB107", SourceLoc{},
        strformat("magic-state hotspot: qubit q%d consumes %zu of %zu "
                  "T/rotation gates (%.0f%%); magic-state delivery to "
                  "its tile will serialize",
                  hot, peak, total,
                  100.0 * static_cast<double>(peak) /
                      static_cast<double>(total)));
}

/**
 * AB108: pure single-qubit unitaries on a qubit that is never
 * afterwards measured or entangled with a qubit that is. Circuits are
 * straight-line, so one backward liveness sweep is exact. Gates in
 * @p reset_gates kill liveness instead of observing. Skipped for
 * circuits with no real measurement: benchmark kernels leave final
 * readout implicit.
 */
void
lintDeadGates(const Circuit &circuit, DiagnosticEngine &engine,
              const GateProvenance *provenance,
              const std::vector<GateIdx> *reset_gates)
{
    const std::vector<Gate> &gates = circuit.gates();
    std::vector<uint8_t> is_reset(gates.size(), 0);
    if (reset_gates)
        for (GateIdx g : *reset_gates)
            if (g < gates.size())
                is_reset[g] = 1;

    bool has_observation = false;
    for (size_t g = 0; g < gates.size(); ++g)
        has_observation = has_observation ||
                          (gates[g].kind == GateKind::Measure &&
                           !is_reset[g]);
    if (!has_observation)
        return;

    // live[q]: the state of q at this point is observed later.
    std::vector<uint8_t> live(static_cast<size_t>(circuit.numQubits()),
                              0);
    std::vector<uint8_t> dead(gates.size(), 0);
    for (size_t g = gates.size(); g-- > 0;) {
        const Gate &gate = gates[g];
        const auto q0 = static_cast<size_t>(gate.q0);
        if (gate.kind == GateKind::Measure) {
            // A reset discards the pre-reset state; a measurement
            // observes it.
            live[q0] = is_reset[g] ? 0 : 1;
        } else if (gate.kind == GateKind::Barrier) {
            // Scheduling aid; no effect on any state.
        } else if (gate.arity() == 2) {
            // Entanglement: if either operand is eventually observed,
            // both pre-gate states are.
            const auto q1 = static_cast<size_t>(gate.q1);
            if (live[q0] || live[q1])
                live[q0] = live[q1] = 1;
        } else {
            dead[g] = live[q0] ? 0 : 1;
        }
    }

    size_t reported = 0;
    size_t suppressed = 0;
    for (size_t g = 0; g < gates.size(); ++g) {
        if (!dead[g])
            continue;
        if (reported == kMaxDeadReports) {
            ++suppressed;
            continue;
        }
        ++reported;
        const Gate &gate = gates[g];
        engine.report(
            "AB108",
            provenance ? provenance->at(g) : SourceLoc{},
            strformat("gate %zu (%s): qubit q%d is never measured "
                      "or entangled afterwards, so the gate has no "
                      "observable effect",
                      g, gate.toString().c_str(), gate.q0));
    }
    if (suppressed > 0)
        engine.report("AB108", SourceLoc{},
                      strformat("... and %zu more gates on dead "
                                "qubits",
                                suppressed));
}

} // namespace

void
lintCircuit(const Circuit &circuit, DiagnosticEngine &engine,
            const GateProvenance *provenance,
            const std::vector<GateIdx> *reset_gates)
{
    lintUnusedQubits(circuit, engine);
    lintAdjacentInverses(circuit, engine, provenance);
    lintMagicHotspot(circuit, engine);
    lintDeadGates(circuit, engine, provenance, reset_gates);
}

namespace {

using qasm::Argument;
using qasm::Program;

SourceLoc
at(const std::string &file, int line)
{
    SourceLoc loc;
    loc.file = file;
    loc.line = line;
    return loc;
}

/** AB101: gate calls where two operands alias the same qubit. */
void
lintDuplicateOperands(const Program &program, DiagnosticEngine &engine,
                      const std::string &file)
{
    for (const qasm::Statement &stmt : program.statements) {
        const auto *call = std::get_if<qasm::GateCall>(&stmt);
        if (!call)
            continue;
        bool reported = false;
        for (size_t i = 0; i < call->args.size() && !reported; ++i) {
            const Argument &a = call->args[i];
            if (!program.qreg(a.reg))
                continue;
            for (size_t j = i + 1; j < call->args.size(); ++j) {
                const Argument &b = call->args[j];
                if (a.reg != b.reg)
                    continue;
                // Distinct indexed elements never alias; every other
                // same-register combination collides at some
                // broadcast index (e.g. `cx q, q` or `cx q, q[0]`).
                if (!a.wholeRegister() && !b.wholeRegister() &&
                    a.index != b.index)
                    continue;
                engine.report(
                    "AB101", at(file, call->line),
                    strformat("gate '%s' applies operands %s and %s "
                              "to the same qubit",
                              std::string(call->name).c_str(),
                              a.toString().c_str(),
                              b.toString().c_str()));
                reported = true;
                break;
            }
        }
    }
}

/** AB105: unequal whole-register operands of one broadcast call. */
void
lintBroadcastWidths(const Program &program, DiagnosticEngine &engine,
                    const std::string &file)
{
    for (const qasm::Statement &stmt : program.statements) {
        const auto *call = std::get_if<qasm::GateCall>(&stmt);
        if (!call)
            continue;
        int width = 0;
        const Argument *first = nullptr;
        for (const Argument &arg : call->args) {
            if (!arg.wholeRegister())
                continue;
            const qasm::Register *reg = program.qreg(arg.reg);
            if (!reg)
                continue; // unknown register: elaboration rejects it
            const int size = reg->size;
            if (width == 0) {
                width = size;
                first = &arg;
            } else if (size != width) {
                engine.report(
                    "AB105", at(file, call->line),
                    strformat("gate '%s' broadcasts registers of "
                              "unequal size ('%s'[%d] vs '%s'[%d])",
                              std::string(call->name).c_str(),
                              std::string(first->reg).c_str(), width,
                              std::string(arg.reg).c_str(), size));
                break;
            }
        }
    }
}

/** AB105: measurement source/destination width and range problems. */
void
lintMeasureWidths(const Program &program, DiagnosticEngine &engine,
                  const std::string &file)
{
    for (const qasm::Statement &stmt : program.statements) {
        const auto *m = std::get_if<qasm::MeasureStmt>(&stmt);
        if (!m)
            continue;
        const qasm::Register *qreg = program.qreg(m->src.reg);
        const qasm::Register *creg = program.creg(m->dst.reg);
        if (!qreg || !creg)
            continue; // unknown registers: elaboration rejects them
        const int qsize = qreg->size;
        const int csize = creg->size;
        if (m->src.wholeRegister() && m->dst.wholeRegister()) {
            if (qsize != csize)
                engine.report(
                    "AB105", at(file, m->line),
                    strformat("measure broadcasts '%s'[%d] into "
                              "'%s'[%d]: widths differ",
                              std::string(m->src.reg).c_str(), qsize,
                              std::string(m->dst.reg).c_str(), csize));
        } else if (m->src.wholeRegister() && qsize > 1) {
            engine.report(
                "AB105", at(file, m->line),
                strformat("measure broadcasts '%s'[%d] into the "
                          "single bit '%s[%d]'",
                          std::string(m->src.reg).c_str(), qsize,
                          std::string(m->dst.reg).c_str(), m->dst.index));
        }
        if (!m->dst.wholeRegister() &&
            (m->dst.index < 0 || m->dst.index >= csize))
            engine.report(
                "AB105", at(file, m->line),
                strformat("classical index %d out of range for "
                          "'%s'[%d]",
                          m->dst.index,
                          std::string(m->dst.reg).c_str(), csize));
    }
}

/** AB104: cregs that no measurement ever writes. */
void
lintUnusedCregs(const Program &program, DiagnosticEngine &engine,
                const std::string &file)
{
    std::set<std::string_view> written;
    for (const qasm::Statement &stmt : program.statements)
        if (const auto *m = std::get_if<qasm::MeasureStmt>(&stmt))
            written.emplace(m->dst.reg);
    for (const qasm::Register &reg : program.cregs()) {
        if (written.find(reg.name) != written.end())
            continue;
        const int line = reg.line;
        std::string message =
            strformat("classical register '%s'[%d] is never "
                      "written by a measurement",
                      std::string(reg.name).c_str(), reg.size);
        // Deleting the declaration is mechanically safe only when
        // we know its line and the file is on disk.
        if (line > 0 && !file.empty())
            engine.reportWithFix("AB104", at(file, line),
                                 std::move(message),
                                 {{file, line, ""}});
        else
            engine.report("AB104", at(file, line),
                          std::move(message));
    }
}

/**
 * AB103 (AST flavor): a qreg none of whose elements appear in any
 * statement. Unlike the circuit-level unused-qubit lint this sees
 * the declaration line, so it can offer a delete-the-decl fix —
 * but only while another qreg remains (a program with no qubits is
 * rejected by elaboration).
 */
void
lintUnusedQregs(const Program &program, DiagnosticEngine &engine,
                const std::string &file)
{
    std::set<std::string_view> referenced;
    auto touch = [&referenced](const Argument &arg) {
        referenced.emplace(arg.reg);
    };
    for (const qasm::Statement &stmt : program.statements) {
        if (const auto *call = std::get_if<qasm::GateCall>(&stmt))
            for (const Argument &a : call->args)
                touch(a);
        else if (const auto *m =
                     std::get_if<qasm::MeasureStmt>(&stmt))
            touch(m->src);
        else if (const auto *b =
                     std::get_if<qasm::BarrierStmt>(&stmt))
            for (const Argument &a : b->args)
                touch(a);
        else if (const auto *r = std::get_if<qasm::ResetStmt>(&stmt))
            touch(r->arg);
    }
    for (const qasm::Register &reg : program.qregs()) {
        if (referenced.find(reg.name) != referenced.end())
            continue;
        const int line = reg.line;
        std::string message = strformat(
            "quantum register '%s'[%d] is never referenced by any "
            "statement",
            std::string(reg.name).c_str(), reg.size);
        if (line > 0 && !file.empty() && program.qregs().size() > 1)
            engine.reportWithFix("AB103", at(file, line),
                                 std::move(message),
                                 {{file, line, ""}});
        else
            engine.report("AB103", at(file, line),
                          std::move(message));
    }
}

/** AB102: quantum use after measurement without a reset. */
void
lintUseAfterMeasure(const Program &program, DiagnosticEngine &engine,
                    const std::string &file)
{
    // Key = qubit (register name, element index).
    using QubitKey = std::pair<std::string, int>;
    std::set<QubitKey> measured;
    std::set<QubitKey> reported;

    auto elements = [&program](const Argument &arg) {
        std::vector<QubitKey> out;
        const qasm::Register *reg = program.qreg(arg.reg);
        if (!reg)
            return out; // not a qreg (or undeclared)
        if (arg.wholeRegister())
            for (int i = 0; i < reg->size; ++i)
                out.emplace_back(arg.reg, i);
        else
            out.emplace_back(arg.reg, arg.index);
        return out;
    };

    for (const qasm::Statement &stmt : program.statements) {
        if (const auto *call = std::get_if<qasm::GateCall>(&stmt)) {
            for (const Argument &arg : call->args)
                for (const QubitKey &q : elements(arg))
                    if (measured.count(q) && !reported.count(q)) {
                        reported.insert(q);
                        engine.report(
                            "AB102", at(file, call->line),
                            strformat("'%s[%d]' is used by gate '%s' "
                                      "after being measured; insert a "
                                      "reset to reuse it",
                                      q.first.c_str(), q.second,
                                      std::string(call->name).c_str()));
                    }
        } else if (const auto *m =
                       std::get_if<qasm::MeasureStmt>(&stmt)) {
            for (const QubitKey &q : elements(m->src))
                measured.insert(q);
        } else if (const auto *r =
                       std::get_if<qasm::ResetStmt>(&stmt)) {
            for (const QubitKey &q : elements(r->arg))
                measured.erase(q);
        }
        // Barriers neither use nor reset qubits.
    }
}

/**
 * AB109: measurements whose destination creg bit is overwritten by a
 * later measurement before the program ends. The OpenQASM 2 subset
 * has no classical control flow, so one forward sweep over the creg
 * bits is exact and an overwritten result is unobservable.
 */
void
lintDeadMeasurements(const Program &program, DiagnosticEngine &engine,
                     const std::string &file)
{
    // Creg bits in one dense index space: each register's offset.
    if (program.cregs().empty())
        return;
    const size_t total_bits = static_cast<size_t>(
        program.cregs().back().offset + program.cregs().back().size);

    // pending_line[b]: source line of the not-yet-overwritten
    // measurement into bit b, -1 when none.
    std::vector<int> pending_line(total_bits, -1);
    size_t reported = 0;
    size_t suppressed = 0;
    for (const qasm::Statement &stmt : program.statements) {
        const auto *m = std::get_if<qasm::MeasureStmt>(&stmt);
        if (!m)
            continue; // only measurements touch creg bits
        const qasm::Register *dst = program.creg(m->dst.reg);
        if (!dst)
            continue; // undeclared creg: AB105's report, not ours
        const auto offset = static_cast<size_t>(dst->offset);
        const int size = dst->size;
        const qasm::Register *src = program.qreg(m->src.reg);
        // Element-wise bits written: one for an indexed dst, the
        // broadcast width for a whole-register measure.
        int first = 0;
        int count = 1;
        if (m->dst.wholeRegister()) {
            if (m->src.wholeRegister())
                count = std::min(size, src ? src->size : 0);
        } else {
            first = m->dst.index;
        }
        for (int b = first; b < first + count; ++b) {
            if (b < 0 || b >= size)
                continue; // out-of-range bits are AB105's report
            int &pending = pending_line[offset + static_cast<size_t>(b)];
            if (pending >= 0) {
                if (reported == kMaxDeadReports) {
                    ++suppressed;
                } else {
                    ++reported;
                    engine.report(
                        "AB109", SourceLoc{file, pending},
                        strformat(
                            "measurement into %s[%d] is overwritten "
                            "at line %d before being read",
                            std::string(m->dst.reg).c_str(), b, m->line));
                }
            }
            pending = m->line;
        }
    }
    if (suppressed > 0)
        engine.report("AB109", SourceLoc{file, 0},
                      strformat("... and %zu more overwritten "
                                "measurements",
                                suppressed));
}

} // namespace

void
lintProgram(const Program &program, DiagnosticEngine &engine,
            const std::string &file)
{
    lintDuplicateOperands(program, engine, file);
    lintBroadcastWidths(program, engine, file);
    lintMeasureWidths(program, engine, file);
    lintUnusedCregs(program, engine, file);
    lintUnusedQregs(program, engine, file);
    lintUseAfterMeasure(program, engine, file);
    lintDeadMeasurements(program, engine, file);
}

} // namespace lint
} // namespace autobraid
