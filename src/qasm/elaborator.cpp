#include "qasm/elaborator.hpp"

#include <map>
#include <vector>

#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace autobraid {
namespace qasm {
namespace {

/** Elaboration context: register layout + gate table + output circuit. */
class Elaborator
{
  public:
    Elaborator(const Program &program, const std::string &name)
        : program_(&program),
          circuit_(std::max(1, program.totalQubits()), name)
    {
        if (program.totalQubits() == 0)
            fatal("qasm: program declares no qubits");
        int offset = 0;
        for (const auto &[reg, size] : program.qregs) {
            qreg_offset_[reg] = offset;
            offset += size;
        }
    }

    Circuit
    run()
    {
        for (const Statement &stmt : program_->statements)
            std::visit([this](const auto &s) { apply(s); }, stmt);
        return std::move(circuit_);
    }

    /** Like run(), also recording each gate's source line. */
    ElaboratedCircuit
    runWithLines()
    {
        std::vector<int> lines;
        for (const Statement &stmt : program_->statements) {
            std::visit([this](const auto &s) { apply(s); }, stmt);
            // Every gate appended by this statement (including user
            // gate expansions) maps to the statement's line.
            const int line =
                std::visit([](const auto &s) { return s.line; }, stmt);
            lines.resize(circuit_.size(), line);
        }
        return {std::move(circuit_), std::move(lines),
                std::move(reset_gates_)};
    }

  private:
    const Program *program_;
    Circuit circuit_;
    std::map<std::string, int> qreg_offset_;
    std::vector<GateIdx> reset_gates_;

    /** Resolve one element of an argument under broadcasting. */
    Qubit
    resolve(const Argument &arg, int broadcast_idx) const
    {
        auto it = qreg_offset_.find(arg.reg);
        if (it == qreg_offset_.end())
            fatal("qasm:%d: unknown quantum register '%s'", arg.line,
                  arg.reg.c_str());
        const int size = program_->qregSize(arg.reg);
        const int index = arg.wholeRegister() ? broadcast_idx : arg.index;
        if (index < 0 || index >= size)
            fatal("qasm:%d: index %d out of range for %s[%d]", arg.line,
                  index, arg.reg.c_str(), size);
        return static_cast<Qubit>(it->second + index);
    }

    /** Broadcast width of an argument list (1 when all are indexed). */
    int
    broadcastWidth(const std::vector<Argument> &args, int line) const
    {
        int width = 1;
        for (const Argument &arg : args) {
            if (!arg.wholeRegister())
                continue;
            const int size = program_->qregSize(arg.reg);
            if (size < 0)
                fatal("qasm:%d: unknown quantum register '%s'", line,
                      arg.reg.c_str());
            if (width != 1 && size != width)
                fatal("qasm:%d: broadcast registers of unequal size "
                      "(%d vs %d)",
                      line, width, size);
            width = size;
        }
        return width;
    }

    void
    apply(const GateCall &call)
    {
        std::vector<double> params;
        params.reserve(call.params.size());
        const std::map<std::string, double> empty;
        for (const ExprPtr &e : call.params)
            params.push_back(e->eval(empty));

        const int width = broadcastWidth(call.args, call.line);
        std::vector<Qubit> qubits(call.args.size());
        for (int b = 0; b < width; ++b) {
            for (size_t i = 0; i < call.args.size(); ++i)
                qubits[i] = resolve(call.args[i], b);
            emit(call.name, params, qubits, call.line, 0);
        }
    }

    void
    apply(const MeasureStmt &m)
    {
        if (program_->cregSize(m.dst.reg) < 0)
            fatal("qasm:%d: unknown classical register '%s'", m.line,
                  m.dst.reg.c_str());
        const int width = broadcastWidth({m.src}, m.line);
        for (int b = 0; b < width; ++b)
            circuit_.measure(resolve(m.src, b));
    }

    void
    apply(const BarrierStmt &b)
    {
        std::vector<Qubit> qubits;
        for (const Argument &arg : b.args) {
            const int width =
                arg.wholeRegister() ? program_->qregSize(arg.reg) : 1;
            for (int i = 0; i < width; ++i)
                qubits.push_back(resolve(arg, i));
        }
        emitBarrier(qubits);
    }

    void
    apply(const ResetStmt &r)
    {
        // Modelled as a projective measurement (DESIGN.md substitution).
        const int width = broadcastWidth({r.arg}, r.line);
        for (int b = 0; b < width; ++b)
            reset_gates_.push_back(
                circuit_.measure(resolve(r.arg, b)));
    }

    /** A k-qubit barrier as a dependence chain of <=2-qubit barriers. */
    void
    emitBarrier(const std::vector<Qubit> &qubits)
    {
        if (qubits.empty())
            return;
        if (qubits.size() == 1) {
            circuit_.add(Gate::oneQubit(GateKind::Barrier, qubits[0]));
            return;
        }
        for (size_t i = 0; i + 1 < qubits.size(); ++i)
            circuit_.add(Gate::twoQubit(GateKind::Barrier, qubits[i],
                                        qubits[i + 1]));
    }

    void
    checkArity(const std::string &name, size_t got_params,
               size_t want_params, size_t got_qubits,
               size_t want_qubits, int line)
    {
        if (got_params != want_params)
            fatal("qasm:%d: gate '%s' expects %zu parameter(s), got %zu",
                  line, name.c_str(), want_params, got_params);
        if (got_qubits != want_qubits)
            fatal("qasm:%d: gate '%s' expects %zu qubit(s), got %zu",
                  line, name.c_str(), want_qubits, got_qubits);
    }

    /** Apply builtin or user gate @p name to resolved @p qubits. */
    void
    emit(const std::string &name, const std::vector<double> &params,
         const std::vector<Qubit> &qubits, int line, int depth)
    {
        if (depth > 64)
            fatal("qasm:%d: gate expansion nests more than 64 gate "
                  "definitions deep",
                  line);
        if (emitBuiltin(name, params, qubits, line))
            return;

        auto it = program_->gates.find(name);
        if (it == program_->gates.end())
            fatal("qasm:%d: unknown gate '%s'", line, name.c_str());
        const GateDecl &decl = it->second;
        checkArity(name, params.size(), decl.params.size(),
                   qubits.size(), decl.qargs.size(), line);

        std::map<std::string, double> bindings;
        for (size_t i = 0; i < decl.params.size(); ++i)
            bindings[decl.params[i]] = params[i];
        std::map<std::string, Qubit> qmap;
        for (size_t i = 0; i < decl.qargs.size(); ++i)
            qmap[decl.qargs[i]] = qubits[i];

        for (const GateCall &body : decl.body) {
            std::vector<Qubit> body_qubits;
            body_qubits.reserve(body.args.size());
            for (const Argument &arg : body.args) {
                if (!arg.wholeRegister())
                    fatal("qasm:%d: indexed arguments are not allowed "
                          "inside gate bodies",
                          body.line);
                auto qit = qmap.find(arg.reg);
                if (qit == qmap.end())
                    fatal("qasm:%d: unknown qubit argument '%s' in gate "
                          "'%s'",
                          body.line, arg.reg.c_str(), name.c_str());
                body_qubits.push_back(qit->second);
            }
            if (body.name == "barrier") {
                emitBarrier(body_qubits);
                continue;
            }
            std::vector<double> body_params;
            body_params.reserve(body.params.size());
            for (const ExprPtr &e : body.params)
                body_params.push_back(e->eval(bindings));
            emit(body.name, body_params, body_qubits, body.line,
                 depth + 1);
        }
    }

    /** @return true when @p name was handled as a builtin. */
    bool
    emitBuiltin(const std::string &name,
                const std::vector<double> &p,
                const std::vector<Qubit> &q, int line)
    {
        auto arity = [&](size_t np, size_t nq) {
            checkArity(name, p.size(), np, q.size(), nq, line);
        };
        // --- primitive OpenQASM gates ---
        if (name == "U" || name == "u3") {
            arity(3, 1);
            u3(q[0], p[0], p[1], p[2]);
            return true;
        }
        if (name == "CX" || name == "cx") {
            arity(0, 2);
            circuit_.cx(q[0], q[1]);
            return true;
        }
        // --- qelib1.inc single-qubit gates ---
        if (name == "id" || name == "u0") {
            if (name == "id")
                arity(0, 1);
            circuit_.add(Gate::oneQubit(GateKind::I, q[0]));
            return true;
        }
        if (name == "x") { arity(0, 1); circuit_.x(q[0]); return true; }
        if (name == "y") { arity(0, 1); circuit_.y(q[0]); return true; }
        if (name == "z") { arity(0, 1); circuit_.z(q[0]); return true; }
        if (name == "h") { arity(0, 1); circuit_.h(q[0]); return true; }
        if (name == "s") { arity(0, 1); circuit_.s(q[0]); return true; }
        if (name == "sdg") {
            arity(0, 1);
            circuit_.sdg(q[0]);
            return true;
        }
        if (name == "t") { arity(0, 1); circuit_.t(q[0]); return true; }
        if (name == "tdg") {
            arity(0, 1);
            circuit_.tdg(q[0]);
            return true;
        }
        if (name == "rx") {
            arity(1, 1);
            circuit_.rx(q[0], p[0]);
            return true;
        }
        if (name == "ry") {
            arity(1, 1);
            circuit_.ry(q[0], p[0]);
            return true;
        }
        if (name == "rz" || name == "u1" || name == "p") {
            arity(1, 1);
            circuit_.rz(q[0], p[0]);
            return true;
        }
        if (name == "u2") {
            arity(2, 1);
            u3(q[0], 1.5707963267948966, p[0], p[1]);
            return true;
        }
        // --- qelib1.inc multi-qubit gates ---
        if (name == "cz") {
            arity(0, 2);
            circuit_.cz(q[0], q[1]);
            return true;
        }
        if (name == "cy") {
            arity(0, 2);
            circuit_.sdg(q[1]);
            circuit_.cx(q[0], q[1]);
            circuit_.s(q[1]);
            return true;
        }
        if (name == "ch") {
            arity(0, 2);
            // qelib1 decomposition (up to global phase).
            circuit_.s(q[1]);
            circuit_.h(q[1]);
            circuit_.t(q[1]);
            circuit_.cx(q[0], q[1]);
            circuit_.tdg(q[1]);
            circuit_.h(q[1]);
            circuit_.sdg(q[1]);
            return true;
        }
        if (name == "swap") {
            arity(0, 2);
            circuit_.swap(q[0], q[1]);
            return true;
        }
        if (name == "ccx") {
            arity(0, 3);
            circuit_.ccx(q[0], q[1], q[2]);
            return true;
        }
        if (name == "cswap") {
            arity(0, 3);
            circuit_.cx(q[2], q[1]);
            circuit_.ccx(q[0], q[1], q[2]);
            circuit_.cx(q[2], q[1]);
            return true;
        }
        if (name == "crz") {
            arity(1, 2);
            circuit_.rz(q[1], p[0] / 2);
            circuit_.cx(q[0], q[1]);
            circuit_.rz(q[1], -p[0] / 2);
            circuit_.cx(q[0], q[1]);
            return true;
        }
        if (name == "cu1" || name == "cp") {
            arity(1, 2);
            circuit_.cphase(q[0], q[1], p[0]);
            return true;
        }
        if (name == "cu3") {
            arity(3, 2);
            const double theta = p[0], phi = p[1], lambda = p[2];
            circuit_.rz(q[0], (lambda + phi) / 2);
            circuit_.rz(q[1], (lambda - phi) / 2);
            circuit_.cx(q[0], q[1]);
            u3(q[1], -theta / 2, 0, -(phi + lambda) / 2);
            circuit_.cx(q[0], q[1]);
            u3(q[1], theta / 2, phi, 0);
            return true;
        }
        return false;
    }

    /** U(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda). */
    void
    u3(Qubit q, double theta, double phi, double lambda)
    {
        if (lambda != 0.0)
            circuit_.rz(q, lambda);
        if (theta != 0.0)
            circuit_.ry(q, theta);
        if (phi != 0.0)
            circuit_.rz(q, phi);
        if (lambda == 0.0 && theta == 0.0 && phi == 0.0)
            circuit_.add(Gate::oneQubit(GateKind::I, q));
    }
};

} // namespace

Circuit
elaborate(const Program &program, const std::string &name)
{
    return Elaborator(program, name).run();
}

ElaboratedCircuit
elaborateWithLines(const Program &program, const std::string &name)
{
    return Elaborator(program, name).runWithLines();
}

Circuit
parseToCircuit(const std::string &source, const std::string &name)
{
    return elaborate(parse(source), name);
}

Circuit
loadCircuit(const std::string &path)
{
    return elaborate(parseFile(path), path);
}

} // namespace qasm
} // namespace autobraid
