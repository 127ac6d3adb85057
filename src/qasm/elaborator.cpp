#include "qasm/elaborator.hpp"

#include <span>
#include <vector>

#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace autobraid {
namespace qasm {
namespace {

/**
 * Elaboration context: register layout + gate table + output circuit.
 * A gate call's parameter values and qubits go on two scratch stacks,
 * one frame per nested user-gate call, so lowering a call allocates
 * nothing but the gates it emits.
 */
class Elaborator
{
  public:
    Elaborator(const Program &program, const std::string &name)
        : program_(&program),
          circuit_(std::max(1, program.totalQubits()), name)
    {
        if (program.totalQubits() == 0)
            fatal("qasm: program declares no qubits");
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
    /** The qreg qregOf() found last: most arguments name it again. */
    const Register *last_qreg_ = nullptr;
    std::vector<GateIdx> reset_gates_;
    /** The scratch stacks: the calls being lowered, outermost first. */
    std::vector<double> params_;
    std::vector<Qubit> qubits_;

    /** The top @p n entries of @p stack. */
    template <typename T>
    static std::span<const T>
    top(const std::vector<T> &stack, size_t n)
    {
        return std::span<const T>(stack).last(n);
    }

    /**
     * Position of the last of @p names equal to @p name, or -1: a
     * qubit argument named twice binds the last qubit, as a parameter
     * named twice binds the last value (Expr::eval).
     */
    static int
    lastIndexOf(const std::vector<std::string> &names,
                std::string_view name)
    {
        for (size_t i = names.size(); i-- > 0;)
            if (names[i] == name)
                return static_cast<int>(i);
        return -1;
    }

    /** The qreg @p arg names; raises UserError at @p line when none. */
    const Register &
    qregOf(const Argument &arg, int line)
    {
        if (!last_qreg_ || last_qreg_->name != arg.reg) {
            last_qreg_ = program_->qreg(arg.reg);
            if (!last_qreg_)
                fatal("qasm:%d: unknown quantum register '%.*s'", line,
                      static_cast<int>(arg.reg.size()), arg.reg.data());
        }
        return *last_qreg_;
    }

    /** Resolve one element of an argument under broadcasting. */
    Qubit
    resolve(const Argument &arg, int broadcast_idx)
    {
        const Register &reg = qregOf(arg, arg.line);
        const int index = arg.wholeRegister() ? broadcast_idx : arg.index;
        if (index < 0 || index >= reg.size)
            fatal("qasm:%d: index %d out of range for %.*s[%d]", arg.line,
                  index, static_cast<int>(arg.reg.size()), arg.reg.data(),
                  reg.size);
        return static_cast<Qubit>(reg.offset + index);
    }

    /** Broadcast width of an argument list (1 when all are indexed). */
    int
    broadcastWidth(std::span<const Argument> args, int line)
    {
        int width = 1;
        for (const Argument &arg : args) {
            if (!arg.wholeRegister())
                continue;
            const int size = qregOf(arg, line).size;
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
        for (const Expr *e : call.params)
            params_.push_back(e->eval());

        const int width = broadcastWidth(call.args, call.line);
        for (int b = 0; b < width; ++b) {
            for (const Argument &arg : call.args)
                qubits_.push_back(resolve(arg, b));
            emit(call.name, call.params.size(), call.args.size(),
                 call.line, 0);
        }
        params_.clear();
    }

    void
    apply(const MeasureStmt &m)
    {
        if (!program_->creg(m.dst.reg))
            fatal("qasm:%d: unknown classical register '%.*s'", m.line,
                  static_cast<int>(m.dst.reg.size()), m.dst.reg.data());
        const int width = broadcastWidth({&m.src, 1}, m.line);
        for (int b = 0; b < width; ++b)
            circuit_.measure(resolve(m.src, b));
    }

    void
    apply(const BarrierStmt &b)
    {
        for (const Argument &arg : b.args) {
            const int width =
                arg.wholeRegister() ? qregOf(arg, arg.line).size : 1;
            for (int i = 0; i < width; ++i)
                qubits_.push_back(resolve(arg, i));
        }
        emitBarrier(qubits_);
        qubits_.clear();
    }

    void
    apply(const ResetStmt &r)
    {
        // Modelled as a projective measurement (DESIGN.md substitution).
        const int width = broadcastWidth({&r.arg, 1}, r.line);
        for (int b = 0; b < width; ++b)
            reset_gates_.push_back(
                circuit_.measure(resolve(r.arg, b)));
    }

    /** A k-qubit barrier as a dependence chain of <=2-qubit barriers. */
    void
    emitBarrier(std::span<const Qubit> qubits)
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
    checkArity(std::string_view name, size_t got_params,
               size_t want_params, size_t got_qubits,
               size_t want_qubits, int line)
    {
        if (got_params != want_params)
            fatal("qasm:%d: gate '%.*s' expects %zu parameter(s), got "
                  "%zu",
                  line, static_cast<int>(name.size()), name.data(),
                  want_params, got_params);
        if (got_qubits != want_qubits)
            fatal("qasm:%d: gate '%.*s' expects %zu qubit(s), got %zu",
                  line, static_cast<int>(name.size()), name.data(),
                  want_qubits, got_qubits);
    }

    /**
     * Apply builtin or user gate @p name to the top @p nparams
     * parameter values and the top @p nqubits qubits of the scratch
     * stacks, and pop the qubits. The parameter values stay, for the
     * caller to pop: a broadcast call applies them to each element.
     */
    void
    emit(std::string_view name, size_t nparams, size_t nqubits, int line,
         int depth)
    {
        if (depth > 64)
            fatal("qasm:%d: gate expansion nests more than 64 gate "
                  "definitions deep",
                  line);
        const size_t qbase = qubits_.size() - nqubits;
        if (emitBuiltin(name, top(params_, nparams), top(qubits_, nqubits),
                        line)) {
            qubits_.resize(qbase);
            return;
        }

        auto it = program_->gates.find(name);
        if (it == program_->gates.end())
            fatal("qasm:%d: unknown gate '%.*s'", line,
                  static_cast<int>(name.size()), name.data());
        const GateDecl &decl = it->second;
        checkArity(name, nparams, decl.params.size(), nqubits,
                   decl.qargs.size(), line);

        // This call's frame: its parameter values and its qubits, read
        // by position as the stacks grow (a reference would dangle).
        const size_t pbase = params_.size() - nparams;
        for (const GateCall &body : decl.body) {
            for (const Argument &arg : body.args) {
                if (!arg.wholeRegister())
                    fatal("qasm:%d: indexed arguments are not allowed "
                          "inside gate bodies",
                          body.line);
                const int i = lastIndexOf(decl.qargs, arg.reg);
                if (i < 0)
                    fatal("qasm:%d: unknown qubit argument '%.*s' in gate "
                          "'%.*s'",
                          body.line, static_cast<int>(arg.reg.size()),
                          arg.reg.data(), static_cast<int>(name.size()),
                          name.data());
                const Qubit q = qubits_[qbase + static_cast<size_t>(i)];
                qubits_.push_back(q);
            }
            if (body.name == "barrier") {
                emitBarrier(top(qubits_, body.args.size()));
                qubits_.resize(qubits_.size() - body.args.size());
                continue;
            }
            for (const Expr *e : body.params) {
                const double value = e->eval(
                    decl.params,
                    std::span<const double>(params_).subspan(pbase,
                                                             nparams));
                params_.push_back(value);
            }
            emit(body.name, body.params.size(), body.args.size(),
                 body.line, depth + 1);
            params_.resize(params_.size() - body.params.size());
        }
        qubits_.resize(qbase);
    }

    /** @return true when @p name was handled as a builtin. */
    bool
    emitBuiltin(std::string_view name, std::span<const double> p,
                std::span<const Qubit> q, int line)
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
