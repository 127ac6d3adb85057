/**
 * @file
 * Abstract syntax tree for OpenQASM 2.0 programs.
 *
 * The tree is deliberately small: parameter expressions, register
 * arguments, the four statement forms (gate call, measure, barrier,
 * reset), user gate declarations, and the program. Classical control
 * (`if`) and `opaque` declarations are rejected at parse time — none of
 * the paper's benchmarks use them.
 */

#ifndef AUTOBRAID_QASM_AST_HPP
#define AUTOBRAID_QASM_AST_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace autobraid {
namespace qasm {

/** Parameter-expression node. */
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr
{
    /** Node kinds; binary ops use lhs/rhs, unary ops use lhs only. */
    enum class Op
    {
        Const, Pi, Param,
        Neg, Sin, Cos, Tan, Exp, Ln, Sqrt,
        Add, Sub, Mul, Div, Pow,
    };

    Op op = Op::Const;
    double value = 0.0;    ///< for Const
    std::string param;     ///< for Param
    ExprPtr lhs;
    ExprPtr rhs;

    /**
     * Evaluate with gate-parameter bindings. Raises UserError on an
     * unbound parameter or division by zero.
     */
    double eval(const std::map<std::string, double> &bindings) const;

    /** @name Node factories */
    /// @{
    static ExprPtr constant(double v);
    static ExprPtr pi();
    static ExprPtr parameter(std::string name);
    static ExprPtr unary(Op op, ExprPtr operand);
    static ExprPtr binary(Op op, ExprPtr lhs, ExprPtr rhs);
    /// @}

    /** Deep copy (gate bodies are instantiated per call site). */
    ExprPtr clone() const;
};

/** A register reference: whole register (index < 0) or one element. */
struct Argument
{
    std::string reg;
    int index = -1;
    int line = 0;

    bool wholeRegister() const { return index < 0; }

    std::string toString() const;
};

/** A gate application, including the builtin U and CX. */
struct GateCall
{
    std::string name;
    std::vector<ExprPtr> params;
    std::vector<Argument> args;
    int line = 0;
};

/** measure src -> dst; */
struct MeasureStmt
{
    Argument src;
    Argument dst;
    int line = 0;
};

/** barrier args...; */
struct BarrierStmt
{
    std::vector<Argument> args;
    int line = 0;
};

/** reset arg; */
struct ResetStmt
{
    Argument arg;
    int line = 0;
};

using Statement =
    std::variant<GateCall, MeasureStmt, BarrierStmt, ResetStmt>;

/** A user `gate` declaration; barriers in the body keep name "barrier". */
struct GateDecl
{
    std::string name;
    std::vector<std::string> params;
    std::vector<std::string> qargs;
    std::vector<GateCall> body;
    int line = 0;
    /**
     * Builtin gate calls (and body barriers) one call of this gate
     * expands to, at least 1 and saturating just past the parser's
     * kMaxGateCalls.
     */
    uint64_t calls = 0;
};

/** A parsed OpenQASM 2.0 program. */
struct Program
{
    std::vector<std::pair<std::string, int>> qregs; ///< declaration order
    std::vector<std::pair<std::string, int>> cregs;
    /// 1-based source lines of each qreg/creg declaration,
    /// index-aligned with qregs/cregs (0 when synthesized).
    std::vector<int> qreg_lines;
    std::vector<int> creg_lines;
    std::map<std::string, GateDecl> gates;
    std::vector<Statement> statements;

    /** Total declared qubits. */
    int totalQubits() const;

    /** Size of qreg @p name; -1 when undeclared. */
    int qregSize(const std::string &name) const;

    /** Size of creg @p name; -1 when undeclared. */
    int cregSize(const std::string &name) const;
};

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_AST_HPP
