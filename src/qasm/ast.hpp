/**
 * @file
 * Abstract syntax tree for OpenQASM 2.0 programs.
 *
 * The tree is deliberately small: parameter expressions, register
 * arguments, the four statement forms (gate call, measure, barrier,
 * reset), user gate declarations, and the program. Classical control
 * (`if`) and `opaque` declarations are rejected at parse time — none of
 * the paper's benchmarks use them.
 *
 * Statements own nothing: their names, argument and parameter lists
 * and expression nodes live in the program's Arena.
 */

#ifndef AUTOBRAID_QASM_AST_HPP
#define AUTOBRAID_QASM_AST_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

namespace autobraid {
namespace qasm {

/**
 * Append-only storage for what a program's statements point to: names,
 * argument and parameter lists, and expression nodes. Nothing in it
 * moves and nothing in it needs a destructor, so the parser allocates
 * nothing per gate call and the program frees it all at once.
 */
class Arena
{
  public:
    /** A copy of @p text that lives as long as the arena. */
    std::string_view copy(std::string_view text);

    /** A contiguous copy of @p items that lives as long as the arena. */
    template <typename T>
    std::span<const T>
    copy(std::span<const T> items)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        if (items.empty())
            return {};
        T *out = static_cast<T *>(
            memory_.allocate(items.size_bytes(), alignof(T)));
        std::uninitialized_copy(items.begin(), items.end(), out);
        return {out, items.size()};
    }

    /** A copy of @p node that lives as long as the arena. */
    template <typename T>
    const T *
    make(const T &node)
    {
        return copy(std::span<const T>(&node, 1)).data();
    }

  private:
    std::pmr::monotonic_buffer_resource memory_;
};

/** Parameter-expression node; a program's Arena owns every node. */
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
    double value = 0.0;     ///< for Const
    std::string_view param{}; ///< for Param
    const Expr *lhs = nullptr;
    const Expr *rhs = nullptr;

    /**
     * Evaluate with the gate parameters @p names bound to the
     * index-aligned @p values; a name given twice binds its last value.
     * Raises UserError on an unbound parameter or division by zero.
     */
    double eval(std::span<const std::string> names = {},
                std::span<const double> values = {}) const;
};

/** A register reference: whole register (index < 0) or one element. */
struct Argument
{
    std::string_view reg; ///< in the program's Arena
    int index = -1;
    int line = 0;

    bool wholeRegister() const { return index < 0; }

    std::string toString() const;
};

/** A gate application, including the builtin U and CX. */
struct GateCall
{
    std::string_view name; ///< in the program's Arena
    std::span<const Expr *const> params;
    std::span<const Argument> args;
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
    std::span<const Argument> args;
    int line = 0;
};

/** reset arg; */
struct ResetStmt
{
    Argument arg;
    int line = 0;
};

/** A statement; it points into its program's Arena and owns nothing. */
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

/** A declared quantum or classical register. */
struct Register
{
    std::string_view name; ///< in the program's Arena
    int size = 0;
    int offset = 0; ///< its first bit: the sizes of its kind declared before it
    int line = 0;   ///< 1-based source line of the declaration
};

/** A parsed OpenQASM 2.0 program. */
struct Program
{
    std::map<std::string, GateDecl, std::less<>> gates;
    std::vector<Statement> statements;
    /** Names, lists and expressions the statements and gates use. */
    std::unique_ptr<Arena> arena = std::make_unique<Arena>();

    /** Total declared qubits. */
    int totalQubits() const;

    /** The qregs in declaration order. */
    const std::vector<Register> &qregs() const { return qregs_; }

    /** The cregs in declaration order. */
    const std::vector<Register> &cregs() const { return cregs_; }

    /**
     * Declare a register after those declared so far; false, declaring
     * nothing, when a qreg or a creg already has @p name.
     */
    bool declare(bool quantum, std::string_view name, int size, int line);

    /** The qreg named @p name; nullptr when undeclared. */
    const Register *qreg(std::string_view name) const;

    /** The creg named @p name; nullptr when undeclared. */
    const Register *creg(std::string_view name) const;

  private:
    /** A register's kind and its position in qregs or cregs. */
    struct RegisterRef
    {
        bool quantum;
        uint32_t index;
    };

    std::vector<Register> qregs_;
    std::vector<Register> cregs_;
    /** Every declared name, keyed by its Arena copy. */
    std::unordered_map<std::string_view, RegisterRef> registers_;
};

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_AST_HPP
