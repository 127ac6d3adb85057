/**
 * @file
 * Test-only reference for the OpenQASM 2.0 front end.
 *
 * These are the checked literal conversions of common/parse that took
 * a std::string, the lexer that turned the whole text into a token
 * array, the AST of heap nodes, the recursive-descent parser over that
 * array and the elaborator over that AST, as the library had them
 * before the pull lexer and the arena AST, copied unchanged apart from
 * `inline`, the conversions' default arguments, the namespace,
 * using-declarations for the library names they share (TokenKind,
 * tokenKindName, kMaxQubits, kMaxGateCalls and ElaboratedCircuit), and
 * two departures. Expr::eval's '+', '-', '*' and '^' left the order of
 * their operands' evaluation to the compiler, which decides which
 * unbound parameter an expression reports first, so they evaluate in
 * the library's fixed order (the left operand first, except that '/'
 * and '^' evaluate their right operand first). And a barrier on an
 * undeclared whole register was silently accepted (it covered no
 * qubit); it now fails with the "unknown quantum register" error a
 * gate call on that register gives, as the library's does.
 * Tests compare the library against them: for every text, the same
 * Program and the same elaborateWithLines result, or the same
 * UserError text.
 */

#ifndef AUTOBRAID_TESTS_QASM_REFERENCE_HPP
#define AUTOBRAID_TESTS_QASM_REFERENCE_HPP

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <variant>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/parser.hpp"
#include "qasm/token.hpp"

namespace autobraid {
namespace reference {
namespace qasm {

using autobraid::qasm::ElaboratedCircuit;
using autobraid::qasm::kMaxGateCalls;
using autobraid::qasm::kMaxQubits;
using autobraid::qasm::TokenKind;
using autobraid::qasm::tokenKindName;

[[noreturn]] inline void
reject(const std::string &text, const char *flag, const char *expect)
{
    throw UserError("invalid value '" + text + "' for " + flag +
                    " (expected " + expect + ")");
}

/**
 * True when the token parsed cleanly end-to-end: non-empty, no
 * leading whitespace (strtol would silently skip it), and the
 * conversion consumed every character.
 */
inline bool
cleanToken(const std::string &text, const char *end)
{
    return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
           end == text.c_str() + text.size();
}

inline long long
parseCheckedInt(const std::string &text, const char *flag,
                long long min, long long max)
{
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (!cleanToken(text, end) || end == text.c_str())
        reject(text, flag, "a decimal integer");
    if (errno == ERANGE || value < min || value > max) {
        const std::string range = "an integer in [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "]";
        reject(text, flag, range.c_str());
    }
    return value;
}

inline int
parseCheckedIntFlag(const std::string &text, const char *flag, int min,
                    int max)
{
    return static_cast<int>(parseCheckedInt(text, flag, min, max));
}

inline double
parseCheckedDouble(const std::string &text, const char *flag,
                   double min = std::numeric_limits<double>::lowest(),
                   double max = std::numeric_limits<double>::max())
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (!cleanToken(text, end) || end == text.c_str())
        reject(text, flag, "a number");
    if (errno == ERANGE || !std::isfinite(value) || value < min ||
        value > max) {
        const bool bounded =
            min != std::numeric_limits<double>::lowest() ||
            max != std::numeric_limits<double>::max();
        const std::string range =
            bounded ? "a finite number in [" + std::to_string(min) + ", " +
                          std::to_string(max) + "]"
                    : "a finite number";
        reject(text, flag, range.c_str());
    }
    return value;
}

/** One lexed token with its source position. */
struct Token
{
    TokenKind kind = TokenKind::Eof;
    std::string text;   ///< identifier/number/string spelling
    int line = 0;       ///< 1-based
    int column = 0;     ///< 1-based

    /** True for an identifier with exactly this spelling. */
    bool is(const char *ident) const
    {
        return kind == TokenKind::Identifier && text == ident;
    }

    std::string toString() const;
};

inline std::string
Token::toString() const
{
    if (text.empty())
        return tokenKindName(kind);
    return strformat("%s '%s'", tokenKindName(kind), text.c_str());
}

inline bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

inline bool
isIdentBody(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

inline std::vector<Token>
lex(const std::string &source)
{
    std::vector<Token> tokens;
    size_t i = 0;
    int line = 1;
    int col = 1;

    auto advance = [&](size_t n = 1) {
        for (size_t k = 0; k < n && i < source.size(); ++k) {
            if (source[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
            ++i;
        }
    };
    auto push = [&](TokenKind kind, std::string text, int l, int c) {
        tokens.push_back(Token{kind, std::move(text), l, c});
    };

    while (i < source.size()) {
        const char c = source[i];
        const int l = line;
        const int co = col;

        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance();
            continue;
        }
        if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
            while (i < source.size() && source[i] != '\n')
                advance();
            continue;
        }
        if (isIdentStart(c)) {
            size_t j = i;
            while (j < source.size() && isIdentBody(source[j]))
                ++j;
            push(TokenKind::Identifier, source.substr(i, j - i), l, co);
            advance(j - i);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
            size_t j = i;
            bool is_real = false;
            while (j < source.size() &&
                   std::isdigit(static_cast<unsigned char>(source[j])))
                ++j;
            if (j < source.size() && source[j] == '.') {
                is_real = true;
                ++j;
                while (j < source.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(source[j])))
                    ++j;
            }
            if (j < source.size() &&
                (source[j] == 'e' || source[j] == 'E')) {
                size_t k = j + 1;
                if (k < source.size() &&
                    (source[k] == '+' || source[k] == '-'))
                    ++k;
                if (k < source.size() &&
                    std::isdigit(static_cast<unsigned char>(source[k]))) {
                    is_real = true;
                    j = k;
                    while (j < source.size() &&
                           std::isdigit(
                               static_cast<unsigned char>(source[j])))
                        ++j;
                }
            }
            push(is_real ? TokenKind::Real : TokenKind::Integer,
                 source.substr(i, j - i), l, co);
            advance(j - i);
            continue;
        }
        if (c == '"') {
            size_t j = i + 1;
            while (j < source.size() && source[j] != '"')
                ++j;
            if (j >= source.size())
                fatal("qasm:%d:%d: unterminated string literal", l, co);
            push(TokenKind::String, source.substr(i + 1, j - i - 1), l,
                 co);
            advance(j - i + 1);
            continue;
        }
        if (c == '-' && i + 1 < source.size() && source[i + 1] == '>') {
            push(TokenKind::Arrow, "->", l, co);
            advance(2);
            continue;
        }
        if (c == '=' && i + 1 < source.size() && source[i + 1] == '=') {
            push(TokenKind::EqEq, "==", l, co);
            advance(2);
            continue;
        }

        TokenKind kind;
        switch (c) {
          case '(': kind = TokenKind::LParen; break;
          case ')': kind = TokenKind::RParen; break;
          case '{': kind = TokenKind::LBrace; break;
          case '}': kind = TokenKind::RBrace; break;
          case '[': kind = TokenKind::LBracket; break;
          case ']': kind = TokenKind::RBracket; break;
          case ',': kind = TokenKind::Comma; break;
          case ';': kind = TokenKind::Semicolon; break;
          case '+': kind = TokenKind::Plus; break;
          case '-': kind = TokenKind::Minus; break;
          case '*': kind = TokenKind::Star; break;
          case '/': kind = TokenKind::Slash; break;
          case '^': kind = TokenKind::Caret; break;
          default:
            fatal("qasm:%d:%d: unexpected character '%c'", l, co, c);
        }
        push(kind, std::string(1, c), l, co);
        advance();
    }
    tokens.push_back(Token{TokenKind::Eof, "", line, col});
    return tokens;
}

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

inline double
Expr::eval(const std::map<std::string, double> &bindings) const
{
    switch (op) {
      case Op::Const:
        return value;
      case Op::Pi:
        return std::numbers::pi;
      case Op::Param: {
        auto it = bindings.find(param);
        if (it == bindings.end())
            fatal("qasm: unbound gate parameter '%s'", param.c_str());
        return it->second;
      }
      case Op::Neg:
        return -lhs->eval(bindings);
      case Op::Sin:
        return std::sin(lhs->eval(bindings));
      case Op::Cos:
        return std::cos(lhs->eval(bindings));
      case Op::Tan:
        return std::tan(lhs->eval(bindings));
      case Op::Exp:
        return std::exp(lhs->eval(bindings));
      case Op::Ln:
        return std::log(lhs->eval(bindings));
      case Op::Sqrt:
        return std::sqrt(lhs->eval(bindings));
      case Op::Add: {
        const double l = lhs->eval(bindings);
        return l + rhs->eval(bindings);
      }
      case Op::Sub: {
        const double l = lhs->eval(bindings);
        return l - rhs->eval(bindings);
      }
      case Op::Mul: {
        const double l = lhs->eval(bindings);
        return l * rhs->eval(bindings);
      }
      case Op::Div: {
        const double d = rhs->eval(bindings);
        if (d == 0.0)
            fatal("qasm: division by zero in parameter expression");
        return lhs->eval(bindings) / d;
      }
      case Op::Pow: {
        const double exponent = rhs->eval(bindings);
        return std::pow(lhs->eval(bindings), exponent);
      }
    }
    panic("Expr::eval: unknown op %d", static_cast<int>(op));
}

inline ExprPtr
Expr::constant(double v)
{
    auto e = std::make_unique<Expr>();
    e->op = Op::Const;
    e->value = v;
    return e;
}

inline ExprPtr
Expr::pi()
{
    auto e = std::make_unique<Expr>();
    e->op = Op::Pi;
    return e;
}

inline ExprPtr
Expr::parameter(std::string name)
{
    auto e = std::make_unique<Expr>();
    e->op = Op::Param;
    e->param = std::move(name);
    return e;
}

inline ExprPtr
Expr::unary(Op op, ExprPtr operand)
{
    auto e = std::make_unique<Expr>();
    e->op = op;
    e->lhs = std::move(operand);
    return e;
}

inline ExprPtr
Expr::binary(Op op, ExprPtr lhs, ExprPtr rhs)
{
    auto e = std::make_unique<Expr>();
    e->op = op;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
}

inline ExprPtr
Expr::clone() const
{
    auto e = std::make_unique<Expr>();
    e->op = op;
    e->value = value;
    e->param = param;
    if (lhs)
        e->lhs = lhs->clone();
    if (rhs)
        e->rhs = rhs->clone();
    return e;
}

inline std::string
Argument::toString() const
{
    if (wholeRegister())
        return reg;
    return strformat("%s[%d]", reg.c_str(), index);
}

inline int
Program::totalQubits() const
{
    int n = 0;
    for (const auto &[name, size] : qregs)
        n += size;
    return n;
}

inline int
Program::qregSize(const std::string &name) const
{
    for (const auto &[n, size] : qregs)
        if (n == name)
            return size;
    return -1;
}

inline int
Program::cregSize(const std::string &name) const
{
    for (const auto &[n, size] : cregs)
        if (n == name)
            return size;
    return -1;
}

/** Token-stream cursor with diagnostics. */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens)
        : tokens_(std::move(tokens))
    {}

    Program
    parseProgram()
    {
        Program prog;
        expectHeader();
        while (!peek(TokenKind::Eof))
            parseStatement(prog);
        checkExpansion(prog);
        return prog;
    }

  private:
    // Expressions may keep at most this many levels open, as JSON
    // documents may nest. Each operator of a + - * / chain opens one,
    // as it makes the left-deep tree one level deeper: recursive
    // descent, and the tree's recursive eval, clone and destructor,
    // would otherwise exhaust the stack.
    static constexpr int kMaxDepth = 64;

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    int depth_ = 0;
    int qubits_ = 0; ///< qubits declared so far
    int clbits_ = 0; ///< classical bits declared so far
    /** Non-barrier names gate bodies called before their definition. */
    std::map<std::string, int> called_undefined_;

    const Token &cur() const { return tokens_[pos_]; }

    bool
    peek(TokenKind kind) const
    {
        return cur().kind == kind;
    }

    bool
    peekIdent(const char *text) const
    {
        return cur().is(text);
    }

    Token
    take()
    {
        Token t = cur();
        if (t.kind != TokenKind::Eof)
            ++pos_;
        return t;
    }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        fatal("qasm:%d:%d: %s (found %s)", cur().line, cur().column,
              msg.c_str(), cur().toString().c_str());
    }

    Token
    expect(TokenKind kind, const char *what)
    {
        if (!peek(kind))
            error(std::string("expected ") + what);
        return take();
    }

    std::string
    expectIdent(const char *what)
    {
        return expect(TokenKind::Identifier, what).text;
    }

    /**
     * Convert literal @p t with @p convert (a checked helper from
     * common/parse), putting the literal's position in any error.
     */
    template <typename Convert>
    auto
    literal(const Token &t, Convert convert)
    {
        try {
            return convert(t.text);
        } catch (const UserError &e) {
            fatal("qasm:%d:%d: %s", t.line, t.column, e.what());
        }
    }

    int
    expectInt(const char *what)
    {
        const Token t = expect(TokenKind::Integer, what);
        return literal(t, [what](const std::string &text) {
            return parseCheckedIntFlag(text, what, 0,
                                       std::numeric_limits<int>::max());
        });
    }

    /** Open one more expression level, within kMaxDepth. */
    void
    deeper()
    {
        if (depth_ >= kMaxDepth)
            error("expression nesting exceeds 64");
        ++depth_;
    }

    /** @p parse one nesting level deeper, within kMaxDepth. */
    ExprPtr
    nested(ExprPtr (Parser::*parse)())
    {
        deeper();
        ExprPtr e = (this->*parse)();
        --depth_;
        return e;
    }

    void
    expectHeader()
    {
        if (!peekIdent("OPENQASM"))
            error("expected 'OPENQASM' header");
        take();
        if (!peek(TokenKind::Real) && !peek(TokenKind::Integer))
            error("expected version number");
        const Token version = take();
        if (version.text != "2.0" && version.text != "2")
            fatal("qasm: unsupported OPENQASM version '%s' (only 2.0)",
                  version.text.c_str());
        expect(TokenKind::Semicolon, "';'");
    }

    void
    parseStatement(Program &prog)
    {
        if (peekIdent("include")) {
            take();
            const Token file = expect(TokenKind::String, "include path");
            expect(TokenKind::Semicolon, "';'");
            if (file.text != "qelib1.inc")
                fatal("qasm:%d: cannot include '%s'; only the builtin "
                      "qelib1.inc is available",
                      file.line, file.text.c_str());
            return;
        }
        if (peekIdent("qreg") || peekIdent("creg")) {
            const bool quantum = peekIdent("qreg");
            const int decl_line = cur().line;
            take();
            const std::string name = expectIdent("register name");
            expect(TokenKind::LBracket, "'['");
            const int size = expectInt("register size");
            expect(TokenKind::RBracket, "']'");
            expect(TokenKind::Semicolon, "';'");
            if (size <= 0)
                fatal("qasm: register '%s' must have positive size",
                      name.c_str());
            int &declared = quantum ? qubits_ : clbits_;
            if (size > kMaxQubits - declared)
                fatal("qasm:%d: register '%s' takes the program past "
                      "%d %s",
                      decl_line, name.c_str(), kMaxQubits,
                      quantum ? "qubits" : "classical bits");
            declared += size;
            if (prog.qregSize(name) >= 0 || prog.cregSize(name) >= 0)
                fatal("qasm: register '%s' redeclared", name.c_str());
            if (quantum) {
                prog.qregs.emplace_back(name, size);
                prog.qreg_lines.push_back(decl_line);
            } else {
                prog.cregs.emplace_back(name, size);
                prog.creg_lines.push_back(decl_line);
            }
            return;
        }
        if (peekIdent("gate")) {
            parseGateDecl(prog);
            return;
        }
        if (peekIdent("opaque"))
            error("'opaque' gates are not supported");
        if (peekIdent("if"))
            error("classically controlled gates are not supported");
        if (peekIdent("measure")) {
            MeasureStmt m;
            m.line = cur().line;
            take();
            m.src = parseArgument();
            expect(TokenKind::Arrow, "'->'");
            m.dst = parseArgument();
            expect(TokenKind::Semicolon, "';'");
            prog.statements.emplace_back(std::move(m));
            return;
        }
        if (peekIdent("reset")) {
            ResetStmt r;
            r.line = cur().line;
            take();
            r.arg = parseArgument();
            expect(TokenKind::Semicolon, "';'");
            prog.statements.emplace_back(std::move(r));
            return;
        }
        if (peekIdent("barrier")) {
            BarrierStmt b;
            b.line = cur().line;
            take();
            b.args = parseArgumentList();
            expect(TokenKind::Semicolon, "';'");
            prog.statements.emplace_back(std::move(b));
            return;
        }
        prog.statements.emplace_back(parseGateCall());
    }

    void
    parseGateDecl(Program &prog)
    {
        GateDecl decl;
        decl.line = cur().line;
        take(); // 'gate'
        decl.name = expectIdent("gate name");
        if (peek(TokenKind::LParen)) {
            take();
            if (!peek(TokenKind::RParen)) {
                decl.params.push_back(expectIdent("parameter name"));
                while (peek(TokenKind::Comma)) {
                    take();
                    decl.params.push_back(
                        expectIdent("parameter name"));
                }
            }
            expect(TokenKind::RParen, "')'");
        }
        decl.qargs.push_back(expectIdent("qubit argument"));
        while (peek(TokenKind::Comma)) {
            take();
            decl.qargs.push_back(expectIdent("qubit argument"));
        }
        expect(TokenKind::LBrace, "'{'");
        while (!peek(TokenKind::RBrace)) {
            if (peekIdent("barrier")) {
                GateCall b;
                b.name = "barrier";
                b.line = cur().line;
                take();
                b.args = parseArgumentList();
                expect(TokenKind::Semicolon, "';'");
                decl.body.push_back(std::move(b));
                continue;
            }
            decl.body.push_back(parseGateCall());
        }
        expect(TokenKind::RBrace, "'}'");
        if (prog.gates.count(decl.name))
            fatal("qasm:%d: gate '%s' redeclared", decl.line,
                  decl.name.c_str());
        // The size counts a callee defined above as its own size and
        // any other name as one builtin call, which holds only while
        // no gate of that name is defined later. An empty body counts
        // as one call, so that calling it still costs the elaborator.
        for (const GateCall &call : decl.body) {
            uint64_t calls = 1;
            if (const auto it = prog.gates.find(call.name);
                it != prog.gates.end())
                calls = it->second.calls;
            else if (call.name != "barrier")
                called_undefined_.emplace(call.name, call.line);
            decl.calls = std::min(decl.calls + calls, kMaxGateCalls + 1);
        }
        decl.calls = std::max<uint64_t>(decl.calls, 1);
        if (const auto it = called_undefined_.find(decl.name);
            it != called_undefined_.end())
            fatal("qasm:%d: gate '%s' is defined after the gate body "
                  "that calls it on line %d",
                  decl.line, decl.name.c_str(), it->second);
        prog.gates.emplace(decl.name, std::move(decl));
    }

    /**
     * Reject @p prog, naming the statement, once its top-level
     * statements add up to more than kMaxGateCalls builtin gate calls:
     * each call's expanded size times its broadcast width, and one
     * call per measured, reset or barrier qubit.
     */
    static void
    checkExpansion(const Program &prog)
    {
        const auto width = [&prog](const Argument &arg) -> uint64_t {
            if (!arg.wholeRegister())
                return 1;
            const int size = prog.qregSize(arg.reg);
            return size > 0 ? size : 1;
        };
        uint64_t total = 0;
        for (const Statement &stmt : prog.statements) {
            int line = 0;
            if (const auto *call = std::get_if<GateCall>(&stmt)) {
                uint64_t broadcast = 1;
                for (const Argument &arg : call->args)
                    broadcast = std::max(broadcast, width(arg));
                const auto it = prog.gates.find(call->name);
                total += broadcast *
                         (it == prog.gates.end() ? 1 : it->second.calls);
                line = call->line;
            } else if (const auto *m = std::get_if<MeasureStmt>(&stmt)) {
                total += width(m->src);
                line = m->line;
            } else if (const auto *r = std::get_if<ResetStmt>(&stmt)) {
                total += width(r->arg);
                line = r->line;
            } else {
                const auto &b = std::get<BarrierStmt>(stmt);
                for (const Argument &arg : b.args)
                    total += width(arg);
                line = b.line;
            }
            if (total > kMaxGateCalls)
                fatal("qasm:%d: statement takes the program past %llu "
                      "builtin gate calls",
                      line,
                      static_cast<unsigned long long>(kMaxGateCalls));
        }
    }

    GateCall
    parseGateCall()
    {
        GateCall call;
        call.line = cur().line;
        call.name = expectIdent("gate name");
        if (peek(TokenKind::LParen)) {
            take();
            if (!peek(TokenKind::RParen)) {
                call.params.push_back(parseExpr());
                while (peek(TokenKind::Comma)) {
                    take();
                    call.params.push_back(parseExpr());
                }
            }
            expect(TokenKind::RParen, "')'");
        }
        call.args = parseArgumentList();
        expect(TokenKind::Semicolon, "';'");
        return call;
    }

    std::vector<Argument>
    parseArgumentList()
    {
        std::vector<Argument> args;
        args.push_back(parseArgument());
        while (peek(TokenKind::Comma)) {
            take();
            args.push_back(parseArgument());
        }
        return args;
    }

    Argument
    parseArgument()
    {
        Argument arg;
        arg.line = cur().line;
        arg.reg = expectIdent("register name");
        if (peek(TokenKind::LBracket)) {
            take();
            arg.index = expectInt("register index");
            expect(TokenKind::RBracket, "']'");
        }
        return arg;
    }

    // Expression grammar: additive > multiplicative > power (right
    // assoc) > unary > atom. A chain of binary operators opens one
    // level per operator, closed when the chain ends.
    ExprPtr
    parseExpr()
    {
        const int depth = depth_;
        ExprPtr lhs = parseTerm();
        while (peek(TokenKind::Plus) || peek(TokenKind::Minus)) {
            const bool add = peek(TokenKind::Plus);
            take();
            deeper();
            lhs = Expr::binary(add ? Expr::Op::Add : Expr::Op::Sub,
                               std::move(lhs), parseTerm());
        }
        depth_ = depth;
        return lhs;
    }

    ExprPtr
    parseTerm()
    {
        const int depth = depth_;
        ExprPtr lhs = parsePower();
        while (peek(TokenKind::Star) || peek(TokenKind::Slash)) {
            const bool mul = peek(TokenKind::Star);
            take();
            deeper();
            lhs = Expr::binary(mul ? Expr::Op::Mul : Expr::Op::Div,
                               std::move(lhs), parsePower());
        }
        depth_ = depth;
        return lhs;
    }

    ExprPtr
    parsePower()
    {
        ExprPtr base = parseUnary();
        if (peek(TokenKind::Caret)) {
            take();
            return Expr::binary(Expr::Op::Pow, std::move(base),
                                nested(&Parser::parsePower));
        }
        return base;
    }

    ExprPtr
    parseUnary()
    {
        if (peek(TokenKind::Minus)) {
            take();
            return Expr::unary(Expr::Op::Neg,
                               nested(&Parser::parseUnary));
        }
        if (peek(TokenKind::Plus)) {
            take();
            return nested(&Parser::parseUnary);
        }
        return parseAtom();
    }

    ExprPtr
    parseAtom()
    {
        if (peek(TokenKind::LParen)) {
            take();
            ExprPtr e = nested(&Parser::parseExpr);
            expect(TokenKind::RParen, "')'");
            return e;
        }
        if (peek(TokenKind::Integer) || peek(TokenKind::Real)) {
            return Expr::constant(
                literal(take(), [](const std::string &text) {
                    return parseCheckedDouble(text, "numeric literal");
                }));
        }
        if (peek(TokenKind::Identifier)) {
            const Token t = take();
            if (t.text == "pi")
                return Expr::pi();
            static const std::pair<const char *, Expr::Op> kFuncs[] = {
                {"sin", Expr::Op::Sin}, {"cos", Expr::Op::Cos},
                {"tan", Expr::Op::Tan}, {"exp", Expr::Op::Exp},
                {"ln", Expr::Op::Ln},   {"sqrt", Expr::Op::Sqrt},
            };
            for (const auto &[name, op] : kFuncs) {
                if (t.text == name) {
                    expect(TokenKind::LParen, "'('");
                    ExprPtr arg = nested(&Parser::parseExpr);
                    expect(TokenKind::RParen, "')'");
                    return Expr::unary(op, std::move(arg));
                }
            }
            return Expr::parameter(t.text);
        }
        error("expected expression");
    }
};

inline Program
parse(const std::string &source)
{
    return Parser(lex(source)).parseProgram();
}

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
            // An undeclared register goes on to resolve's error.
            const int size = program_->qregSize(arg.reg);
            const int width = arg.wholeRegister() && size >= 0 ? size : 1;
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

inline ElaboratedCircuit
elaborateWithLines(const Program &program, const std::string &name)
{
    return Elaborator(program, name).runWithLines();
}

} // namespace qasm
} // namespace reference
} // namespace autobraid

#endif // AUTOBRAID_TESTS_QASM_REFERENCE_HPP
