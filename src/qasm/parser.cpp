#include "qasm/parser.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "qasm/lexer.hpp"

namespace autobraid {
namespace qasm {
namespace {

/** Token-stream cursor with diagnostics: one token of lookahead. */
class Parser
{
  public:
    explicit Parser(std::string_view source)
        : lexer_(source), cur_(lexer_.next())
    {}

    Program
    parseProgram()
    {
        Program prog;
        arena_ = prog.arena.get();
        try {
            expectHeader();
            while (!peek(TokenKind::Eof))
                parseStatement(prog);
        } catch (const UserError &) {
            // A lexical error anywhere in the text is reported before
            // any other: lex the rest, which raises the first one.
            while (lexer_.next().kind != TokenKind::Eof) {
            }
            throw;
        }
        checkExpansion(prog);
        return prog;
    }

  private:
    // Expressions may keep at most this many levels open, as JSON
    // documents may nest. Each operator of a + - * / chain opens one,
    // as it makes the left-deep tree one level deeper: recursive
    // descent, and the tree's recursive eval, would otherwise exhaust
    // the stack.
    static constexpr int kMaxDepth = 64;

    Lexer lexer_;
    Token cur_; ///< the lookahead
    Arena *arena_ = nullptr; ///< the program's
    int depth_ = 0;
    int qubits_ = 0; ///< qubits declared so far
    int clbits_ = 0; ///< classical bits declared so far
    /** Non-barrier names gate bodies called before their definition. */
    std::map<std::string, int> called_undefined_;
    /** Lists being parsed, copied to the arena when complete. */
    std::vector<Argument> args_;
    std::vector<const Expr *> params_;

    const Token &cur() const { return cur_; }

    bool
    peek(TokenKind kind) const
    {
        return cur_.kind == kind;
    }

    bool
    peekIdent(std::string_view text) const
    {
        return cur_.is(text);
    }

    Token
    take()
    {
        const Token t = cur_;
        if (t.kind != TokenKind::Eof)
            cur_ = lexer_.next();
        return t;
    }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        fatal("qasm:%d:%d: %s (found %s)", cur_.line, cur_.column,
              msg.c_str(), cur_.toString().c_str());
    }

    Token
    expect(TokenKind kind, const char *what)
    {
        if (!peek(kind))
            error(std::string("expected ") + what);
        return take();
    }

    std::string_view
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
        return literal(t, [what](std::string_view text) {
            return parseCheckedIntFlag(text, what, 0,
                                       std::numeric_limits<int>::max());
        });
    }

    /** An operator node over @p lhs and @p rhs, in the arena. */
    const Expr *
    node(Expr::Op op, const Expr *lhs = nullptr, const Expr *rhs = nullptr)
    {
        return arena_->make(Expr{.op = op, .lhs = lhs, .rhs = rhs});
    }

    /** The entries of @p list from @p mark on, moved to the arena. */
    template <typename T>
    std::span<const T>
    store(std::vector<T> &list, size_t mark)
    {
        const auto stored =
            arena_->copy(std::span<const T>(list).subspan(mark));
        list.resize(mark);
        return stored;
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
    const Expr *
    nested(const Expr *(Parser::*parse)())
    {
        deeper();
        const Expr *e = (this->*parse)();
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
                  std::string(version.text).c_str());
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
                      file.line, std::string(file.text).c_str());
            return;
        }
        if (peekIdent("qreg") || peekIdent("creg")) {
            const bool quantum = peekIdent("qreg");
            const int decl_line = cur().line;
            take();
            const std::string name(expectIdent("register name"));
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
            if (!prog.declare(quantum, name, size, decl_line))
                fatal("qasm: register '%s' redeclared", name.c_str());
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
                decl.params.emplace_back(expectIdent("parameter name"));
                while (peek(TokenKind::Comma)) {
                    take();
                    decl.params.emplace_back(
                        expectIdent("parameter name"));
                }
            }
            expect(TokenKind::RParen, "')'");
        }
        decl.qargs.emplace_back(expectIdent("qubit argument"));
        while (peek(TokenKind::Comma)) {
            take();
            decl.qargs.emplace_back(expectIdent("qubit argument"));
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
            const Register *reg = prog.qreg(arg.reg);
            return reg ? static_cast<uint64_t>(reg->size) : 1;
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
        call.name = arena_->copy(expectIdent("gate name"));
        if (peek(TokenKind::LParen)) {
            take();
            const size_t mark = params_.size();
            if (!peek(TokenKind::RParen)) {
                params_.push_back(parseExpr());
                while (peek(TokenKind::Comma)) {
                    take();
                    params_.push_back(parseExpr());
                }
            }
            expect(TokenKind::RParen, "')'");
            call.params = store(params_, mark);
        }
        call.args = parseArgumentList();
        expect(TokenKind::Semicolon, "';'");
        return call;
    }

    std::span<const Argument>
    parseArgumentList()
    {
        const size_t mark = args_.size();
        args_.push_back(parseArgument());
        while (peek(TokenKind::Comma)) {
            take();
            args_.push_back(parseArgument());
        }
        return store(args_, mark);
    }

    Argument
    parseArgument()
    {
        Argument arg;
        arg.line = cur().line;
        arg.reg = arena_->copy(expectIdent("register name"));
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
    const Expr *
    parseExpr()
    {
        const int depth = depth_;
        const Expr *lhs = parseTerm();
        while (peek(TokenKind::Plus) || peek(TokenKind::Minus)) {
            const bool add = peek(TokenKind::Plus);
            take();
            deeper();
            lhs = node(add ? Expr::Op::Add : Expr::Op::Sub, lhs,
                       parseTerm());
        }
        depth_ = depth;
        return lhs;
    }

    const Expr *
    parseTerm()
    {
        const int depth = depth_;
        const Expr *lhs = parsePower();
        while (peek(TokenKind::Star) || peek(TokenKind::Slash)) {
            const bool mul = peek(TokenKind::Star);
            take();
            deeper();
            lhs = node(mul ? Expr::Op::Mul : Expr::Op::Div, lhs,
                       parsePower());
        }
        depth_ = depth;
        return lhs;
    }

    const Expr *
    parsePower()
    {
        const Expr *base = parseUnary();
        if (peek(TokenKind::Caret)) {
            take();
            return node(Expr::Op::Pow, base, nested(&Parser::parsePower));
        }
        return base;
    }

    const Expr *
    parseUnary()
    {
        if (peek(TokenKind::Minus)) {
            take();
            return node(Expr::Op::Neg, nested(&Parser::parseUnary));
        }
        if (peek(TokenKind::Plus)) {
            take();
            return nested(&Parser::parseUnary);
        }
        return parseAtom();
    }

    const Expr *
    parseAtom()
    {
        if (peek(TokenKind::LParen)) {
            take();
            const Expr *e = nested(&Parser::parseExpr);
            expect(TokenKind::RParen, "')'");
            return e;
        }
        if (peek(TokenKind::Integer) || peek(TokenKind::Real)) {
            return arena_->make(Expr{
                .value = literal(take(), [](std::string_view text) {
                    return parseCheckedDouble(text, "numeric literal");
                })});
        }
        if (peek(TokenKind::Identifier)) {
            const Token t = take();
            if (t.text == "pi")
                return node(Expr::Op::Pi);
            static const std::pair<const char *, Expr::Op> kFuncs[] = {
                {"sin", Expr::Op::Sin}, {"cos", Expr::Op::Cos},
                {"tan", Expr::Op::Tan}, {"exp", Expr::Op::Exp},
                {"ln", Expr::Op::Ln},   {"sqrt", Expr::Op::Sqrt},
            };
            for (const auto &[name, op] : kFuncs) {
                if (t.text == name) {
                    expect(TokenKind::LParen, "'('");
                    const Expr *arg = nested(&Parser::parseExpr);
                    expect(TokenKind::RParen, "')'");
                    return node(op, arg);
                }
            }
            return arena_->make(Expr{.op = Expr::Op::Param,
                                     .param = arena_->copy(t.text)});
        }
        error("expected expression");
    }
};

} // namespace

Program
parse(std::string_view source)
{
    return Parser(source).parseProgram();
}

Program
parseFile(const std::string &path)
{
    return parse(readTextFile(path));
}

} // namespace qasm
} // namespace autobraid
