/**
 * @file
 * Unit tests for the OpenQASM 2.0 front end: lexer, parser, expression
 * evaluation, elaboration (broadcasting, user gates, builtin library),
 * and the lowering passes; and the front end against the reference it
 * replaced (qasm_reference.hpp), on every corpus file, every generator
 * export the tests use, and every truncation and byte edit of a small
 * corpus.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numbers>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "gen/registry.hpp"
#include "qasm/decompose.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/exporter.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"
#include "qasm_reference.hpp"

namespace autobraid {
namespace qasm {
namespace {

/** Every token of @p source, Eof last, pulled from a Lexer. */
std::vector<Token>
lexAll(std::string_view source)
{
    Lexer lexer(source);
    std::vector<Token> tokens{lexer.next()};
    while (tokens.back().kind != TokenKind::Eof)
        tokens.push_back(lexer.next());
    return tokens;
}

TEST(Lexer, TokenKinds)
{
    const auto toks = lexAll("qreg q[5]; // comment\ncx q[0],q[1];");
    ASSERT_GE(toks.size(), 12u);
    EXPECT_EQ(toks[0].kind, TokenKind::Identifier);
    EXPECT_EQ(toks[0].text, "qreg");
    EXPECT_EQ(toks[2].kind, TokenKind::LBracket);
    EXPECT_EQ(toks[3].kind, TokenKind::Integer);
    EXPECT_EQ(toks.back().kind, TokenKind::Eof);
}

TEST(Lexer, NumbersAndReals)
{
    const auto toks = lexAll("3 3.5 0.25 2e3 1.5e-2 .5");
    EXPECT_EQ(toks[0].kind, TokenKind::Integer);
    EXPECT_EQ(toks[1].kind, TokenKind::Real);
    EXPECT_EQ(toks[2].kind, TokenKind::Real);
    EXPECT_EQ(toks[3].kind, TokenKind::Real);
    EXPECT_EQ(toks[4].kind, TokenKind::Real);
    EXPECT_EQ(toks[5].kind, TokenKind::Real);
}

TEST(Lexer, ArrowAndOperators)
{
    const auto toks = lexAll("-> - == ^ + * /");
    EXPECT_EQ(toks[0].kind, TokenKind::Arrow);
    EXPECT_EQ(toks[1].kind, TokenKind::Minus);
    EXPECT_EQ(toks[2].kind, TokenKind::EqEq);
    EXPECT_EQ(toks[3].kind, TokenKind::Caret);
    EXPECT_EQ(toks[4].kind, TokenKind::Plus);
    EXPECT_EQ(toks[5].kind, TokenKind::Star);
    EXPECT_EQ(toks[6].kind, TokenKind::Slash);
    // Bare '>' and '=' are not OpenQASM 2.0 tokens.
    EXPECT_THROW(lexAll(">"), UserError);
    EXPECT_THROW(lexAll("="), UserError);
}

TEST(Lexer, PositionTracking)
{
    const auto toks = lexAll("a\n  b \"x\ny\" c");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[0].column, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[1].column, 3);
    // A string may span lines; the token after it counts them.
    EXPECT_EQ(toks[2].text, "x\ny");
    EXPECT_EQ(toks[3].line, 3);
    EXPECT_EQ(toks[3].column, 4);
}

TEST(Lexer, Errors)
{
    EXPECT_THROW(lexAll("@"), UserError);
    EXPECT_THROW(lexAll("\"unterminated"), UserError);
}

TEST(Lexer, TokensAreViewsIntoTheSource)
{
    const std::string source = "rz(0.39269908169872414) q[12];";
    Lexer lexer(source);
    for (Token t = lexer.next(); t.kind != TokenKind::Eof;
         t = lexer.next()) {
        ASSERT_GE(t.text.data(), source.data());
        ASSERT_LE(t.text.data() + t.text.size(),
                  source.data() + source.size());
        EXPECT_EQ(t.text,
                  std::string_view(source).substr(
                      static_cast<size_t>(t.column - 1), t.text.size()));
    }
}

TEST(Lexer, EndAndErrorsRepeat)
{
    // Eof answers every pull after the end; a lexical error answers
    // every pull after it, so a caller can always lex the rest.
    Lexer end("x");
    EXPECT_EQ(end.next().kind, TokenKind::Identifier);
    EXPECT_EQ(end.next().kind, TokenKind::Eof);
    EXPECT_EQ(end.next().kind, TokenKind::Eof);
    Lexer bad("x @");
    EXPECT_EQ(bad.next().kind, TokenKind::Identifier);
    for (int i = 0; i < 2; ++i) {
        try {
            bad.next();
            ADD_FAILURE() << "no error on pull " << i;
        } catch (const UserError &e) {
            EXPECT_STREQ(e.what(), "qasm:1:3: unexpected character '@'");
        }
    }
}

constexpr const char *kHeader = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

TEST(Parser, HeaderRequired)
{
    EXPECT_THROW(parse("qreg q[2];"), UserError);
    EXPECT_THROW(parse("OPENQASM 3.0; qreg q[2];"), UserError);
    EXPECT_NO_THROW(parse("OPENQASM 2.0;"));
}

TEST(Parser, Registers)
{
    const auto prog =
        parse(std::string(kHeader) + "qreg q[3]; creg c[3];");
    EXPECT_EQ(prog.totalQubits(), 3);
    ASSERT_NE(prog.qreg("q"), nullptr);
    EXPECT_EQ(prog.qreg("q")->size, 3);
    ASSERT_NE(prog.creg("c"), nullptr);
    EXPECT_EQ(prog.creg("c")->size, 3);
    EXPECT_EQ(prog.qreg("nope"), nullptr);
    EXPECT_EQ(prog.qreg("c"), nullptr); // a creg is no qreg
    EXPECT_EQ(prog.creg("q"), nullptr);
}

TEST(Parser, RejectsBadRegisters)
{
    EXPECT_THROW(parse(std::string(kHeader) + "qreg q[0];"), UserError);
    EXPECT_THROW(
        parse(std::string(kHeader) + "qreg q[2]; qreg q[3];"),
        UserError);
}

/** The UserError message @p source raises, or "" when it parses. */
std::string
parseError(const std::string &source)
{
    try {
        parse(std::string(kHeader) + source);
    } catch (const UserError &e) {
        return e.what();
    }
    return "";
}

TEST(Parser, HostileLiteralsAndNestingAreUserErrors)
{
    // Literals a raw std::stoi / std::stod would throw out_of_range on.
    EXPECT_NE(parseError("qreg q[99999999999999];").find("qasm:"),
              std::string::npos);
    EXPECT_NE(parseError("qreg q[2];\nh q[99999999999];")
                  .find("register index"),
              std::string::npos);
    EXPECT_NE(parseError("qreg q[1];\nrz(1e999) q[0];")
                  .find("numeric literal"),
              std::string::npos);
    EXPECT_NE(parseError("qreg q[1];\nrz(1e-999) q[0];"), "");

    // 64 nested levels parse; the 65th is rejected, whichever
    // recursive rule nests.
    const auto wrap = [](const std::string &open, const std::string &close,
                         int depth) {
        std::string e;
        for (int i = 0; i < depth; ++i)
            e += open;
        e += "1";
        for (int i = 0; i < depth; ++i)
            e += close;
        return "qreg q[1];\nrz(" + e + ") q[0];";
    };
    for (const auto &[open, close] :
         std::vector<std::pair<std::string, std::string>>{
             {"(", ")"}, {"-", ""}, {"+", ""}, {"sin(", ")"},
             {"2^", ""}}) {
        EXPECT_EQ(parseError(wrap(open, close, 64)), "") << open;
        EXPECT_NE(parseError(wrap(open, close, 65)).find("nesting"),
                  std::string::npos)
            << open;
    }
    EXPECT_NE(parseError(wrap("(", ")", 20000)).find("nesting"),
              std::string::npos);

    // A chain of binary operators builds a left-deep tree, one level
    // per operator: 64 operators parse, the 65th is rejected, and so is
    // a chain long enough to overflow the stack of the tree's
    // recursive eval and destructor. A finished chain closes its
    // levels, so chains may follow one another.
    const auto chain = [](const std::string &op, int ops) {
        std::string e = "1";
        for (int i = 0; i < ops; ++i)
            e += op + "1";
        return e;
    };
    const auto gate = [](const std::string &e) {
        return "qreg q[1];\nrz(" + e + ") q[0];";
    };
    for (const std::string op : {"+", "-", "*", "/"}) {
        EXPECT_EQ(parseError(gate(chain(op, 64))), "") << op;
        EXPECT_NE(parseError(gate(chain(op, 65))).find("nesting"),
                  std::string::npos)
            << op;
    }
    EXPECT_EQ(parseError(gate(chain("*", 64) + "+" +
                              chain("*", 63) + "+(" + chain("+", 61) +
                              ")")),
              "");
    EXPECT_NE(parseError(gate(chain("+", 300000))).find("nesting"),
              std::string::npos);
}

TEST(Parser, RegisterTotalsAreCapped)
{
    const std::string at_cap =
        "qreg a[" + std::to_string(kMaxQubits - 1) + "]; qreg b[1];";
    EXPECT_EQ(parseError(at_cap), "");
    EXPECT_NE(parseError(at_cap + " qreg c[1];").find("qubits"),
              std::string::npos);
    EXPECT_NE(parseError("qreg q[2000000000];").find("qubits"),
              std::string::npos);
    EXPECT_NE(parseError("creg c[2000000000];").find("classical bits"),
              std::string::npos);
    // Qubits and classical bits are capped separately.
    EXPECT_EQ(parseError("qreg q[" + std::to_string(kMaxQubits) +
                         "]; creg c[" + std::to_string(kMaxQubits) +
                         "];"),
              "");
}

TEST(Parser, ExpansionIsBudgeted)
{
    // g<n> expands to 2^n builtin calls; 2^22 is exactly the budget.
    std::string doubling = "qreg q[1024];\ngate g0 a { h a; }\n";
    for (int n = 1; n <= 22; ++n)
        doubling += "gate g" + std::to_string(n) + " a { g" +
                    std::to_string(n - 1) + " a; g" +
                    std::to_string(n - 1) + " a; }\n";
    EXPECT_EQ(parseError(doubling + "g22 q[0];"), "");
    // Broadcast multiplies: 2^12 calls over 1024 qubits is 2^22 too.
    EXPECT_EQ(parseError(doubling + "g12 q;"), "");
    // One call more, from any statement, is rejected at its line.
    for (const std::string extra :
         {"h q[0];", "measure q[0] -> c[0];", "reset q[0];",
          "barrier q[0];"})
        EXPECT_NE(parseError(doubling + "creg c[1];\ng12 q;\n" + extra)
                      .find("qasm:29: statement takes the program past "
                            "4194304 builtin gate calls"),
                  std::string::npos)
            << extra;
    // Far past the budget, sizes saturate instead of overflowing.
    std::string deep = doubling;
    for (int n = 23; n <= 80; ++n)
        deep += "gate g" + std::to_string(n) + " a { g" +
                std::to_string(n - 1) + " a; g" +
                std::to_string(n - 1) + " a; }\n";
    EXPECT_NE(parseError(deep + "g80 q;").find("builtin gate calls"),
              std::string::npos);
    // An empty gate still counts as one call: calling it costs the
    // elaborator as much as a builtin does.
    std::string empty = "qreg q[1];\ngate f0 a { }\n";
    for (int n = 1; n <= 23; ++n)
        empty += "gate f" + std::to_string(n) + " a { f" +
                 std::to_string(n - 1) + " a; f" +
                 std::to_string(n - 1) + " a; }\n";
    EXPECT_EQ(parseError(empty + "f22 q[0];"), "");
    EXPECT_NE(parseError(empty + "f23 q[0];").find("builtin gate calls"),
              std::string::npos);
    // A body may call only gates defined above it, itself excluded.
    EXPECT_NE(parseError("qreg q[1];\ngate a x { b x; }\n"
                         "gate b x { h x; }")
                  .find("qasm:5: gate 'b' is defined after the gate body "
                        "that calls it on line 4"),
              std::string::npos);
    EXPECT_NE(parseError("qreg q[1];\ngate a x { a x; }")
                  .find("gate 'a' is defined after"),
              std::string::npos);
    // Top-level calls may still precede the definition.
    EXPECT_EQ(parseError("qreg q[1];\nb q[0];\ngate b x { h x; }"), "");
}

TEST(Parser, RejectsUnsupportedConstructs)
{
    EXPECT_THROW(parse(std::string(kHeader) + "opaque magic q;"),
                 UserError);
    EXPECT_THROW(parse(std::string(kHeader) +
                       "qreg q[1]; creg c[1]; if (c==1) x q[0];"),
                 UserError);
    EXPECT_THROW(parse(std::string(kHeader) + "include \"other.inc\";"),
                 UserError);
}

TEST(Parser, GateDecl)
{
    const auto prog = parse(std::string(kHeader) +
                            "gate foo(a) x, y { rz(a/2) x; cx x, y; }");
    ASSERT_TRUE(prog.gates.count("foo"));
    const GateDecl &decl = prog.gates.at("foo");
    EXPECT_EQ(decl.params, std::vector<std::string>{"a"});
    EXPECT_EQ(decl.qargs, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(decl.body.size(), 2u);
}

TEST(Parser, ExpressionPrecedence)
{
    const auto prog = parse(std::string(kHeader) +
                            "qreg q[1]; rz(1+2*3) q[0];");
    const auto &call = std::get<GateCall>(prog.statements[0]);
    EXPECT_DOUBLE_EQ(call.params[0]->eval(), 7.0);
}

TEST(Parser, ExpressionFunctionsAndPi)
{
    const auto prog = parse(
        std::string(kHeader) +
        "qreg q[1]; rz(-pi/4) q[0]; rz(cos(0)) q[0]; "
        "rz(2^3^1) q[0]; rz(sqrt(16)) q[0];");
    const auto &s = prog.statements;
    EXPECT_NEAR(std::get<GateCall>(s[0]).params[0]->eval(),
                -std::numbers::pi / 4, 1e-12);
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[1]).params[0]->eval(), 1.0);
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[2]).params[0]->eval(),
                     8.0); // right-assoc
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[3]).params[0]->eval(), 4.0);
}

TEST(Expr, UnboundParameterAndDivZero)
{
    const auto prog = parse(std::string(kHeader) +
                            "qreg q[1]; rz(theta) q[0]; rz(1/0) q[0];");
    EXPECT_THROW(
        std::get<GateCall>(prog.statements[0]).params[0]->eval(),
        UserError);
    EXPECT_THROW(
        std::get<GateCall>(prog.statements[1]).params[0]->eval(),
        UserError);
}

TEST(Expr, BindsGateParametersByName)
{
    // t + 1, with t bound by name; a name given twice binds its last
    // value, as a gate parameter list does.
    Expr one;
    one.value = 1;
    Expr t;
    t.op = Expr::Op::Param;
    t.param = "t";
    Expr sum;
    sum.op = Expr::Op::Add;
    sum.lhs = &t;
    sum.rhs = &one;
    const std::vector<std::string> names{"t", "u", "t"};
    const std::vector<double> values{2.0, 3.0, 5.0};
    EXPECT_DOUBLE_EQ(sum.eval(names, values), 6.0);
    EXPECT_DOUBLE_EQ(sum.eval(std::span(names).first(2),
                              std::span(values).first(2)),
                     3.0);
    EXPECT_THROW(sum.eval(), UserError);
}

TEST(Elaborator, SimpleCircuit)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) +
        "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; "
        "measure q[0] -> c[0];");
    EXPECT_EQ(c.numQubits(), 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    EXPECT_EQ(c.gate(1).kind, GateKind::CX);
    EXPECT_EQ(c.gate(2).kind, GateKind::Measure);
}

TEST(Elaborator, Broadcasting)
{
    const Circuit c = parseToCircuit(std::string(kHeader) +
                                     "qreg q[3]; h q;");
    EXPECT_EQ(c.size(), 3u);
    for (GateIdx i = 0; i < 3; ++i)
        EXPECT_EQ(c.gate(i).q0, static_cast<Qubit>(i));
}

TEST(Elaborator, BroadcastCxRegisterToQubit)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) + "qreg q[3]; qreg a[1]; cx q, a[0];");
    EXPECT_EQ(c.size(), 3u);
    for (GateIdx i = 0; i < 3; ++i) {
        EXPECT_EQ(c.gate(i).kind, GateKind::CX);
        EXPECT_EQ(c.gate(i).q1, 3); // ancilla register after q
    }
}

TEST(Elaborator, BroadcastSizeMismatchRejected)
{
    EXPECT_THROW(parseToCircuit(std::string(kHeader) +
                                "qreg q[3]; qreg r[2]; cx q, r;"),
                 UserError);
}

TEST(Elaborator, MultiRegisterOffsets)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) + "qreg a[2]; qreg b[2]; cx a[1], b[0];");
    EXPECT_EQ(c.gate(0).q0, 1);
    EXPECT_EQ(c.gate(0).q1, 2);
}

TEST(Elaborator, UserGateExpansion)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) +
        "gate entangle(a) x, y { h x; cx x, y; rz(a*2) y; }"
        "qreg q[2]; entangle(0.25) q[0], q[1];");
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, GateKind::H);
    EXPECT_EQ(c.gate(1).kind, GateKind::CX);
    EXPECT_EQ(c.gate(2).kind, GateKind::RZ);
    EXPECT_DOUBLE_EQ(c.gate(2).angle, 0.5);
}

TEST(Elaborator, NestedUserGates)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) +
        "gate inner a { h a; }"
        "gate outer a, b { inner a; inner b; cx a, b; }"
        "qreg q[2]; outer q[0], q[1];");
    EXPECT_EQ(c.size(), 3u);
}

TEST(Elaborator, QelibGates)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) +
        "qreg q[3];"
        "x q[0]; y q[0]; z q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];"
        "u1(0.1) q[0]; u2(0.1,0.2) q[0]; u3(0.1,0.2,0.3) q[0];"
        "cz q[0],q[1]; cy q[0],q[1]; ch q[0],q[1]; swap q[0],q[1];"
        "ccx q[0],q[1],q[2]; crz(0.5) q[0],q[1]; cu1(0.5) q[0],q[1];"
        "cu3(0.1,0.2,0.3) q[0],q[1]; cswap q[0],q[1],q[2];");
    EXPECT_GT(c.size(), 30u); // decompositions expand
    // swap stays a first-class gate
    size_t swaps = countKind(c, GateKind::Swap);
    EXPECT_EQ(swaps, 1u);
}

TEST(Elaborator, UnknownGateRejected)
{
    EXPECT_THROW(parseToCircuit(std::string(kHeader) +
                                "qreg q[1]; frobnicate q[0];"),
                 UserError);
}

TEST(Elaborator, ArityChecked)
{
    EXPECT_THROW(parseToCircuit(std::string(kHeader) +
                                "qreg q[2]; h q[0], q[1];"),
                 UserError);
    EXPECT_THROW(parseToCircuit(std::string(kHeader) +
                                "qreg q[1]; rz q[0];"),
                 UserError);
}

TEST(Elaborator, IndexOutOfRange)
{
    EXPECT_THROW(
        parseToCircuit(std::string(kHeader) + "qreg q[2]; h q[2];"),
        UserError);
}

TEST(Elaborator, UnknownRegisterRejectedEverywhere)
{
    // A barrier on an undeclared whole register fails as a gate call on
    // it does, at the statement's line.
    for (const char *stmt :
         {"h nope[0];", "h nope;", "barrier nope;", "barrier q[0], nope;"}) {
        try {
            parseToCircuit(std::string(kHeader) + "qreg q[2];\n" + stmt +
                           "\nh q[0];");
            ADD_FAILURE() << stmt << " compiled";
        } catch (const UserError &e) {
            EXPECT_STREQ(e.what(), "qasm:4: unknown quantum register 'nope'")
                << stmt;
        }
    }
}

TEST(Elaborator, ManyRegistersElaborate)
{
    // 100,000 one-qubit registers, each used once: the redeclaration
    // check, the expansion budget and the elaborator look each one up
    // by name, which must not scan the registers declared before it.
    constexpr int kRegisters = 100000;
    std::string text = kHeader;
    for (int i = 0; i < kRegisters; ++i)
        text += strformat("qreg a%d[1];\n", i);
    for (int i = 0; i < kRegisters; ++i)
        text += strformat("h a%d;\n", i);
    const Circuit c = parseToCircuit(text);
    EXPECT_EQ(c.numQubits(), kRegisters);
    ASSERT_EQ(c.size(), static_cast<size_t>(kRegisters));
    EXPECT_EQ(c.gate(GateIdx{kRegisters - 1}).q0, kRegisters - 1);
}

TEST(Elaborator, ResetBecomesMeasure)
{
    const Circuit c = parseToCircuit(std::string(kHeader) +
                                     "qreg q[2]; reset q;");
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.gate(0).kind, GateKind::Measure);
}

TEST(Elaborator, BarrierCreatesDependence)
{
    const Circuit c = parseToCircuit(
        std::string(kHeader) + "qreg q[3]; h q[0]; barrier q; h q[2];");
    // Barrier chain: h, b(0,1), b(1,2), h -> depth forces ordering.
    Dag dag(c);
    // Last H must transitively depend on the first H.
    bool found = false;
    std::vector<GateIdx> stack{0};
    while (!stack.empty()) {
        GateIdx g = stack.back();
        stack.pop_back();
        if (g == c.size() - 1)
            found = true;
        for (GateIdx s : dag.succs(g))
            stack.push_back(s);
    }
    EXPECT_TRUE(found);
}

TEST(Elaborator, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/ab_test.qasm";
    {
        FILE *f = fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        fputs("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
              "qreg q[2];\nh q[0];\ncx q[0],q[1];\n",
              f);
        fclose(f);
    }
    const Circuit c = loadCircuit(path);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_THROW(loadCircuit("/nonexistent/file.qasm"), UserError);
}

// ---------------------------------------------------------------------
// The front end against the reference (qasm_reference.hpp): the lexer
// and parser over a token array, the heap-node AST and the elaborator
// over it, as the library had them before the pull lexer. On every
// text, both give the same program and circuit or the same error.

namespace ref = autobraid::reference::qasm;

/** @p v printed exactly: hex floats round-trip every bit. */
std::string
exact(double v)
{
    return strformat("%a", v);
}

template <typename E>
std::string
renderExpr(const E &e)
{
    std::string out = "(" + std::to_string(static_cast<int>(e.op));
    if (e.op == E::Op::Const)
        out += " " + exact(e.value);
    if (e.op == E::Op::Param)
        out += " " + std::string(e.param);
    if (e.lhs)
        out += " " + renderExpr(*e.lhs);
    if (e.rhs)
        out += " " + renderExpr(*e.rhs);
    return out + ")";
}

template <typename A>
std::string
renderArg(const A &arg)
{
    return strformat("%s[%d]@%d", std::string(arg.reg).c_str(), arg.index,
                     arg.line);
}

template <typename Args>
std::string
renderArgs(const Args &args)
{
    std::string out;
    for (const auto &arg : args)
        out += " " + renderArg(arg);
    return out;
}

template <typename C>
std::string
renderCall(const C &call)
{
    std::string out = strformat("%s@%d(", std::string(call.name).c_str(),
                                call.line);
    for (const auto &p : call.params)
        out += renderExpr(*p) + ",";
    return out + ")" + renderArgs(call.args);
}

/** The library's register lines. */
std::string
renderRegisters(const qasm::Program &prog)
{
    std::string out;
    for (const char *kind : {"qreg", "creg"})
        for (const qasm::Register &reg :
             kind[0] == 'q' ? prog.qregs() : prog.cregs())
            out += strformat("%s %s %d @%d\n", kind,
                             std::string(reg.name).c_str(), reg.size,
                             reg.line);
    return out;
}

/** The reference's register lines, in the library's format. */
std::string
renderRegisters(const ref::Program &prog)
{
    std::string out;
    for (size_t i = 0; i < prog.qregs.size(); ++i)
        out += strformat("qreg %s %d @%d\n", prog.qregs[i].first.c_str(),
                         prog.qregs[i].second, prog.qreg_lines[i]);
    for (size_t i = 0; i < prog.cregs.size(); ++i)
        out += strformat("creg %s %d @%d\n", prog.cregs[i].first.c_str(),
                         prog.cregs[i].second, prog.creg_lines[i]);
    return out;
}

/** Every field of a library or a reference Program, one per line. */
template <typename P>
std::string
renderProgram(const P &prog)
{
    std::string out = renderRegisters(prog);
    for (const auto &[name, decl] : prog.gates) {
        out += strformat("gate %s=%s @%d calls=%llu (", name.c_str(),
                         decl.name.c_str(), decl.line,
                         static_cast<unsigned long long>(decl.calls));
        for (const std::string &p : decl.params)
            out += p + ",";
        out += ")";
        for (const std::string &q : decl.qargs)
            out += " " + q;
        out += " {\n";
        for (const auto &call : decl.body)
            out += "  " + renderCall(call) + "\n";
        out += "}\n";
    }
    for (const auto &stmt : prog.statements) {
        switch (stmt.index()) {
          case 0:
            out += renderCall(std::get<0>(stmt));
            break;
          case 1:
            out += strformat("measure@%d ", std::get<1>(stmt).line) +
                   renderArg(std::get<1>(stmt).src) + " -> " +
                   renderArg(std::get<1>(stmt).dst);
            break;
          case 2:
            out += strformat("barrier@%d", std::get<2>(stmt).line) +
                   renderArgs(std::get<2>(stmt).args);
            break;
          default:
            out += strformat("reset@%d ", std::get<3>(stmt).line) +
                   renderArg(std::get<3>(stmt).arg);
        }
        out += "\n";
    }
    return out;
}

std::string
renderCircuit(const ElaboratedCircuit &ec)
{
    const Circuit &c = ec.circuit;
    std::string out = strformat("circuit %s qubits=%d\n", c.name().c_str(),
                                c.numQubits());
    for (GateIdx g = 0; g < c.size(); ++g) {
        const Gate &gate = c.gate(g);
        out += strformat("%d %d %d %s @%d\n", static_cast<int>(gate.kind),
                         gate.q0, gate.q1, exact(gate.angle).c_str(),
                         ec.gate_lines[g]);
    }
    out += "resets";
    for (GateIdx g : ec.reset_gates)
        out += " " + std::to_string(g);
    return out + "\n";
}

/**
 * What @p parse and then @p elaborate make of @p text: the program and
 * its circuit rendered, or the UserError text of the stage that failed.
 */
template <typename Parse, typename Elaborate>
std::string
outcome(const std::string &text, Parse parse, Elaborate elaborate)
{
    std::string out;
    try {
        const auto prog = parse(text);
        out = renderProgram(prog);
        try {
            out += renderCircuit(elaborate(prog));
        } catch (const UserError &e) {
            out += std::string("elaborate error: ") + e.what();
        }
    } catch (const UserError &e) {
        return std::string("parse error: ") + e.what();
    }
    return out;
}

std::string
libraryOutcome(const std::string &text)
{
    return outcome(
        text, [](const std::string &t) { return parse(t); },
        [](const Program &p) { return elaborateWithLines(p, "x"); });
}

std::string
referenceOutcome(const std::string &text)
{
    return outcome(
        text, [](const std::string &t) { return ref::parse(t); },
        [](const ref::Program &p) { return ref::elaborateWithLines(p, "x"); });
}

/** Check every .qasm file of @p dir; @return how many there were. */
int
checkDirectory(const std::string &dir)
{
    int files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".qasm")
            continue;
        ++files;
        const std::string text = readTextFile(entry.path().string());
        EXPECT_EQ(libraryOutcome(text), referenceOutcome(text))
            << entry.path();
    }
    return files;
}

TEST(QasmReference, CorporaMatch)
{
    EXPECT_EQ(checkDirectory(AB_HOSTILE_QASM_DIR), 9);
    EXPECT_EQ(checkDirectory(AB_LINT_CORPUS_DIR), 3);
    EXPECT_EQ(checkDirectory(AB_CIRCUITS_DIR), 2);
}

TEST(QasmReference, GeneratorExportsMatch)
{
    // Every generator spec the test suite compiles or exports.
    for (const char *spec :
         {"adder:3", "adder:4", "adder:6", "adder:8", "bv:4", "bv:6",
          "bv:8", "bv:9", "bv:10", "bv:12", "bv:16", "bv:20", "bv:25",
          "bwt:8", "bwt:12", "bwt:20", "bwt:24:2", "cc:8", "cc:9",
          "cc:10", "cc:16", "ghz:2", "ghz:4", "ghz:6", "ghz:8", "ghz:8:1",
          "ghz:9", "ghz:12", "ghz:12:1", "ghz:16:1", "grover:4",
          "grover:5", "grover:5:2:3", "grover:6", "im:6:2", "im:8:2",
          "im:9:1", "im:9:2", "im:10", "im:10:2", "im:10:5", "im:12:2",
          "im:12:3", "im:16", "im:16:2", "im:16:3", "im:20:1", "im:36:3",
          "im:40:3", "im:100:2", "mct:5:30:2", "mct:5:30:9", "mct:6:40:1",
          "mct:6:60:3", "qaoa:8:1", "qaoa:8:2", "qaoa:12", "qaoa:16",
          "qaoa:16:2", "qaoa:36:4", "qft:6", "qft:7", "qft:8", "qft:9",
          "qft:10", "qft:12", "qft:16", "qft:20", "qft:24", "qft:32",
          "qft:40", "qft:100", "qft:200", "qpe:4:2", "qpe:4:3", "qpe:5:2",
          "qpe:6:3", "qpe:8:4", "randct:6:80:5", "randct:6:100:2",
          "randct:8:60:1", "randct:8:150:9", "randct:9:200:1",
          "randct:9:300:4", "revlib:rd32-v0", "shor:3:2", "shor:4",
          "shor:5:4", "shor:234"}) {
        const std::string text = toQasm(gen::make(spec));
        EXPECT_EQ(libraryOutcome(text), referenceOutcome(text)) << spec;
    }
}

/** Small programs that use every construct, and some semantic errors. */
const char *const kEditCorpus[] = {
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "// comment\n"
    "qreg q[3];\n"
    "creg c[2];\n"
    "gate g(a,b) x,y { rz(a/2+b) x; barrier x,y; cx x,y; }\n"
    "g(pi/4,-1.5e-1) q[0],q[1];\n"
    "u3(sin(.5)^2,cos(pi),ln(2)*exp(1)) q[2];\n"
    "measure q[0] -> c[0];\n"
    "reset q;\n"
    "barrier q;\n"
    "h q;\n",

    "OPENQASM 2;\n"
    "qreg a[2]; qreg b[2];\n"
    "gate d(t,t) p,p { rz(t-sqrt(4)) p; }\n"
    "gate e p { d(1,2) p; }\n"
    "e a[1];\n"
    "cx a, b;\n"
    "cu3(1,2,3) a[0], b[1];\n"
    "rz(x) a[0];\n"
    "rz(1/0) a[1];\n",

    // A literal too long for the conversions' stack buffer; and which
    // operand an expression evaluates first decides its error.
    "OPENQASM 2.0;\n"
    "qreg q[1];\n"
    "rz(3.14159265358979323846264338327950288419716939937510582097494459) "
    "q[0];\n"
    "rz((a+b)*(c-d)^(e/f)) q[0];\n",
};

TEST(QasmReference, EveryTruncationAndByteEditMatches)
{
    const std::string bytes = std::string(" \n\"/()[]{},;->=^*+.09exq@_") +
                              '\0' + '\xff';
    size_t texts = 0;
    const auto check = [&texts](const std::string &text) {
        // Report the first mismatch only, not every edit after it.
        ++texts;
        if (!::testing::Test::HasFailure()) {
            EXPECT_EQ(libraryOutcome(text), referenceOutcome(text)) << text;
        }
    };
    for (const std::string source : kEditCorpus) {
        check(source);
        for (size_t i = 0; i < source.size(); ++i) {
            check(source.substr(0, i));
            check(source.substr(0, i) + source.substr(i + 1));
            for (const char b : bytes) {
                std::string edit = source;
                edit[i] = b;
                check(edit);
                check(source.substr(0, i) + b + source.substr(i));
            }
        }
    }
    EXPECT_EQ(texts, 30511u);
}

TEST(QasmReference, LexicalErrorBeatsEarlierSyntaxError)
{
    // A syntax error on line 3, a bad character on line 9.
    const std::string text = "OPENQASM 2.0;\n"
                             "qreg q[2];\n"
                             "cx q[0] q[1];\n"
                             "h q[0];\n"
                             "h q[1];\n"
                             "h q[0];\n"
                             "h q[1];\n"
                             "h q[0];\n"
                             "h q[1]; @\n";
    EXPECT_EQ(libraryOutcome(text),
              "parse error: qasm:9:9: unexpected character '@'");
    EXPECT_EQ(referenceOutcome(text), libraryOutcome(text));
}

TEST(QasmReference, UnterminatedStringAfterSyntaxError)
{
    const std::string text = "OPENQASM 2.0;\n"
                             "qreg q[;\n"
                             "include \"qelib1.inc;\n";
    EXPECT_EQ(libraryOutcome(text),
              "parse error: qasm:3:9: unterminated string literal");
    EXPECT_EQ(referenceOutcome(text), libraryOutcome(text));
}

TEST(QasmReference, OperandsEvaluateInAFixedOrder)
{
    // Which of several unbound parameters an expression reports is not
    // left to the compiler, in the library or in the reference: the
    // left operand evaluates first, except that '/' and '^' evaluate
    // their right operand first.
    const std::pair<const char *, const char *> cases[] = {
        {"a+b", "a"}, {"a-b", "a"}, {"a*b", "a"},
        {"a/b", "b"}, {"a^b", "b"}, {"(a+b)^(c-d)^(e/f)", "f"},
    };
    for (const auto &[expr, first] : cases) {
        const std::string text = std::string(kHeader) + "qreg q[1];\nrz(" +
                                 expr + ") q[0];\n";
        const std::string error =
            std::string("elaborate error: qasm: unbound gate parameter '") +
            first + "'";
        EXPECT_TRUE(libraryOutcome(text).ends_with(error)) << expr;
        EXPECT_EQ(referenceOutcome(text), libraryOutcome(text)) << expr;
    }
}

TEST(QasmReference, BarrierOnUndeclaredRegisterFails)
{
    // The reference departs from the old front end on purpose here: a
    // barrier on an undeclared whole register used to cover no qubit.
    const std::string text = std::string(kHeader) +
                             "qreg q[2];\nbarrier nope;\nh q[0];\n";
    EXPECT_TRUE(libraryOutcome(text).ends_with(
        "\nelaborate error: qasm:4: unknown quantum register 'nope'"));
    EXPECT_EQ(referenceOutcome(text), libraryOutcome(text));
}

} // namespace
} // namespace qasm
} // namespace autobraid
