/**
 * @file
 * Unit tests for the OpenQASM 2.0 front end: lexer, parser, expression
 * evaluation, elaboration (broadcasting, user gates, builtin library),
 * and the lowering passes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "circuit/dag.hpp"
#include "common/error.hpp"
#include "qasm/decompose.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"

namespace autobraid {
namespace qasm {
namespace {

TEST(Lexer, TokenKinds)
{
    const auto toks = lex("qreg q[5]; // comment\ncx q[0],q[1];");
    ASSERT_GE(toks.size(), 12u);
    EXPECT_EQ(toks[0].kind, TokenKind::Identifier);
    EXPECT_EQ(toks[0].text, "qreg");
    EXPECT_EQ(toks[2].kind, TokenKind::LBracket);
    EXPECT_EQ(toks[3].kind, TokenKind::Integer);
    EXPECT_EQ(toks.back().kind, TokenKind::Eof);
}

TEST(Lexer, NumbersAndReals)
{
    const auto toks = lex("3 3.5 0.25 2e3 1.5e-2 .5");
    EXPECT_EQ(toks[0].kind, TokenKind::Integer);
    EXPECT_EQ(toks[1].kind, TokenKind::Real);
    EXPECT_EQ(toks[2].kind, TokenKind::Real);
    EXPECT_EQ(toks[3].kind, TokenKind::Real);
    EXPECT_EQ(toks[4].kind, TokenKind::Real);
    EXPECT_EQ(toks[5].kind, TokenKind::Real);
}

TEST(Lexer, ArrowAndOperators)
{
    const auto toks = lex("-> - == ^ + * /");
    EXPECT_EQ(toks[0].kind, TokenKind::Arrow);
    EXPECT_EQ(toks[1].kind, TokenKind::Minus);
    EXPECT_EQ(toks[2].kind, TokenKind::EqEq);
    EXPECT_EQ(toks[3].kind, TokenKind::Caret);
    EXPECT_EQ(toks[4].kind, TokenKind::Plus);
    EXPECT_EQ(toks[5].kind, TokenKind::Star);
    EXPECT_EQ(toks[6].kind, TokenKind::Slash);
    // Bare '>' and '=' are not OpenQASM 2.0 tokens.
    EXPECT_THROW(lex(">"), UserError);
    EXPECT_THROW(lex("="), UserError);
}

TEST(Lexer, PositionTracking)
{
    const auto toks = lex("a\n  b");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[0].column, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[1].column, 3);
}

TEST(Lexer, Errors)
{
    EXPECT_THROW(lex("@"), UserError);
    EXPECT_THROW(lex("\"unterminated"), UserError);
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
    EXPECT_EQ(prog.qregSize("q"), 3);
    EXPECT_EQ(prog.cregSize("c"), 3);
    EXPECT_EQ(prog.qregSize("nope"), -1);
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
    EXPECT_DOUBLE_EQ(call.params[0]->eval({}), 7.0);
}

TEST(Parser, ExpressionFunctionsAndPi)
{
    const auto prog = parse(
        std::string(kHeader) +
        "qreg q[1]; rz(-pi/4) q[0]; rz(cos(0)) q[0]; "
        "rz(2^3^1) q[0]; rz(sqrt(16)) q[0];");
    const auto &s = prog.statements;
    EXPECT_NEAR(std::get<GateCall>(s[0]).params[0]->eval({}),
                -std::numbers::pi / 4, 1e-12);
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[1]).params[0]->eval({}), 1.0);
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[2]).params[0]->eval({}),
                     8.0); // right-assoc
    EXPECT_DOUBLE_EQ(std::get<GateCall>(s[3]).params[0]->eval({}), 4.0);
}

TEST(Expr, UnboundParameterAndDivZero)
{
    const auto prog = parse(std::string(kHeader) +
                            "qreg q[1]; rz(theta) q[0]; rz(1/0) q[0];");
    EXPECT_THROW(
        std::get<GateCall>(prog.statements[0]).params[0]->eval({}),
        UserError);
    EXPECT_THROW(
        std::get<GateCall>(prog.statements[1]).params[0]->eval({}),
        UserError);
}

TEST(Expr, CloneIsDeep)
{
    auto e = Expr::binary(Expr::Op::Add, Expr::constant(1),
                          Expr::parameter("t"));
    auto copy = e->clone();
    EXPECT_DOUBLE_EQ(copy->eval({{"t", 2.0}}), 3.0);
    e.reset();
    EXPECT_DOUBLE_EQ(copy->eval({{"t", 5.0}}), 6.0);
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

} // namespace
} // namespace qasm
} // namespace autobraid
