/**
 * @file
 * Recursive-descent parser for OpenQASM 2.0.
 *
 * The parser pulls tokens from the lexer (qasm/lexer.hpp) with one
 * token of lookahead; tokens are views into the source, and the
 * program keeps its names, lists and expressions in its Arena
 * (qasm/ast.hpp), so parsing allocates nothing per gate call. A
 * lexical error anywhere in the text still beats a syntax error: on
 * any error the parser lexes the rest of the text, and reports the
 * first lexical error if there is one.
 *
 * Supported grammar: the OPENQASM header, include directives (the
 * standard "qelib1.inc" is builtin; other includes are rejected), qreg /
 * creg declarations, user `gate` definitions, gate calls with parameter
 * expressions, `measure`, `reset`, and `barrier`. `opaque` and `if` are
 * rejected with a clear diagnostic.
 *
 * Hostile input fails as a UserError, never as a crash: numeric literals
 * go through the checked helpers of common/parse, an expression keeps
 * at most 64 levels open at once (parentheses, function arguments,
 * signs, '^' and each operator of a + - * / chain open one), so the
 * tree it builds stays shallow enough for the recursive eval, and a
 * program declares at most kMaxQubits qubits and kMaxQubits classical
 * bits, checked before anything is allocated.
 * Nor can a short program expand to a huge circuit: each gate
 * definition's expanded size is computed when it is defined, a gate
 * body may call only builtins and the gates defined above it (as
 * OpenQASM 2.0 requires), and a program whose top-level statements
 * expand past kMaxGateCalls builtin gate calls is rejected before
 * anything expands.
 */

#ifndef AUTOBRAID_QASM_PARSER_HPP
#define AUTOBRAID_QASM_PARSER_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "qasm/ast.hpp"

namespace autobraid {
namespace qasm {

/** Most qubits a program may declare: 2^20, the certifier's tile cap. */
constexpr int kMaxQubits = 1 << 20;

/**
 * Most builtin gate calls a program may expand to, counting each
 * statement's calls times its broadcast width: 2^22, over 20 times the
 * 179,235 gates of shor:234, the largest generator circuit. A builtin
 * lowers to at most 17 gates (cswap).
 */
constexpr uint64_t kMaxGateCalls = uint64_t{1} << 22;

/** Parse OpenQASM 2.0 source text. Raises UserError on syntax errors. */
Program parse(std::string_view source);

/**
 * Parse an OpenQASM 2.0 file from disk. Raises UserError when the file
 * cannot be opened or read (a directory, say) or does not parse.
 */
Program parseFile(const std::string &path);

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_PARSER_HPP
