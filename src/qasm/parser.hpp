/**
 * @file
 * Recursive-descent parser for OpenQASM 2.0.
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
 * tree it builds stays shallow enough for the recursive eval, clone and
 * destructor, and a program declares at most kMaxQubits qubits and
 * kMaxQubits classical bits, checked before anything is allocated.
 */

#ifndef AUTOBRAID_QASM_PARSER_HPP
#define AUTOBRAID_QASM_PARSER_HPP

#include <string>

#include "qasm/ast.hpp"

namespace autobraid {
namespace qasm {

/** Most qubits a program may declare: 2^20, the certifier's tile cap. */
constexpr int kMaxQubits = 1 << 20;

/** Parse OpenQASM 2.0 source text. Raises UserError on syntax errors. */
Program parse(const std::string &source);

/** Parse an OpenQASM 2.0 file from disk. */
Program parseFile(const std::string &path);

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_PARSER_HPP
