/**
 * @file
 * OpenQASM 2.0 lexer.
 *
 * Handles identifiers, integer and real literals, strings, punctuation,
 * '//' line comments, and position tracking for diagnostics. The paper's
 * benchmark circuits come from RevLib / Qiskit / ScaffCC exports in
 * OpenQASM 2.0, so this front end lets the harness consume such files
 * directly.
 *
 * The lexer is a pull lexer: the parser asks for one token at a time,
 * and each token's text is a view into the source, so lexing a file
 * builds no token array and copies no spelling.
 */

#ifndef AUTOBRAID_QASM_LEXER_HPP
#define AUTOBRAID_QASM_LEXER_HPP

#include <cstddef>
#include <string_view>

#include "qasm/token.hpp"

namespace autobraid {
namespace qasm {

/** Tokenizes a source text on demand; the source must outlive it. */
class Lexer
{
  public:
    explicit Lexer(std::string_view source) : source_(source) {}

    /**
     * The next token, or Eof at the end of the source (and on every
     * call after it). Raises UserError on a bad character or an
     * unterminated string, and again on every call after it.
     */
    Token next();

  private:
    /** Step over @p n characters, none of them a newline. */
    void
    skip(size_t n)
    {
        pos_ += n;
        column_ += static_cast<int>(n);
    }

    /** Step over one character, which may be a newline. */
    void advance();

    std::string_view source_;
    size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
};

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_LEXER_HPP
