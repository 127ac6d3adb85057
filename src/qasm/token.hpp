/**
 * @file
 * Token model for the OpenQASM 2.0 lexer. A token's text is a view
 * into the source it was lexed from: no token copies or owns a string.
 */

#ifndef AUTOBRAID_QASM_TOKEN_HPP
#define AUTOBRAID_QASM_TOKEN_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace autobraid {
namespace qasm {

/** Lexical token categories. */
enum class TokenKind : uint8_t
{
    Eof,
    Identifier, ///< names, including keywords resolved by the parser
    Integer,
    Real,
    String,     ///< "quoted", for include directives
    // punctuation
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Comma, Semicolon, Arrow,       // ->
    Plus, Minus, Star, Slash, Caret,
    EqEq,                          // ==
};

/** Human-readable name of a token kind (for diagnostics). */
const char *tokenKindName(TokenKind kind);

/** One lexed token with its source position. */
struct Token
{
    TokenKind kind = TokenKind::Eof;
    /**
     * The spelling, a view into the source (a string's contents
     * without its quotes); valid while the source is.
     */
    std::string_view text;
    int line = 0;       ///< 1-based
    int column = 0;     ///< 1-based

    /** True for an identifier with exactly this spelling. */
    bool is(std::string_view ident) const
    {
        return kind == TokenKind::Identifier && text == ident;
    }

    std::string toString() const;
};

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_TOKEN_HPP
