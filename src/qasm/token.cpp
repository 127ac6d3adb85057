#include "qasm/token.hpp"

#include "common/text.hpp"

namespace autobraid {
namespace qasm {

const char *
tokenKindName(TokenKind kind)
{
    switch (kind) {
      case TokenKind::Eof: return "end of input";
      case TokenKind::Identifier: return "identifier";
      case TokenKind::Integer: return "integer";
      case TokenKind::Real: return "real";
      case TokenKind::String: return "string";
      case TokenKind::LParen: return "'('";
      case TokenKind::RParen: return "')'";
      case TokenKind::LBrace: return "'{'";
      case TokenKind::RBrace: return "'}'";
      case TokenKind::LBracket: return "'['";
      case TokenKind::RBracket: return "']'";
      case TokenKind::Comma: return "','";
      case TokenKind::Semicolon: return "';'";
      case TokenKind::Arrow: return "'->'";
      case TokenKind::Plus: return "'+'";
      case TokenKind::Minus: return "'-'";
      case TokenKind::Star: return "'*'";
      case TokenKind::Slash: return "'/'";
      case TokenKind::Caret: return "'^'";
      case TokenKind::EqEq: return "'=='";
    }
    return "unknown token";
}

std::string
Token::toString() const
{
    if (text.empty())
        return tokenKindName(kind);
    return strformat("%s '%.*s'", tokenKindName(kind),
                     static_cast<int>(text.size()), text.data());
}

} // namespace qasm
} // namespace autobraid
