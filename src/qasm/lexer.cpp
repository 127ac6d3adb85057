#include "qasm/lexer.hpp"

#include <cctype>

#include "common/error.hpp"

namespace autobraid {
namespace qasm {
namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentBody(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c));
}

} // namespace

void
Lexer::advance()
{
    if (source_[pos_] == '\n') {
        ++line_;
        column_ = 1;
    } else {
        ++column_;
    }
    ++pos_;
}

Token
Lexer::next()
{
    const std::string_view src = source_;
    while (pos_ < src.size()) {
        const char c = src[pos_];
        const int l = line_;
        const int co = column_;
        const auto token = [&](TokenKind kind, size_t n) {
            const Token t{kind, src.substr(pos_, n), l, co};
            skip(n);
            return t;
        };

        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance();
            continue;
        }
        if (c == '/' && pos_ + 1 < src.size() && src[pos_ + 1] == '/') {
            while (pos_ < src.size() && src[pos_] != '\n')
                skip(1);
            continue;
        }
        if (isIdentStart(c)) {
            size_t j = pos_;
            while (j < src.size() && isIdentBody(src[j]))
                ++j;
            return token(TokenKind::Identifier, j - pos_);
        }
        if (isDigit(c) ||
            (c == '.' && pos_ + 1 < src.size() && isDigit(src[pos_ + 1]))) {
            size_t j = pos_;
            bool is_real = false;
            while (j < src.size() && isDigit(src[j]))
                ++j;
            if (j < src.size() && src[j] == '.') {
                is_real = true;
                ++j;
                while (j < src.size() && isDigit(src[j]))
                    ++j;
            }
            if (j < src.size() && (src[j] == 'e' || src[j] == 'E')) {
                size_t k = j + 1;
                if (k < src.size() && (src[k] == '+' || src[k] == '-'))
                    ++k;
                if (k < src.size() && isDigit(src[k])) {
                    is_real = true;
                    j = k;
                    while (j < src.size() && isDigit(src[j]))
                        ++j;
                }
            }
            return token(is_real ? TokenKind::Real : TokenKind::Integer,
                         j - pos_);
        }
        if (c == '"') {
            size_t j = pos_ + 1;
            while (j < src.size() && src[j] != '"')
                ++j;
            if (j >= src.size())
                fatal("qasm:%d:%d: unterminated string literal", l, co);
            const Token t{TokenKind::String,
                          src.substr(pos_ + 1, j - pos_ - 1), l, co};
            // A string may span lines.
            while (pos_ <= j)
                advance();
            return t;
        }
        if (c == '-' && pos_ + 1 < src.size() && src[pos_ + 1] == '>')
            return token(TokenKind::Arrow, 2);
        if (c == '=' && pos_ + 1 < src.size() && src[pos_ + 1] == '=')
            return token(TokenKind::EqEq, 2);

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
        return token(kind, 1);
    }
    return Token{TokenKind::Eof, {}, line_, column_};
}

} // namespace qasm
} // namespace autobraid
