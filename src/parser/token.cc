#include "parser/token.h"

#include "core/string_util.h"

namespace saql {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof:
      return "end of input";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kFloat:
      return "float";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kHash:
      return "'#'";
    case TokenKind::kPipe:
      return "'|'";
    case TokenKind::kOrOr:
      return "'||'";
    case TokenKind::kAndAnd:
      return "'&&'";
    case TokenKind::kArrow:
      return "'->'";
    case TokenKind::kAssign:
      return "'='";
    case TokenKind::kColonAssign:
      return "':='";
    case TokenKind::kEq:
      return "'=='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kPercent:
      return "'%'";
    case TokenKind::kBang:
      return "'!'";
  }
  return "?";
}

std::string SourceSpan::ToString() const {
  if (end.line == begin.line && end.col > begin.col) {
    return begin.ToString() + "-" + std::to_string(end.col);
  }
  if (end.line > begin.line) {
    return begin.ToString() + "-" + end.ToString();
  }
  return begin.ToString();
}

bool Token::IsIdent(const std::string& spelling) const {
  return kind == TokenKind::kIdentifier && AsciiCaseEqual(text, spelling);
}

std::string Token::ToString() const {
  switch (kind) {
    case TokenKind::kIdentifier:
      return text;
    case TokenKind::kString:
      return "\"" + text + "\"";
    case TokenKind::kInteger:
      return std::to_string(int_value);
    case TokenKind::kFloat:
      return std::to_string(float_value);
    default:
      return TokenKindName(kind);
  }
}

}  // namespace saql
