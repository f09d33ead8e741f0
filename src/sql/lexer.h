#ifndef HETDB_SQL_LEXER_H_
#define HETDB_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hetdb {

/// Token kinds of the supported SQL subset.
enum class TokenKind {
  kIdentifier,  // table/column names (case-preserved)
  kKeyword,     // upper-cased reserved word (SELECT, FROM, ...)
  kInteger,     // 123
  kFloat,       // 1.5
  kString,      // 'text'
  kSymbol,      // ( ) , * . + - / = < > <= >= <>
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // keyword/symbol text, identifier, or literal spelling
  int64_t int_value = 0;
  double float_value = 0;
  size_t position = 0;  // byte offset for error messages

  bool IsKeyword(const char* word) const {
    return kind == TokenKind::kKeyword && text == word;
  }
  bool IsSymbol(const char* symbol) const {
    return kind == TokenKind::kSymbol && text == symbol;
  }
};

/// Splits `sql` into tokens. Keywords are recognized case-insensitively and
/// normalized to upper case; identifiers keep their spelling. Returns
/// InvalidArgument with a position on malformed input (e.g. an unterminated
/// string literal, or a numeric literal outside int64_t or double range).
Result<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace hetdb

#endif  // HETDB_SQL_LEXER_H_
