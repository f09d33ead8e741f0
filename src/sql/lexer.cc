#include "sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <unordered_set>

namespace hetdb {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* keywords = new std::unordered_set<std::string>{
      "SELECT", "FROM",  "WHERE",  "GROUP", "BY",    "ORDER",  "LIMIT",
      "AND",    "OR",    "AS",     "ASC",   "DESC",  "BETWEEN", "IN",
      "SUM",    "COUNT", "MIN",    "MAX",   "AVG",   "NOT",
      "EXPLAIN", "ANALYZE",
  };
  return *keywords;
}

bool IsIdentifierStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;

    if (IsIdentifierStart(c)) {
      size_t j = i;
      while (j < n && IsIdentifierChar(sql[j])) ++j;
      std::string word = sql.substr(i, j - i);
      std::string upper = word;
      std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
      if (Keywords().count(upper) > 0) {
        token.kind = TokenKind::kKeyword;
        token.text = upper;
      } else {
        token.kind = TokenKind::kIdentifier;
        token.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.')) {
        if (sql[j] == '.') {
          // "1.5" is a float; "t.c" never starts with a digit.
          if (is_float) break;
          is_float = true;
        }
        ++j;
      }
      const char* first = sql.data() + i;
      const char* last = sql.data() + j;
      std::from_chars_result parsed;
      if (is_float) {
        token.kind = TokenKind::kFloat;
        parsed = std::from_chars(first, last, token.float_value);
      } else {
        token.kind = TokenKind::kInteger;
        parsed = std::from_chars(first, last, token.int_value);
      }
      token.text = sql.substr(i, j - i);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument("numeric literal " + token.text +
                                       " out of range at position " +
                                       std::to_string(i));
      }
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      std::string value;
      while (j < n && sql[j] != '\'') value.push_back(sql[j++]);
      if (j >= n) {
        return Status::InvalidArgument(
            "unterminated string literal at position " + std::to_string(i));
      }
      token.kind = TokenKind::kString;
      token.text = value;
      i = j + 1;
    } else {
      // Two-character comparison symbols first.
      if (i + 1 < n) {
        const std::string two = sql.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          token.kind = TokenKind::kSymbol;
          token.text = two == "!=" ? "<>" : two;
          tokens.push_back(token);
          i += 2;
          continue;
        }
      }
      static const std::string kSingles = "(),*.=<>+-/;";
      if (kSingles.find(c) == std::string::npos) {
        return Status::InvalidArgument("unexpected character '" +
                                       std::string(1, c) + "' at position " +
                                       std::to_string(i));
      }
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(token);
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace hetdb
