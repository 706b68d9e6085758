// Minimal recursive-descent JSON syntax checker for the test suites: enough
// to guarantee Perfetto / about:tracing (and any strict JSON reader) can
// parse what the trace and bench writers emit. It validates, it does not
// build a value tree.
#pragma once

#include <cctype>
#include <cstddef>
#include <string_view>

namespace conflux::test_support {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char ch = s_[pos_++];
      if (ch == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;
      } else if (ch == '"') {
        return true;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        return false;  // raw control characters are invalid JSON
      }
    }
    return false;
  }
  // -? digits (. digits)? ([eE] [+-]? digits)?
  bool number() {
    eat('-');
    if (!digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool eat(char ch) {
    if (pos_ < s_.size() && s_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace conflux::test_support
