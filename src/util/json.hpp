// Minimal JSON reader for declarative tool inputs (simctl --spec files).
//
// Scope: strict RFC-8259 parsing of documents small enough to hold in
// memory, with two deliberate representation choices for lossless
// round-tripping into CLI flags:
//   * numbers keep their raw literal text (number_text()) — a seed like
//     2^63 or a threshold like 0.05 reaches the flag parser exactly as
//     written, never through a double round-trip;
//   * object members preserve document order (members()), so anything
//     derived from a spec file is deterministic in the file's bytes.
// No writer, no comments, no extensions. Errors throw
// std::invalid_argument naming the byte offset, and so does a document
// nested deeper than kMaxDepth.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skp {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  // The most arrays and objects one value may sit inside, counting its
  // own. The reader recurses once per level, so the bound keeps a
  // hostile document from overflowing the stack; the committed simctl
  // spec files nest 3 deep.
  static constexpr std::size_t kMaxDepth = 64;

  // Parses exactly one document (leading/trailing whitespace permitted);
  // throws std::invalid_argument on any syntax error or trailing input.
  static JsonValue parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }

  // Typed accessors; each throws std::invalid_argument when the value is
  // of a different kind (the message names both kinds).
  bool as_bool() const;
  // Raw number literal, exactly as written in the document.
  const std::string& number_text() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  // Array
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const;  // Object, document order

  // Object lookup; nullptr when absent (or when not an object).
  const JsonValue* find(std::string_view key) const;

  static const char* kind_name(Kind kind);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  // Number literal or string payload, depending on kind.
  std::string text_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

}  // namespace skp
