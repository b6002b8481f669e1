// The shared JSON layer: one encoder and one parser for every machine-
// readable surface of the debugger — the structured-view serialization
// (dfdbg/debug/views.hpp), the debug-server wire protocol (dfdbg/server),
// the CLI `--json` flags and the state exporter. Hand-rolled so the tree
// stays dependency-free; compact output (no insignificant whitespace) so one
// document is one newline-delimited frame on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dfdbg/common/status.hpp"

namespace dfdbg {

/// Escapes and double-quotes `s` as one JSON string literal.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Streaming JSON emitter with automatic comma/colon placement. Usage:
///
///   JsonWriter w;
///   w.begin_object().key("links").begin_array();
///   for (...) w.begin_object().kv("name", l.name).kv("occupancy", n).end_object();
///   w.end_array().end_object();
///   std::string doc = w.take();
///
/// The writer does not validate nesting beyond what the comma logic needs;
/// callers are expected to emit well-formed structures (tests compare output
/// byte-for-byte, so misuse is caught immediately).
class JsonWriter {
 public:
  JsonWriter& begin_object() { sep(); out_ += '{'; depth_.push_back(false); return *this; }
  JsonWriter& end_object() { depth_.pop_back(); out_ += '}'; return *this; }
  JsonWriter& begin_array() { sep(); out_ += '['; depth_.push_back(false); return *this; }
  JsonWriter& end_array() { depth_.pop_back(); out_ += ']'; return *this; }

  JsonWriter& key(std::string_view k) {
    sep();
    out_ += json_quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) { sep(); out_ += json_quote(v); return *this; }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) { sep(); out_ += v ? "true" : "false"; return *this; }
  JsonWriter& value(std::uint64_t v) { sep(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(std::int64_t v) { sep(); out_ += std::to_string(v); return *this; }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& null() { sep(); out_ += "null"; return *this; }
  /// Splices pre-encoded JSON verbatim (e.g. a nested document).
  JsonWriter& raw(std::string_view json) { sep(); out_ += json; return *this; }

  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!depth_.empty()) {
      if (depth_.back()) out_ += ',';
      depth_.back() = true;
    }
  }

  std::string out_;
  std::vector<bool> depth_;  ///< per level: "already holds an element"
  bool after_key_ = false;
};

/// A parsed JSON document (the server's request decoder). Object member
/// order is preserved; numbers remember whether the source text was
/// integral, so u64 ids survive without a double round-trip.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document (trailing garbage is an error).
  static Result<JsonValue> parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  /// An integer literal without a minus sign: what as_u64() reads exactly.
  [[nodiscard]] bool is_unsigned() const { return is_number() && int_ && !neg_; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool(bool dflt = false) const { return is_bool() ? b_ : dflt; }
  [[nodiscard]] double as_double(double dflt = 0.0) const { return is_number() ? d_ : dflt; }
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t dflt = 0) const {
    if (!is_number()) return dflt;
    return int_ ? u_ : static_cast<std::uint64_t>(d_);
  }
  [[nodiscard]] std::int64_t as_i64(std::int64_t dflt = 0) const {
    if (!is_number()) return dflt;
    return int_ ? static_cast<std::int64_t>(u_) * (neg_ ? -1 : 1) : static_cast<std::int64_t>(d_);
  }
  [[nodiscard]] const std::string& as_string() const { return s_; }

  /// Array length / object member count (0 for scalars).
  [[nodiscard]] std::size_t size() const {
    return is_array() ? arr_.size() : (is_object() ? members_.size() : 0);
  }
  /// Array element / i-th object member value.
  [[nodiscard]] const JsonValue& at(std::size_t i) const {
    return is_object() ? members_[i].second : arr_[i];
  }
  /// i-th object member key.
  [[nodiscard]] const std::string& key_at(std::size_t i) const { return members_[i].first; }
  /// Object member by key (nullptr if absent or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Convenience lookups for request-params objects.
  [[nodiscard]] std::string str_or(std::string_view key, std::string_view dflt = "") const;
  [[nodiscard]] std::uint64_t u64_or(std::string_view key, std::uint64_t dflt = 0) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool dflt = false) const;

  /// Re-serializes through JsonWriter (compact; keys in parse order).
  [[nodiscard]] std::string dump() const;
  void write(JsonWriter& w) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool b_ = false;
  bool int_ = false;  ///< number was an integer literal
  bool neg_ = false;  ///< integer literal carried a minus sign
  std::uint64_t u_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace dfdbg
