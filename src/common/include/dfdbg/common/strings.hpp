// Small string helpers shared by the ADL parser, the CLI tokenizer and the
// debugger's name-mangling emulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dfdbg {

/// Heterogeneous hash for string-keyed containers: lets unordered_map find()
/// accept std::string_view / const char* without materialising a temporary
/// std::string. Pair with std::equal_to<> as the key-equal:
///   std::unordered_map<std::string, T, TransparentStringHash, std::equal_to<>>
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const char* s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// All of `text` as an unsigned integer, read as strtoull reads base 0
/// (decimal, 0x hex, leading-0 octal). Nullopt for empty text, a sign or
/// leading space, trailing characters, or a value above `max`.
std::optional<std::uint64_t> parse_uint(std::string_view text, std::uint64_t max = UINT64_MAX);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view s);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Emulates the PEDF tool-chain symbol mangling observed in the paper, e.g.
/// filter `ipf` work method -> "IpfFilter_work_function" and controller
/// `pred_controller` -> "_component_PredModule_anon_0_work".
std::string mangle_filter_work(std::string_view filter_name);
std::string mangle_controller_work(std::string_view module_name, int anon_index);

}  // namespace dfdbg
