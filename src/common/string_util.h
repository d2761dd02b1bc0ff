#ifndef DIVA_COMMON_STRING_UTIL_H_
#define DIVA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace diva {

/// Splits `input` on `delimiter`, preserving empty fields.
/// Split("a,,b", ',') -> {"a", "", "b"}; Split("", ',') -> {""}.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Parses a base-10 signed integer; the whole string must be consumed.
[[nodiscard]] Result<int64_t> ParseInt64(std::string_view input);

/// Parses a floating point number; the whole string must be consumed.
[[nodiscard]] Result<double> ParseDouble(std::string_view input);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII letters.
std::string ToLowerAscii(std::string_view input);

/// `prefix` followed by `n` in decimal: NumberedLabel("r", 7) == "r7".
/// Built by appending; GCC 12 at -O3 flags the equivalent
/// `"r" + std::to_string(n)` with a false -Wrestrict warning.
std::string NumberedLabel(std::string_view prefix, uint64_t n);

}  // namespace diva

#endif  // DIVA_COMMON_STRING_UTIL_H_
