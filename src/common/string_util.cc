#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace diva {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty integer literal");
  }
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    return Status::InvalidArgument("not an integer: '" + std::string(input) +
                                   "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty number literal");
  }
  // std::from_chars for double is flaky across stdlib versions; strtod on a
  // NUL-terminated copy is portable and exact here (inputs are short).
  std::string copy(trimmed);
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return Status::InvalidArgument("not a number: '" + std::string(input) +
                                   "'");
  }
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string NumberedLabel(std::string_view prefix, uint64_t n) {
  std::string label(prefix);
  label += std::to_string(n);
  return label;
}

}  // namespace diva
