#include "xtsoc/common/strings.hpp"

#include <cctype>
#include <sstream>

namespace xtsoc {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name.substr(1)) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

std::string to_snake_case(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 4);
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (i > 0 && name[i - 1] != '_' &&
          !std::isupper(static_cast<unsigned char>(name[i - 1]))) {
        out.push_back('_');
      }
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string to_upper_snake(std::string_view name) {
  std::string snake = to_snake_case(name);
  for (char& c : snake) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return snake;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string indent(std::string_view text, int spaces) {
  std::string pad(static_cast<std::size_t>(spaces), ' ');
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t pos = text.find('\n', start);
    std::string_view line = (pos == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, pos - start);
    if (!line.empty()) out += pad;
    out += line;
    if (pos == std::string_view::npos) break;
    out += '\n';
    start = pos + 1;
  }
  return out;
}

std::string dedent(std::string_view text) {
  std::vector<std::string> lines = split(text, '\n');
  std::size_t common = std::string::npos;
  for (const std::string& line : lines) {
    if (trim(line).empty()) continue;
    std::size_t lead = 0;
    while (lead < line.size() && (line[lead] == ' ' || line[lead] == '\t')) {
      ++lead;
    }
    common = std::min(common, lead);
  }
  if (common == std::string::npos || common == 0) return std::string(text);
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    if (trim(lines[i]).empty()) continue;
    out += lines[i].substr(common);
  }
  return out;
}

std::size_t count_lines(std::string_view text) {
  if (text.empty()) return 0;
  std::size_t n = 0;
  for (char c : text) {
    if (c == '\n') ++n;
  }
  if (text.back() != '\n') ++n;
  return n;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::ostringstream os;
  os << std::hex << fnv1a(bytes);
  return os.str();
}

}  // namespace xtsoc
