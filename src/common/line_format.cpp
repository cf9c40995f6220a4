#include "src/common/line_format.hpp"

#include <sstream>
#include <stdexcept>

#include "src/common/error.hpp"

namespace xpl {

void throw_line_error(std::string_view format, std::size_t line,
                      const std::string& what) {
  throw Error(std::string(format) + " line " + std::to_string(line) + ": " +
              what);
}

std::vector<std::string> tokenize_line(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

std::uint64_t parse_u64(const std::string& token, std::string_view format,
                        std::size_t line) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    throw_line_error(format, line, "bad number '" + token + "'");
  }
  try {
    return std::stoull(token);
  } catch (const std::out_of_range&) {
    throw_line_error(format, line, "bad number '" + token + "'");
  }
}

double parse_f64(const std::string& token, std::string_view format,
                 std::size_t line) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) {
      throw_line_error(format, line, "bad number '" + token + "'");
    }
    return value;
  } catch (const std::logic_error&) {
    throw_line_error(format, line, "bad number '" + token + "'");
  }
}

}  // namespace xpl
