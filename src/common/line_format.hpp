// Shared lexing for the line-oriented text formats (.noc, .sweep, .trace,
// .tune, .ckpt): one tokenizer and one pair of strict number parsers, so
// every reader rejects the same malformed numbers. Each reader keeps its
// own error prefix ("spec", "sweep", "trace", "tune", "checkpoint");
// errors read "<format> line <n>: <what>".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xpl {

/// Throws xpl::Error("<format> line <line>: <what>").
[[noreturn]] void throw_line_error(std::string_view format, std::size_t line,
                                   const std::string& what);

/// Splits `line` into whitespace-separated tokens; a token starting with
/// '#' begins a comment that runs to the end of the line.
std::vector<std::string> tokenize_line(const std::string& line);

/// Plain decimal digits that fit in 64 bits. std::stoull alone would
/// silently wrap "-1" to 2^64 - 1 and accept a leading '+'.
std::uint64_t parse_u64(const std::string& token, std::string_view format,
                        std::size_t line);

/// A whole token std::stod accepts.
double parse_f64(const std::string& token, std::string_view format,
                 std::size_t line);

}  // namespace xpl
