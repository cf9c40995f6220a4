#include "src/sweep/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/line_format.hpp"

namespace xpl::sweep {

namespace {

constexpr std::string_view kFormat = "checkpoint";

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw_line_error(kFormat, line, what);
}

/// Exact double round-trip: C99 hexfloat in, strtod out.
std::string hex_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

double parse_hex_double(const std::string& token, std::size_t line) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + token.size() || token.empty()) {
    fail(line, "bad float '" + token + "'");
  }
  return value;
}

/// Error strings are free-form exception text: escape the separators the
/// line format relies on. "\\" -> "\\\\", newline -> "\\n".
std::string escape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += s[i] == 'n' ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

Checkpoint make_checkpoint(const SweepSpec& spec, const ResultTable& table) {
  Checkpoint ckpt;
  ckpt.spec_text = write_sweep(spec);
  ckpt.num_points = table.size();
  for (const auto& row : table.rows()) {
    if (row.evaluated) ckpt.results.push_back(row);
  }
  return ckpt;
}

SweepSpec checkpoint_spec(Checkpoint& ckpt) {
  const SweepSpec spec = parse_sweep(ckpt.spec_text);
  require(write_sweep(spec) == ckpt.spec_text,
          "checkpoint: embedded spec is not canonical");
  require(spec.num_points() == ckpt.num_points,
          "checkpoint: stored campaign has " +
              std::to_string(ckpt.num_points) + " points but the spec " +
              "resolves to " + std::to_string(spec.num_points()));
  const auto points = spec.points();
  for (auto& row : ckpt.results) {
    require(row.point.index < points.size(),
            "checkpoint: result index out of range");
    row.point = points[row.point.index];
  }
  return spec;
}

std::string write_checkpoint(const Checkpoint& ckpt) {
  std::ostringstream os;
  os << "# xsweep campaign checkpoint\n";
  os << "checkpoint 1\n";
  os << "spec_begin\n";
  os << ckpt.spec_text;
  if (!ckpt.spec_text.empty() && ckpt.spec_text.back() != '\n') os << "\n";
  os << "spec_end\n";
  os << "points " << ckpt.num_points << "\n";
  for (const auto& r : ckpt.results) {
    os << "result " << r.point.index << " " << (r.ok ? 1 : 0) << " "
       << r.transactions << " " << r.link_flits << " " << r.retransmissions
       << " " << r.credit_stalls << " " << hex_double(r.avg_latency_cycles)
       << " " << hex_double(r.p95_latency_cycles) << " "
       << hex_double(r.throughput_tpc) << " "
       << hex_double(r.avg_link_utilization) << " " << hex_double(r.area_mm2)
       << " " << hex_double(r.power_mw) << " " << hex_double(r.fmax_mhz);
    if (!r.error.empty()) os << " " << escape_error(r.error);
    os << "\n";
  }
  return os.str();
}

Checkpoint parse_checkpoint(const std::string& text) {
  Checkpoint ckpt;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  bool saw_version = false;
  bool saw_points = false;
  std::set<std::size_t> seen;

  auto next_line = [&]() {
    if (!std::getline(is, line)) fail(lineno, "unexpected end of file");
    ++lineno;
  };

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;

    if (key == "checkpoint") {
      std::string version;
      ls >> version;
      if (version != "1") {
        fail(lineno, "unsupported checkpoint version '" + version + "'");
      }
      saw_version = true;
    } else if (key == "spec_begin") {
      if (!saw_version) fail(lineno, "spec_begin before version line");
      std::ostringstream spec;
      for (;;) {
        next_line();
        if (line == "spec_end") break;
        spec << line << "\n";
      }
      ckpt.spec_text = spec.str();
    } else if (key == "points") {
      std::string count;
      ls >> count;
      ckpt.num_points = parse_u64(count, kFormat, lineno);
      saw_points = true;
    } else if (key == "result") {
      if (!saw_points) fail(lineno, "result before points line");
      std::string tok[13];
      for (auto& t : tok) {
        if (!(ls >> t)) fail(lineno, "truncated result row");
      }
      SweepResult r;
      r.point.index = parse_u64(tok[0], kFormat, lineno);
      if (r.point.index >= ckpt.num_points) {
        fail(lineno, "result index " + tok[0] + " out of range (points " +
                         std::to_string(ckpt.num_points) + ")");
      }
      if (tok[1] != "0" && tok[1] != "1") fail(lineno, "bad ok flag");
      r.ok = tok[1] == "1";
      r.evaluated = true;
      r.transactions = parse_u64(tok[2], kFormat, lineno);
      r.link_flits = parse_u64(tok[3], kFormat, lineno);
      r.retransmissions = parse_u64(tok[4], kFormat, lineno);
      r.credit_stalls = parse_u64(tok[5], kFormat, lineno);
      r.avg_latency_cycles = parse_hex_double(tok[6], lineno);
      r.p95_latency_cycles = parse_hex_double(tok[7], lineno);
      r.throughput_tpc = parse_hex_double(tok[8], lineno);
      r.avg_link_utilization = parse_hex_double(tok[9], lineno);
      r.area_mm2 = parse_hex_double(tok[10], lineno);
      r.power_mw = parse_hex_double(tok[11], lineno);
      r.fmax_mhz = parse_hex_double(tok[12], lineno);
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      r.error = unescape_error(rest);
      if (!seen.insert(r.point.index).second) {
        fail(lineno, "duplicate result index " + tok[0]);
      }
      ckpt.results.push_back(std::move(r));
    } else {
      fail(lineno, "unknown directive '" + key + "'");
    }
  }
  require(saw_version, "checkpoint: missing version line");
  require(!ckpt.spec_text.empty(), "checkpoint: missing embedded spec");
  require(saw_points, "checkpoint: missing points line");
  return ckpt;
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_checkpoint: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_checkpoint(text.str());
}

void save_checkpoint(const Checkpoint& ckpt, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "save_checkpoint: cannot open " + tmp);
    out << write_checkpoint(ckpt);
    out.flush();
    require(out.good(), "save_checkpoint: write failed for " + tmp);
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "save_checkpoint: cannot rename " + tmp + " to " + path);
}

}  // namespace xpl::sweep
