// xbench: the repository benchmark binary (see xbench/README.md).
//
//   xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--expect-digest <hex>] [--record <file>] [--commit <id>]
//   xbench --selftest
//
// Prints every metric by name and unit, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"
#include "xbench.hpp"

namespace {

using namespace xbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string host_json(const std::string& commit) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
     << ", \"compiler\": \"" << json_escape(XBENCH_COMPILER) << "\""
     << ", \"build_type\": \"" << XBENCH_BUILD_TYPE << "\""
     << ", \"commit\": \"" << json_escape(commit) << "\"}";
  return os.str();
}

std::string metrics_json(const Outcome& out) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

void write_record(const std::string& path, const Options& opts,
                  const std::string& host, const std::string& expect,
                  const Outcome& out) {
  std::ofstream f(path);
  f << "{\"host\": " << host << ",\n \"workload\": \"" << opts.workload
    << "\", \"seed\": " << opts.seed << ", \"seconds\": " << num(opts.seconds)
    << ", \"trace\": " << (opts.trace ? 1 : 0) << ",\n \"correct\": "
    << (out.correct ? "true" : "false") << ", \"attempted\": "
    << out.attempted << ", \"failed\": " << out.failed
    << ", \"digest\": \"" << hex64(out.digest) << "\", \"expected_digest\": \""
    << expect << "\",\n \"metrics\": " << metrics_json(out)
    << ",\n \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    f << (i ? ", " : "") << "\"" << json_escape(out.notes[i]) << "\"";
  }
  f << "],\n \"spans\": [";
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    const Span& s = out.spans[i];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
      << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << ", \"start_s\": " << num(s.start_s)
      << ", \"end_s\": " << num(s.end_s) << "}";
  }
  f << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: xbench --workload <campaign|mesh8_knee|"
               "mesh8_saturated|mesh16_parallel> --seed <n> --seconds <s> "
               "--trace <0|1> [--expect-digest <hex>] [--record <file>] "
               "[--commit <id>]\n       xbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(XBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "xbench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 XBENCH_BUILD_TYPE);
    return 3;
  }
  Options opts;
  std::string expect, record, commit = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--expect-digest") {
      expect = argv[++i];
    } else if (arg == "--record") {
      record = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return run_wedge_selftest();

  Outcome out;
  if (opts.workload == "campaign") {
    out = run_campaign_workload(opts);
  } else if (const NetShape* shape = find_network_workload(opts.workload)) {
    out = run_network_workload(*shape, opts);
  } else {
    return usage();
  }
  if (!expect.empty() && hex64(out.digest) != expect) {
    out.fail_check("result digest " + hex64(out.digest) +
                   " != pinned digest " + expect);
  }

  const std::string host = host_json(commit);
  std::printf("host %s\n", host.c_str());
  std::printf("workload %s seed %llu trace %d digest %s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              hex64(out.digest).c_str());
  for (const std::string& note : out.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %18.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!record.empty()) write_record(record, opts, host, expect, out);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(out).c_str());
  return 0;
}
