// rfidmon_bench: runs one workload and prints one `workload metric value
// unit` row per metric, then a JSON result object as the last line:
//
//   rfidmon_bench --workload svc_trp --seed 20080617 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (a shorter run plus direct probes). --smoke shrinks every size so a run
// takes about a second. The service under test runs in a child process:
// this binary again, in --serve mode. Exit status: 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace {

using rfid::bench::Options;
using rfid::bench::Report;
using rfid::bench::Shape;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rfidmon_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]\n"
               "workloads:");
  for (const Shape& shape : rfid::bench::all_shapes()) {
    std::fprintf(out, " %s", shape.name.c_str());
  }
  std::fprintf(out, "\n");
}

[[noreturn]] void bad_usage(const std::string& message) {
  std::fprintf(stderr, "rfidmon_bench: %s\n", message.c_str());
  usage(stderr);
  std::exit(2);
}

double parse_number(std::string_view flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    bad_usage("bad value for " + std::string(flag) + ": " + text);
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (flag == "--serve") {
      options.serve = true;
      continue;
    }
    if (i + 1 >= argc) bad_usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') {
        bad_usage(std::string("bad value for --seed: ") + value);
      }
    } else if (flag == "--seconds") {
      options.seconds = parse_number(flag, value);
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") bad_usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      bad_usage("unknown flag " + std::string(flag));
    }
  }
  if (options.workload.empty()) bad_usage("--workload is required");
  return options;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.serve) return rfid::bench::serve(options);
  const Shape* chosen = nullptr;
  const std::vector<Shape> shapes = rfid::bench::all_shapes();
  for (const Shape& shape : shapes) {
    if (shape.name == options.workload) chosen = &shape;
  }
  if (chosen == nullptr) bad_usage("unknown workload " + options.workload);
  const Shape shape = options.smoke ? rfid::bench::smoke(*chosen) : *chosen;

  Report report;
  try {
    report = rfid::bench::run_workload(shape, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfidmon_bench: %s: %s\n", shape.name.c_str(),
                 e.what());
    return 1;
  }
  for (rfid::bench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail(m.name + " is not finite");
      m.value = -1.0;
    }
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "rfidmon_bench: FAILED: %s\n", problem.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const rfid::bench::Metric& m : report.metrics) {
    std::printf("%s %s %.6g %s\n", shape.name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json.append(first ? "\"" : ", \"")
        .append(json_escape(m.name))
        .append("\": {\"value\": ")
        .append(number)
        .append(", \"unit\": \"")
        .append(json_escape(m.unit))
        .append("\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
