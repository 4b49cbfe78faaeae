// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Every workload is a fixed amount of work set by the
// seed; --seconds is accepted for the harness's interface but does not
// change the work.  Check failures are written to standard error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig2_sweep|torus_churn|random_failures|"
               "random_recovery --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

void print_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  perfbench::WorkloadKind kind{};
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (!perfbench::parse_workload(value, kind)) usage("unknown workload " + value);
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) usage("bad seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0) usage("bad seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(kind, options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& p : report.problems) std::cerr << "check failed: " << p << "\n";

  std::cout.precision(17);
  std::cout << "{\"correct\": " << (report.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "");
    print_json_string(std::cout, m.name);
    std::cout << ": {\"value\": " << m.value << ", \"unit\": ";
    print_json_string(std::cout, m.unit);
    std::cout << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
