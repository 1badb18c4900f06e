// lanbench: end-to-end and per-layer benchmark of the LAN index.
//
//   lanbench --workload aids-lan|aids-repeat|syn-writes --seed N
//            --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints diagnostic lines, then one JSON result line. Normally started
// through lanbench/run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lanbench: %s\nusage: lanbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseInt(const std::string& text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  lanbench::BenchParams params;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    long long number = 0;
    if (flag == "--workload") {
      params.workload = value;
    } else if (flag == "--work-dir") {
      params.work_dir = value;
    } else if (!ParseInt(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      params.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      params.seconds = static_cast<double>(number);
      have_seconds = number >= 1;
    } else if (flag == "--trace") {
      params.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (params.workload.empty() || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds (>= 1) are required");
  }
  // Library progress logs would interleave with the result; keep warnings.
  lan::SetLogLevel(lan::LogLevel::kWarning);

  lan::Result<lanbench::RunReport> report = lanbench::RunWorkload(params);
  if (!report.ok()) {
    std::fprintf(stderr, "lanbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : report->notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s\n",
              lanbench::ResultJson(report->failed == 0, report->attempted,
                                   report->failed, report->metrics)
                  .c_str());
  return 0;
}
