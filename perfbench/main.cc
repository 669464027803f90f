// perfbench: the repository's end-to-end benchmark. Usually started by
// perfbench/run.py, which builds this binary first:
//
//   perfbench --workload raw_attack|paper_attack|serve_read|serve_write
//             --seed N --seconds S --trace 0|1
//             [--work-root DIR] [--smoke] [--corrupt]
//
// The last line of standard output is the JSON result; the line before it
// records the host facts (nproc, library threads, SIMD dispatch, build
// type, seed).

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/harness.h"

namespace {

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-root DIR] [--smoke] "
               "[--corrupt]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its static default. Left dynamic, the
  // first free of a large block raises it, and from then on whether the
  // 50 MB matrices of an op are recycled from the heap or page-faulted
  // afresh depends on allocation history, which split same-code runs into
  // two clusters of op time and peak RSS.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Options options;
  options.work_root = ".bench_build/perfbench-work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (arg == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--work-root") {
      options.work_root = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("not a number: " + arg + " " + value).c_str());
    } else if (arg == "--seed" && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (options.workload.empty() || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  return perfbench::RunBenchmark(options);
}
