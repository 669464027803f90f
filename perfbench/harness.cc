#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "linalg/simd/simd.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using neuroprint::Result;
using neuroprint::Status;

namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// The traced run fails when layer spans cover less of the op wall time.
constexpr double kMinSpanCoverage = 0.95;

// Every per-layer metric the traced run reports, in BENCHMARK.json order.
// A workload that does not touch a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const auto* catalog =
      new std::vector<std::pair<std::string, std::string>>{
          {"op_p90_ms", "ms"},
          {"op_samples", "count"},
          {"span_coverage", "fraction"},
          {"trace_overhead", "ratio"},
          {"op_p50_1thread_ms", "ms"},
          {"thread_speedup", "ratio"},
          {"nifti.read_stream_ms", "ms"},
          {"preprocess.slice_timing_ms", "ms"},
          {"preprocess.motion_correction_ms", "ms"},
          {"preprocess.smoothing_ms", "ms"},
          {"preprocess.other_ms", "ms"},
          {"connectome.build_ms", "ms"},
          {"sim.render_ms", "ms"},
          {"nifti.write_gz_ms", "ms"},
          {"linalg.gram_ms", "ms"},
          {"linalg.gram_gflop", "GFLOP"},
          {"core.leverage_ms", "ms"},
          {"core.fit_ms", "ms"},
          {"core.identify_ms", "ms"},
          {"sim.cohort_ms", "ms"},
          {"connectome.npgm_write_ms", "ms"},
          {"connectome.npgm_read_ms", "ms"},
          {"service.scanned_frac", "fraction"},
          {"service.rescored_frac", "fraction"},
          {"service.brute_force_ms", "ms"},
          {"service.enroll_ms", "ms"},
          {"service.cluster_build_ms", "ms"},
          {"service.enroll_batch_ms", "ms"},
          {"service.remove_ms", "ms"},
          {"durability.journal_bytes_per_subject", "bytes"},
          {"durability.compactions", "count"},
          {"durability.compaction_op_ms", "ms"},
          {"durability.replay_ms", "ms"},
      };
  return *catalog;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Phase {
  std::vector<double> latency_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double wall_s = 0.0;
  std::string first_error;
};

// Runs the next op and records it in `phase`. Op ids continue from
// `*next_op`, so spans of different ops never share an id.
void RunOp(Workload& workload, SpanRecorder& spans, std::int64_t* next_op,
           Phase* phase) {
  const std::int64_t op = (*next_op)++;
  const double op_start = NowMs();
  Status status;
  {
    ScopedSpan root(spans, "op", op);
    status = workload.Op(op, spans);
  }
  phase->latency_ms.push_back(MillisSince(op_start));
  ++phase->attempted;
  if (!status.ok()) {
    ++phase->failed;
    if (phase->first_error.empty()) phase->first_error = status.ToString();
  }
}

// Closed loop, one client: the next op starts when the previous returns.
// Runs for `seconds` and at least `min_ops` ops.
Phase RunOps(Workload& workload, SpanRecorder& spans, double seconds,
             std::int64_t min_ops, std::int64_t* next_op) {
  Phase phase;
  const double start = NowMs();
  while (phase.attempted < min_ops || MillisSince(start) < 1e3 * seconds) {
    RunOp(workload, spans, next_op, &phase);
  }
  phase.wall_s = MillisSince(start) / 1e3;
  return phase;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux.
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "raw_attack") return MakeRawAttack(options);
  if (options.workload == "paper_attack") return MakePaperAttack(options);
  if (options.workload == "serve_read") return MakeServeRead(options);
  if (options.workload == "serve_write") return MakeServeWrite(options);
  return nullptr;
}

void PrintHostFacts(const Options& options) {
  namespace simd = neuroprint::linalg::simd;
  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"library_threads\": %zu, \"dispatch_isa\": \"%s\", "
      "\"build_type\": \"%s\", \"trace\": %d, \"smoke\": %d}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      sysconf(_SC_NPROCESSORS_ONLN), options.threads,
      simd::IsaName(simd::ActiveIsa()), PERFBENCH_BUILD_TYPE,
      options.trace ? 1 : 0, options.smoke ? 1 : 0);
}

// The result line: the last line of standard output.
void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 2;
}

int RunUntraced(const Options& options) {
  const int setups = options.smoke ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  SpanRecorder off(false);
  for (int r = 0; r < setups; ++r) {
    workload.reset();  // Free the previous set-up before building the next.
    Options repeat = options;
    repeat.work_dir = options.work_dir + "/setup" + std::to_string(r);
    const double start = NowMs();
    workload = MakeWorkload(repeat);
    Status status = workload->Setup(off);
    if (!status.ok()) return Fail("set-up failed: " + status.ToString());
    setup_s.push_back(MillisSince(start) / 1e3);
  }

  std::int64_t next_op = 0;
  const Phase phase = RunOps(*workload, off, options.seconds, 1, &next_op);
  const double peak_rss_mb = PeakRssMb();
  if (phase.failed > 0) {
    std::fprintf(stderr, "perfbench: %lld failed ops, first: %s\n",
                 static_cast<long long>(phase.failed),
                 phase.first_error.c_str());
  }
  if (options.corrupt) workload->CorruptAnswer();
  const Result<double> accuracy = workload->Verify(off);
  if (!accuracy.ok()) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n",
                 accuracy.status().ToString().c_str());
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"ops_per_s", static_cast<double>(phase.attempted) / phase.wall_s,
       "1/s"},
      {"op_p50_ms", Quantile(phase.latency_ms, 0.5), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"top1_accuracy", accuracy.ok() ? *accuracy : 0.0, "fraction"},
  };
  PrintResult(accuracy.ok(), phase.attempted, phase.failed, metrics);
  return accuracy.ok() ? 0 : 1;
}

int RunTraced(const Options& options) {
  SpanRecorder off(false);
  SpanRecorder traced(true);
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  Status status = workload->Setup(traced);
  if (!status.ok()) return Fail("set-up failed: " + status.ToString());

  // Two thirds of the run alternate untraced ops (the base of
  // trace_overhead) and traced ops, so both see the same host state; the
  // last third runs ops at one library thread (the base of every thread
  // speed-up). Each kind gets at least three ops so a median exists.
  const double third = options.seconds / 3.0;
  std::int64_t next_op = 0;
  Phase untraced, with_spans;
  const double start = NowMs();
  while (with_spans.attempted < 3 || MillisSince(start) < 2e3 * third) {
    RunOp(*workload, off, &next_op, &untraced);
    RunOp(*workload, traced, &next_op, &with_spans);
  }
  neuroprint::SetDefaultThreadCount(1);
  const Phase one_thread = RunOps(*workload, off, third, 3, &next_op);
  neuroprint::SetDefaultThreadCount(options.threads);

  status = workload->ProbeLayers(traced);
  if (!status.ok()) return Fail("layer probe failed: " + status.ToString());
  if (options.corrupt) workload->CorruptAnswer();
  const Result<double> accuracy = workload->Verify(traced);
  if (!accuracy.ok()) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n",
                 accuracy.status().ToString().c_str());
  }

  const std::map<std::int64_t, OpFold> ops = FoldOps(traced.spans());
  const std::map<std::string, double> outside = FoldOutsideOps(traced.spans());
  const double coverage = SpanCoverage(ops);
  const bool covered = coverage >= kMinSpanCoverage;
  if (!covered) {
    std::fprintf(stderr, "perfbench: span coverage %.4f below %.2f\n",
                 coverage, kMinSpanCoverage);
  }
  const double p50 = Quantile(untraced.latency_ms, 0.5);
  const double p50_1t = Quantile(one_thread.latency_ms, 0.5);
  std::map<std::string, double> values = {
      {"op_p90_ms", Quantile(untraced.latency_ms, 0.9)},
      {"op_samples", static_cast<double>(untraced.latency_ms.size())},
      {"span_coverage", coverage},
      {"trace_overhead", Quantile(with_spans.latency_ms, 0.5) / p50},
      {"op_p50_1thread_ms", p50_1t},
      {"thread_speedup", p50_1t / p50},
  };
  workload->LayerMetrics(ops, outside, &values);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerCatalog()) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }

  const std::string trace_path = options.work_root + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  status = traced.WriteJson(trace_path);
  if (!status.ok()) return Fail(status.ToString());
  std::fprintf(stderr, "perfbench: spans written to %s\n",
               trace_path.c_str());

  const std::int64_t attempted =
      untraced.attempted + with_spans.attempted + one_thread.attempted;
  const std::int64_t failed =
      untraced.failed + with_spans.failed + one_thread.failed;
  const bool correct = accuracy.ok() && covered;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MillisSince(double start_ms) { return NowMs() - start_ms; }

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int RunBenchmark(const Options& base) {
  if (MakeWorkload(base) == nullptr) {
    return Fail("unknown workload '" + base.workload + "'");
  }
  neuroprint::SetDefaultThreadCount(base.threads);
  PrintHostFacts(base);

  Options options = base;
  std::error_code error;
  std::filesystem::create_directories(options.work_root, error);
  if (error) return Fail("cannot create " + options.work_root);
  std::string pattern = options.work_root + "/run-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    return Fail("cannot create a scratch directory in " + options.work_root);
  }
  options.work_dir = pattern;
  ScratchDir scratch(options.work_dir);
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
