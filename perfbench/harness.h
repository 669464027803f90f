// Shared driver for the benchmark's workloads: repeated set-up, the closed
// measurement loop, the traced run, correctness gates and the one-line
// JSON result (see perfbench/README.md for the contract and the reasons
// behind each rule).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/span_trace.h"
#include "util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Small inputs, for the benchmark's own smoke test.
  bool smoke = false;
  /// Corrupts one answer before the gates, which must then fail.
  bool corrupt = false;
  /// Parent of the run's private scratch directory (inside the checkout).
  std::string work_root;
  /// The run's private scratch directory (created and removed per run).
  std::string work_dir;
  /// Library thread count for every measured op.
  std::size_t threads = 4;
};

/// Inputs made from the seed, the system built from them, and the op the
/// benchmark times. A fresh object is built for every set-up repetition.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed op: input generation, index
  /// build and warm-up. All of it counts in setup_s.
  virtual neuroprint::Status Setup(SpanRecorder& spans) = 0;

  /// One timed op. Each library call gets a span under op id `op`; the
  /// caller opens the op's root span. A non-OK status is a failed op.
  virtual neuroprint::Status Op(std::int64_t op, SpanRecorder& spans) = 0;

  /// Correctness gates, run after the measured phase. Returns the run's
  /// top-1 accuracy, or an error naming the first gate that failed.
  virtual neuroprint::Result<double> Verify(SpanRecorder& spans) = 0;

  /// Damages one answer the gates check (negative smoke case).
  virtual void CorruptAnswer() = 0;

  /// Traced run only: single-layer calls timed outside the ops, so an op
  /// that hides a layer inside one library call still gets that layer's
  /// time (spans with op id kNoOp).
  virtual neuroprint::Status ProbeLayers(SpanRecorder& spans) {
    (void)spans;
    return neuroprint::Status::OK();
  }

  /// Traced run only: this workload's per-layer metrics by name (units
  /// are fixed per name by the harness), from the spans of the traced ops
  /// (`ops`) and of set-up and probes (`outside`).
  virtual void LayerMetrics(const std::map<std::int64_t, OpFold>& ops,
                            const std::map<std::string, double>& outside,
                            std::map<std::string, double>* out) = 0;
};

std::unique_ptr<Workload> MakeRawAttack(const Options& options);
std::unique_ptr<Workload> MakePaperAttack(const Options& options);
std::unique_ptr<Workload> MakeServeRead(const Options& options);
std::unique_ptr<Workload> MakeServeWrite(const Options& options);

/// Runs one workload per the options and prints the result; returns the
/// process exit code.
int RunBenchmark(const Options& options);

/// Linear-interpolated quantile (q in [0, 1]); values must be non-empty.
double Quantile(std::vector<double> values, double q);

/// Seed-derived 64-bit stream: distinct `salt`s give unrelated seeds.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

/// Milliseconds since `start` on the steady clock.
double MillisSince(double start_ms);
double NowMs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
