// The benchmark's own span recorder. Spans are taken around each public
// library call the benchmark makes (never inside the library), kept in
// memory, folded into per-layer self time, and written out at exit.
//
// A span's self time is its duration minus the part of that interval its
// child spans cover. Each timed op has one root span named "op"; every
// other span inside it is a layer call, so the share of op wall time the
// layer spans cover (span coverage) says whether a call went unrecorded.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Op id of spans recorded outside any timed op (set-up, probes, checks).
inline constexpr std::int64_t kNoOp = -1;

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< Since the recorder was created.
  double end_ms = 0.0;
  int parent = -1;  ///< Index into the span list; -1 for a root span.
  std::int64_t op = kNoOp;
};

/// Single-threaded span recorder. When disabled every call is a no-op, so
/// the untraced measurement pays nothing but a branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index (-1
  /// when disabled).
  int Begin(const std::string& name, std::int64_t op);
  void End(int index);

  /// Records an already-finished child of the open span `parent`: used
  /// for durations the library reports itself (RunPipeline's
  /// stage_seconds), laid end to end from `start_ms`.
  void AddChild(const std::string& name, int parent, double start_ms,
                double duration_ms);

  double NowMs() const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a JSON array.
  neuroprint::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             std::int64_t op)
      : recorder_(recorder), index_(recorder.Begin(name, op)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of every span (duration minus the union of its children's
/// intervals), indexed like the span list.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Per-op fold: for each op id, layer name -> summed self time (ms).
struct OpFold {
  double wall_ms = 0.0;  ///< Duration of the op's root span.
  std::map<std::string, double> self_ms;  ///< Excludes the root span.
};
std::map<std::int64_t, OpFold> FoldOps(const std::vector<Span>& spans);

/// Summed self time (ms) per span name over spans outside any op.
std::map<std::string, double> FoldOutsideOps(const std::vector<Span>& spans);

/// One layer's entry of FoldOutsideOps (0 if never seen).
double OutsideMs(const std::map<std::string, double>& outside,
                 const std::string& layer);

/// Share of total op wall time covered by layer self time.
double SpanCoverage(const std::map<std::int64_t, OpFold>& ops);

/// Median over ops of one layer's per-op self time (0 if never seen).
double MedianLayerMs(const std::map<std::int64_t, OpFold>& ops,
                     const std::string& layer);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
