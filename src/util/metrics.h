// Process-wide metrics registry: named counters, gauges, and histograms
// collected from the attack pipeline's hot paths (gemm FLOPs, leverage
// rank, connectome sizes, per-stage wall time, thread-pool steal/idle
// counts).
//
// Collection shares the runtime toggle with util/trace.h: the free
// helpers Count/SetGauge/Observe are no-ops unless trace::Enabled(), so
// instrumentation can stay in hot paths permanently at the cost of one
// relaxed atomic load when disabled.
//
// Determinism contract: every metric carries a Stability tag.
//  - kSemantic: a fact about the computation (FLOPs, iteration counts,
//    matrix sizes, paths taken). Must be bitwise-identical across thread
//    counts — the parallel-invariance tests enforce this. To keep that
//    guarantee, semantic metrics updated from inside parallel regions
//    must be integer counters (integer addition commutes exactly);
//    gauges are fine only when set from serial context.
//  - kTiming: wall-clock observations (histograms of stage seconds).
//    Inherently run-dependent; excluded from invariance checks.
//  - kScheduler: facts about how the work-stealing pool happened to
//    schedule this run (steals, idle scans, chunk counts). Explicitly
//    nondeterministic across thread counts and runs; excluded from
//    invariance checks.

#ifndef NEUROPRINT_UTIL_METRICS_H_
#define NEUROPRINT_UTIL_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace neuroprint::metrics {

/// Determinism classification of a metric; see the file comment.
enum class Stability {
  kSemantic = 0,
  kTiming = 1,
  kScheduler = 2,
};

/// "semantic" / "timing" / "scheduler".
const char* StabilityName(Stability stability);

/// A monotonically accumulated integer counter.
struct CounterValue {
  std::string name;
  Stability stability = Stability::kSemantic;
  std::uint64_t value = 0;
};

/// A last-write-wins scalar.
struct GaugeValue {
  std::string name;
  Stability stability = Stability::kSemantic;
  double value = 0.0;
};

/// Summary statistics over observed samples (no buckets; count/sum/
/// min/max are enough for stage-time reporting).
struct HistogramValue {
  std::string name;
  Stability stability = Stability::kTiming;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// A point-in-time copy of the registry, each section sorted by name.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// This snapshot restricted to kSemantic entries — the set the
  /// invariance tests compare bitwise across thread counts.
  Snapshot SemanticOnly() const;

  /// JSON array of metric objects: {"name", "kind", "stability",
  /// "value"} for counters/gauges, {"name", "kind", "stability",
  /// "count", "sum", "min", "max"} for histograms.
  std::string ToJson() const;

  /// CSV with header name,kind,stability,value,count,sum,min,max
  /// (unused cells empty).
  std::string ToCsv() const;
};

/// Thread-safe registry of named metrics. Normal code uses the free
/// helpers below (which hit the Global() instance and respect the trace
/// toggle); tests may construct private registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry that the free helpers write to.
  static Registry& Global();

  /// Adds `delta` to counter `name`, registering it on first use. The
  /// first registration's stability tag wins.
  void Add(std::string_view name, std::uint64_t delta,
           Stability stability = Stability::kSemantic);

  /// Sets gauge `name` to `value` (last write wins).
  void Set(std::string_view name, double value,
           Stability stability = Stability::kSemantic);

  /// Records one sample into histogram `name`.
  void Observe(std::string_view name, double value,
               Stability stability = Stability::kTiming);

  Snapshot TakeSnapshot() const;

  /// Removes every metric (used between test cases / bench phases).
  void Reset();

 private:
  struct CounterCell {
    Stability stability = Stability::kSemantic;
    std::uint64_t value = 0;
  };
  struct GaugeCell {
    Stability stability = Stability::kSemantic;
    double value = 0.0;
  };
  struct HistogramCell {
    Stability stability = Stability::kTiming;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  mutable std::mutex mu_;
  std::map<std::string, CounterCell, std::less<>> counters_;
  std::map<std::string, GaugeCell, std::less<>> gauges_;
  std::map<std::string, HistogramCell, std::less<>> histograms_;
};

/// Adds `delta` to the global counter `name`; no-op unless
/// trace::Enabled(). Safe from any thread.
void Count(std::string_view name, std::uint64_t delta,
           Stability stability = Stability::kSemantic);

/// Sets the global gauge `name`; no-op unless trace::Enabled(). Call
/// from serial context only when tagged kSemantic (see file comment).
void SetGauge(std::string_view name, double value,
              Stability stability = Stability::kSemantic);

/// Records a sample into the global histogram `name`; no-op unless
/// trace::Enabled().
void Observe(std::string_view name, double value,
             Stability stability = Stability::kTiming);

/// Writes Global().TakeSnapshot().ToJson() to `path`, overwriting.
Status WriteJson(const std::string& path);

}  // namespace neuroprint::metrics

#endif  // NEUROPRINT_UTIL_METRICS_H_
