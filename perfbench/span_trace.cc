#include "perfbench/span_trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "perfbench/harness.h"

namespace perfbench {

using neuroprint::Status;

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Stamp last, so recorder bookkeeping falls outside the span.
  spans_.back().start_ms = NowMs();
  return index;
}

void SpanRecorder::End(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = NowMs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::AddChild(const std::string& name, int parent,
                            double start_ms, double duration_ms) {
  if (!enabled_ || parent < 0) return;
  Span span;
  span.name = name;
  span.start_ms = start_ms;
  span.end_ms = start_ms + duration_ms;
  span.parent = parent;
  span.op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(std::move(span));
}

Status SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f,\"parent\":%d,\"op\":%lld}%s\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                 static_cast<long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::IOError("cannot close " + path);
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double begin = spans[i].start_ms;
    const double end = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const double lo = std::max(kid_begin, cursor);
      const double hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max(0.0, end - begin - covered);
  }
  return self;
}

std::map<std::int64_t, OpFold> FoldOps(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::int64_t, OpFold> ops;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op == kNoOp) continue;
    OpFold& fold = ops[s.op];
    if (s.parent < 0) {
      fold.wall_ms += s.end_ms - s.start_ms;
    } else {
      fold.self_ms[s.name] += self[i];
    }
  }
  return ops;
}

std::map<std::string, double> FoldOutsideOps(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op == kNoOp) out[spans[i].name] += self[i];
  }
  return out;
}

double OutsideMs(const std::map<std::string, double>& outside,
                 const std::string& layer) {
  const auto it = outside.find(layer);
  return it == outside.end() ? 0.0 : it->second;
}

double SpanCoverage(const std::map<std::int64_t, OpFold>& ops) {
  double wall = 0.0;
  double covered = 0.0;
  for (const auto& [op, fold] : ops) {
    wall += fold.wall_ms;
    for (const auto& [layer, ms] : fold.self_ms) covered += ms;
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

double MedianLayerMs(const std::map<std::int64_t, OpFold>& ops,
                     const std::string& layer) {
  std::vector<double> per_op;
  for (const auto& [op, fold] : ops) {
    const auto it = fold.self_ms.find(layer);
    per_op.push_back(it == fold.self_ms.end() ? 0.0 : it->second);
  }
  return per_op.empty() ? 0.0 : Quantile(per_op, 0.5);
}

}  // namespace perfbench
