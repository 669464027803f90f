#include "core/attack.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace neuroprint::core {
namespace {

// Rows per screen chunk (~1.6 MB of a 100-column window). The chunks'
// flags are OR-ed, so the split never shows in the result.
constexpr std::size_t kScreenRowChunk = 2048;

// Screens a store for unusable subjects (any non-finite value in the
// feature column), one column window at a time, and resolves the batch
// against `policy`: fail-fast errors on the lowest-index bad subject,
// skip/quorum record the drops in `report` (stage = `stage`) and return
// the surviving column indices. Windows are row-major, so each is walked
// by rows in parallel chunks that keep one non-finite flag per column;
// the chunks' flags are OR-ed, which no chunk order can change.
Result<std::vector<std::size_t>> ScreenSubjects(
    const connectome::MatrixStore& store, std::size_t window_cols,
    const FailurePolicy& policy, const char* stage,
    const ParallelContext& parallel, BatchReport* report) {
  NP_TRACE_SCOPE("attack.screen");
  BatchReport local_report;
  if (report == nullptr) report = &local_report;
  report->Clear();
  const std::size_t m = store.num_features();
  const std::size_t n = store.num_subjects();
  report->attempted = n;

  const std::size_t w = store.WindowCols(window_cols);
  const std::size_t num_chunks = (m + kScreenRowChunk - 1) / kScreenRowChunk;
  std::vector<std::size_t> survivors;
  survivors.reserve(n);
  linalg::Matrix slab;
  std::vector<std::vector<unsigned char>> chunk_bad(num_chunks);
  for (std::size_t c0 = 0; c0 < n; c0 += w) {
    const std::size_t wc = std::min(w, n - c0);
    const linalg::Matrix* window = nullptr;
    NP_ASSIGN_OR_RETURN(window, store.ViewColumns(c0, wc, &slab));
    ParallelFor(parallel, 0, m, kScreenRowChunk,
                [&](std::size_t lo, std::size_t hi) {
                  std::vector<unsigned char>& bad =
                      chunk_bad[lo / kScreenRowChunk];
                  bad.assign(wc, 0);
                  for (std::size_t i = lo; i < hi; ++i) {
                    const double* row = window->RowPtr(i);
                    for (std::size_t c = 0; c < wc; ++c) {
                      bad[c] |= !std::isfinite(row[c]);
                    }
                  }
                });
    for (std::size_t c = 0; c < wc; ++c) {
      unsigned char bad = 0;
      for (const std::vector<unsigned char>& chunk : chunk_bad) {
        bad |= chunk[c];
      }
      const std::size_t j = c0 + c;
      if (bad == 0) {
        survivors.push_back(j);
        continue;
      }
      BatchItemReport item;
      item.index = j;
      item.id = store.subject_ids()[j];
      item.stage = stage;
      item.status = Status::CorruptData(StrFormat(
          "subject %s has non-finite feature values", item.id.c_str()));
      report->failed.push_back(std::move(item));
    }
  }
  NP_RETURN_IF_ERROR(ResolveBatch(policy, *report));
  if (!report->failed.empty()) {
    metrics::Count("batch.subjects_skipped", report->failed.size());
  }
  return survivors;
}

// Windowed gather of the selected feature rows — the streamed analogue of
// RestrictToFeatures: same values, same subject ids, never more than one
// column window resident.
Result<connectome::GroupMatrix> GatherFeatureRows(
    const connectome::MatrixStore& store, const std::vector<std::size_t>& rows,
    std::size_t window_cols) {
  const std::size_t n = store.num_subjects();
  const std::size_t w = store.WindowCols(window_cols);
  std::vector<linalg::Vector> columns(n);
  linalg::Matrix slab;
  for (std::size_t c0 = 0; c0 < n; c0 += w) {
    const std::size_t wc = std::min(w, n - c0);
    const linalg::Matrix* window = nullptr;
    NP_ASSIGN_OR_RETURN(window, store.ViewColumns(c0, wc, &slab));
    for (std::size_t c = 0; c < wc; ++c) {
      columns[c0 + c].resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        columns[c0 + c][i] = (*window)(rows[i], c);
      }
    }
  }
  return connectome::GroupMatrix::FromFeatureColumns(columns,
                                                     store.subject_ids());
}

}  // namespace

Result<DeanonymizationAttack> DeanonymizationAttack::Fit(
    const connectome::GroupMatrix& known, const AttackOptions& options,
    BatchReport* report) {
  return FitStreamed(connectome::InMemoryMatrixStore(known), options, {},
                     report);
}

Result<DeanonymizationAttack> DeanonymizationAttack::FitStreamed(
    const connectome::MatrixStore& known, const AttackOptions& options,
    const connectome::StreamOptions& stream, BatchReport* report) {
  trace::ScopedEnable trace_enable(options.trace.enabled);
  fault::ScopedSchedule fault_schedule(options.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.fit");
  NP_FAULT_POINT("attack.fit");
  if (options.num_features == 0) {
    return Status::InvalidArgument("AttackOptions: num_features must be > 0");
  }
  if (known.num_subjects() < 2) {
    return Status::InvalidArgument(
        "DeanonymizationAttack: need at least 2 known subjects");
  }
  std::vector<std::size_t> survivors;
  NP_ASSIGN_OR_RETURN(
      survivors,
      ScreenSubjects(known, stream.window_cols, options.failure_policy,
                     "fit_screen", options.parallel, report));
  std::optional<connectome::SubsetColumnsStore> screened_known;
  const connectome::MatrixStore* fit_known = &known;
  if (survivors.size() < known.num_subjects()) {
    if (survivors.size() < 2) {
      return Status::FailedPrecondition(
          "DeanonymizationAttack: fewer than 2 usable known subjects");
    }
    auto subset = connectome::SubsetColumnsStore::Create(known, survivors);
    if (!subset.ok()) return subset.status();
    screened_known = std::move(subset).value();
    fit_known = &*screened_known;
  }
  // The leverage stage inherits the attack-wide thread knob unless its own
  // is set.
  LeverageOptions leverage = options.leverage;
  if (leverage.parallel.num_threads == 0) {
    leverage.parallel = options.parallel;
  }
  auto scores = ComputeLeverageScoresStreamed(*fit_known, leverage, stream);
  if (!scores.ok()) return scores.status();

  DeanonymizationAttack attack;
  attack.leverage_scores_ = std::move(scores).value();
  attack.selected_features_ =
      TopKIndices(attack.leverage_scores_, options.num_features);
  if (attack.selected_features_.size() < 2) {
    return Status::FailedPrecondition(
        "DeanonymizationAttack: fewer than 2 usable features");
  }
  NP_TRACE_SCOPE("attack.fit.restrict");
  auto reduced = GatherFeatureRows(*fit_known, attack.selected_features_,
                                   stream.window_cols);
  if (!reduced.ok()) return reduced.status();
  attack.reduced_known_ = std::move(reduced).value();
  attack.full_feature_count_ = known.num_features();
  attack.parallel_ = options.parallel;
  attack.trace_ = options.trace;
  attack.failure_policy_ = options.failure_policy;
  attack.fault_ = options.fault;
  metrics::Count("attack.fits", 1);
  metrics::SetGauge("attack.selected_features",
                    static_cast<double>(attack.selected_features_.size()));
  return attack;
}

Result<AttackResult> DeanonymizationAttack::Identify(
    const connectome::GroupMatrix& anonymous, BatchReport* report) const {
  return IdentifyStreamed(connectome::InMemoryMatrixStore(anonymous), {},
                          report);
}

Result<AttackResult> DeanonymizationAttack::IdentifyStreamed(
    const connectome::MatrixStore& anonymous,
    const connectome::StreamOptions& stream, BatchReport* report) const {
  trace::ScopedEnable trace_enable(trace_.enabled);
  fault::ScopedSchedule fault_schedule(fault_.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.identify");
  NP_FAULT_POINT("attack.identify");
  if (anonymous.num_subjects() == 0) {
    return Status::InvalidArgument(
        "Identify: anonymous dataset has no subjects");
  }
  if (anonymous.num_features() != full_feature_count_) {
    return Status::InvalidArgument(StrFormat(
        "Identify: anonymous dataset has %zu features, attack was fitted "
        "on %zu — datasets must share a parcellation",
        anonymous.num_features(), full_feature_count_));
  }
  std::vector<std::size_t> survivors;
  NP_ASSIGN_OR_RETURN(
      survivors,
      ScreenSubjects(anonymous, stream.window_cols, failure_policy_,
                     "identify_screen", parallel_, report));
  std::optional<connectome::SubsetColumnsStore> screened;
  const connectome::MatrixStore* target = &anonymous;
  if (survivors.size() < anonymous.num_subjects()) {
    auto subset = connectome::SubsetColumnsStore::Create(anonymous, survivors);
    if (!subset.ok()) return subset.status();
    screened = std::move(subset).value();
    target = &*screened;
  }
  connectome::GroupMatrix reduced_target;
  NP_ASSIGN_OR_RETURN(reduced_target, GatherFeatureRows(*target,
                                                        selected_features_,
                                                        stream.window_cols));
  metrics::Count("attack.identifies", 1);
  metrics::SetGauge("attack.identify_subjects",
                    static_cast<double>(reduced_target.num_subjects()));

  AttackResult result;
  {
    NP_TRACE_SCOPE("attack.identify.similarity");
    auto similarity =
        SimilarityMatrix(reduced_known_, reduced_target, parallel_);
    if (!similarity.ok()) return similarity.status();
    result.similarity = std::move(similarity).value();
  }
  {
    NP_TRACE_SCOPE("attack.identify.argmax");
    result.predicted_index = ArgmaxMatch(result.similarity, parallel_);
  }

  result.predicted_ids.reserve(result.predicted_index.size());
  for (std::size_t idx : result.predicted_index) {
    result.predicted_ids.push_back(reduced_known_.subject_ids()[idx]);
  }
  auto accuracy =
      IdentificationAccuracy(result.predicted_index,
                             reduced_known_.subject_ids(),
                             reduced_target.subject_ids());
  if (!accuracy.ok()) return accuracy.status();
  result.accuracy = *accuracy;
  return result;
}

}  // namespace neuroprint::core
