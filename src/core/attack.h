// The end-to-end de-anonymization attack (the paper's Figure 3 workflow):
//
//   1. Fit: compute leverage scores on the de-anonymized group matrix and
//      keep the top-t features (the principal features subspace).
//   2. Identify: restrict both group matrices to those features, correlate
//      every known subject against every anonymous subject, and assign
//      each anonymous scan to the most-correlated known identity.

#ifndef NEUROPRINT_CORE_ATTACK_H_
#define NEUROPRINT_CORE_ATTACK_H_

#include <string>
#include <vector>

#include "connectome/group_matrix.h"
#include "connectome/matrix_store.h"
#include "core/leverage.h"
#include "core/matcher.h"
#include "util/batch.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/trace.h"

namespace neuroprint::core {

struct AttackOptions {
  /// Number of leverage-selected features to keep. The paper reduces the
  /// 64620-feature resting-state matrices to fewer than 100 rows.
  std::size_t num_features = 100;
  /// Feature-selection knobs: exact, deterministic top-t leverage scores
  /// (the paper's Eq. 5), computed from the group matrix's Gram.
  LeverageOptions leverage;
  /// Threads for the subject screens of Fit and Identify and for the
  /// similarity / argmax stages of Identify (captured at Fit time). Never
  /// changes results, only wall-clock time.
  ParallelContext parallel;
  /// Observability: `trace.enabled = true` collects spans and metrics for
  /// this Fit and the resulting attack's Identify calls even when
  /// NEUROPRINT_TRACE is unset (see util/trace.h).
  trace::TraceConfig trace;
  /// How Fit / Identify treat subjects whose feature column is unusable
  /// (non-finite values): fail-fast (default) errors with the
  /// lowest-index subject; skip-and-report / quorum drop them and record
  /// the drops in the BatchReport passed to Fit / Identify (see
  /// util/batch.h). Captured at Fit time for Identify.
  FailurePolicy failure_policy;
  /// Fault injection for this Fit and its Identify calls: a non-empty
  /// schedule replaces the process schedule (see util/fault.h).
  fault::FaultConfig fault;
};

/// Outcome of one identification run.
struct AttackResult {
  linalg::Matrix similarity;  ///< known subjects x anonymous subjects.
  std::vector<std::size_t> predicted_index;  ///< Per anonymous subject.
  std::vector<std::string> predicted_ids;
  /// Fraction of anonymous subjects assigned their true identity
  /// (requires the anonymous group matrix to carry ground-truth ids).
  double accuracy = 0.0;
};

/// A fitted attack: the selected feature set plus the reduced known-group
/// matrix, reusable against any number of target datasets.
class DeanonymizationAttack {
 public:
  /// Fits the attack on the de-anonymized dataset: an adapter that runs
  /// FitStreamed over an InMemoryMatrixStore, which reads `known` in place.
  static Result<DeanonymizationAttack> Fit(
      const connectome::GroupMatrix& known, const AttackOptions& options = {},
      BatchReport* report = nullptr);

  /// Fits the attack on a de-anonymized store. Under a non-fail-fast
  /// failure policy, known subjects with non-finite feature columns are
  /// dropped before leverage scoring and recorded in `report` (may be
  /// null; stage "fit_screen"). A store that is not resident is read in
  /// column windows, so only one window of the cohort is held in RAM;
  /// `stream` bounds that working set and never changes results (the
  /// window determinism contract of connectome/matrix_store.h).
  static Result<DeanonymizationAttack> FitStreamed(
      const connectome::MatrixStore& known, const AttackOptions& options = {},
      const connectome::StreamOptions& stream = {},
      BatchReport* report = nullptr);

  /// Feature rows (into the original feature space) the attack uses.
  const std::vector<std::size_t>& selected_features() const {
    return selected_features_;
  }

  /// Leverage scores the selection was based on (full feature space).
  const linalg::Vector& leverage_scores() const { return leverage_scores_; }

  /// Identifies every subject of `anonymous`: an adapter that runs
  /// IdentifyStreamed over an InMemoryMatrixStore.
  Result<AttackResult> Identify(const connectome::GroupMatrix& anonymous,
                                BatchReport* report = nullptr) const;

  /// Identifies every subject of `anonymous` against the known dataset.
  /// The store must live in the same (full) feature space the attack was
  /// fitted on. Under the fitted non-fail-fast failure policy, anonymous
  /// subjects with non-finite columns are dropped and recorded in
  /// `report` (may be null; stage "identify_screen") — AttackResult then
  /// covers only the survivors, in their original order. Only the
  /// selected feature rows and one column window at a time are held in
  /// RAM; the window never changes a bit of the result.
  Result<AttackResult> IdentifyStreamed(
      const connectome::MatrixStore& anonymous,
      const connectome::StreamOptions& stream = {},
      BatchReport* report = nullptr) const;

 private:
  connectome::GroupMatrix reduced_known_;
  std::vector<std::size_t> selected_features_;
  linalg::Vector leverage_scores_;
  std::size_t full_feature_count_ = 0;
  ParallelContext parallel_;
  trace::TraceConfig trace_;
  FailurePolicy failure_policy_;
  fault::FaultConfig fault_;
};

}  // namespace neuroprint::core

#endif  // NEUROPRINT_CORE_ATTACK_H_
