// paper_attack: the attack at the paper's S900 shape. Set-up simulates
// 100 HCP-like subjects on 360 regions (64620 x 100 group matrices for
// rest LR, the known release, and rest RL, the anonymous one) and round
// trips both through NPGM files; one op is a leverage-score Fit (100
// features, default Gram path) plus Identify. It loads the core, linalg and
// connectome layers and bypasses voxel preprocessing and the service.

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "connectome/group_matrix.h"
#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "core/leverage.h"
#include "linalg/matrix.h"
#include "perfbench/harness.h"
#include "sim/cohort.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using namespace neuroprint;

// The paper reports near-perfect rest LR -> RL re-identification at this
// shape; a result below this floor means the attack is broken, whatever
// the out-of-core reference says.
constexpr double kMinAccuracy = 0.9;

bool SameBits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class PaperAttack : public Workload {
 public:
  explicit PaperAttack(const Options& options) : options_(options) {
    attack_options_.num_features = 100;
  }

  Status Setup(SpanRecorder& spans) override {
    connectome::GroupMatrix known, anonymous;
    {
      ScopedSpan span(spans, "sim.cohort", kNoOp);
      sim::CohortConfig config =
          sim::HcpLikeConfig(DeriveSeed(options_.seed, 4));
      config.num_subjects = options_.smoke ? 12 : 100;
      config.num_regions = options_.smoke ? 60 : 360;
      if (options_.smoke) config.frames_override = 200;
      Result<sim::CohortSimulator> cohort =
          sim::CohortSimulator::Create(config);
      if (!cohort.ok()) return cohort.status();
      NP_ASSIGN_OR_RETURN(known, cohort->BuildGroupMatrix(
                                     sim::TaskType::kRest,
                                     sim::Encoding::kLeftRight));
      NP_ASSIGN_OR_RETURN(anonymous, cohort->BuildGroupMatrix(
                                         sim::TaskType::kRest,
                                         sim::Encoding::kRightLeft));
    }

    std::error_code error;
    std::filesystem::create_directories(options_.work_dir, error);
    if (error) return Status::IOError("cannot create " + options_.work_dir);
    known_path_ = options_.work_dir + "/rest_lr.npgm";
    anonymous_path_ = options_.work_dir + "/rest_rl.npgm";
    {
      ScopedSpan span(spans, "connectome.npgm_write", kNoOp);
      NP_RETURN_IF_ERROR(connectome::WriteGroupMatrix(known_path_, known));
      NP_RETURN_IF_ERROR(
          connectome::WriteGroupMatrix(anonymous_path_, anonymous));
    }
    {
      ScopedSpan span(spans, "connectome.npgm_read", kNoOp);
      NP_ASSIGN_OR_RETURN(known_, connectome::ReadGroupMatrix(known_path_));
      NP_ASSIGN_OR_RETURN(anonymous_,
                          connectome::ReadGroupMatrix(anonymous_path_));
    }
    round_trip_exact_ = SameBits(known.data(), known_.data()) &&
                        SameBits(anonymous.data(), anonymous_.data()) &&
                        known.subject_ids() == known_.subject_ids() &&
                        anonymous.subject_ids() == anonymous_.subject_ids();

    // Warm-up: one untimed fit + identify, whose answer every op repeats.
    return Op(kNoOp, spans);
  }

  Status Op(std::int64_t op, SpanRecorder& spans) override {
    Result<core::DeanonymizationAttack> attack = Status::Internal("unfit");
    {
      ScopedSpan span(spans, "core.fit", op);
      attack = core::DeanonymizationAttack::Fit(known_, attack_options_);
    }
    if (!attack.ok()) return attack.status();
    Result<core::AttackResult> result = Status::Internal("unidentified");
    {
      ScopedSpan span(spans, "core.identify", op);
      result = attack->Identify(anonymous_);
    }
    if (!result.ok()) return result.status();
    if (predicted_.empty()) {
      predicted_ = result->predicted_ids;
      accuracy_ = result->accuracy;
    } else if (result->predicted_ids != predicted_ && unstable_op_ < 0) {
      unstable_op_ = op;
    }
    return Status::OK();
  }

  Result<double> Verify(SpanRecorder& spans) override {
    if (!round_trip_exact_) {
      return Status::Internal("NPGM round trip changed the group matrices");
    }
    if (unstable_op_ >= 0) {
      return Status::Internal(
          StrFormat("op %lld answered differently from the warm-up",
                    static_cast<long long>(unstable_op_)));
    }
    // Reference: the out-of-core twin over the NPGM files, which must
    // match the in-RAM answer bit for bit.
    ScopedSpan span(spans, "core.reference_streamed", kNoOp);
    Result<std::unique_ptr<connectome::FileMatrixStore>> known_store =
        connectome::FileMatrixStore::Open(known_path_);
    if (!known_store.ok()) return known_store.status();
    Result<std::unique_ptr<connectome::FileMatrixStore>> anonymous_store =
        connectome::FileMatrixStore::Open(anonymous_path_);
    if (!anonymous_store.ok()) return anonymous_store.status();
    Result<core::DeanonymizationAttack> attack =
        core::DeanonymizationAttack::FitStreamed(**known_store,
                                                 attack_options_);
    if (!attack.ok()) return attack.status();
    Result<core::AttackResult> reference =
        attack->IdentifyStreamed(**anonymous_store);
    if (!reference.ok()) return reference.status();
    if (reference->predicted_ids != predicted_ ||
        reference->accuracy != accuracy_) {
      return Status::Internal(StrFormat(
          "in-RAM answer (accuracy %.4f) differs from the out-of-core "
          "reference (accuracy %.4f)",
          accuracy_, reference->accuracy));
    }
    if (accuracy_ < kMinAccuracy) {
      return Status::Internal(StrFormat("top-1 accuracy %.4f below %.2f",
                                        accuracy_, kMinAccuracy));
    }
    return accuracy_;
  }

  // Reassigns the first anonymous subject to another identity.
  void CorruptAnswer() override {
    predicted_[0] = predicted_[1];
  }

  Status ProbeLayers(SpanRecorder& spans) override {
    // Fit hides these two inside one call; time them on the known matrix
    // alone so Fit's self time splits into Gram, leverage and the rest.
    {
      ScopedSpan span(spans, "linalg.gram", kNoOp);
      const linalg::Matrix gram = linalg::Gram(known_.data());
      if (gram.rows() != known_.num_subjects()) {
        return Status::Internal("Gram has the wrong shape");
      }
    }
    ScopedSpan span(spans, "core.leverage", kNoOp);
    return core::ComputeLeverageScores(known_.data()).status();
  }

  void LayerMetrics(const std::map<std::int64_t, OpFold>& ops,
                    const std::map<std::string, double>& outside,
                    std::map<std::string, double>* out) override {
    const double m = static_cast<double>(known_.num_features());
    const double n = static_cast<double>(known_.num_subjects());
    (*out)["linalg.gram_ms"] = OutsideMs(outside, "linalg.gram");
    // Computed from the shape (2mn^2 for the full product), not counted.
    (*out)["linalg.gram_gflop"] = 2.0 * m * n * n / 1e9;
    (*out)["core.leverage_ms"] = OutsideMs(outside, "core.leverage");
    (*out)["core.fit_ms"] = MedianLayerMs(ops, "core.fit");
    (*out)["core.identify_ms"] = MedianLayerMs(ops, "core.identify");
    for (const char* layer :
         {"sim.cohort", "connectome.npgm_write", "connectome.npgm_read"}) {
      (*out)[std::string(layer) + "_ms"] = OutsideMs(outside, layer);
    }
  }

 private:
  Options options_;
  core::AttackOptions attack_options_;
  std::string known_path_, anonymous_path_;
  connectome::GroupMatrix known_, anonymous_;  ///< As read back from NPGM.
  bool round_trip_exact_ = false;
  std::vector<std::string> predicted_;  ///< The warm-up's answer.
  double accuracy_ = 0.0;
  std::int64_t unstable_op_ = -1;
};

}  // namespace

std::unique_ptr<Workload> MakePaperAttack(const Options& options) {
  return std::make_unique<PaperAttack>(options);
}

}  // namespace perfbench
