// The identification service, read and durable-write paths.
//
// serve_read: pruned identification on a static, non-durable 50k x 512
// gallery with bench_service's full-mode settings. One op is an
// IdentifyBatch of 256 seeded session-1 probes; it loads k-means pruning
// and the sharded scan, with no journal.
//
// serve_write: a ~20k-subject durable index (write-ahead journal with
// group commit, default compaction) rebuilt from its data directory
// before taking traffic. One op enrolls 256 subjects and removes the 256
// oldest, so the gallery size never drifts; auto-compaction fires several
// times per run.

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "connectome/group_matrix.h"
#include "perfbench/harness.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using namespace neuroprint;

constexpr std::size_t kBatch = 256;

service::SyntheticGalleryConfig GalleryConfig(const Options& options,
                                              std::size_t subjects,
                                              std::uint64_t seed) {
  service::SyntheticGalleryConfig config;
  config.num_subjects = subjects;
  config.num_features = options.smoke ? 256 : 512;
  config.noise_scale = 0.35;
  // Population structure is what cluster pruning exploits.
  config.num_communities = options.smoke ? 16 : 64;
  config.community_weight = 0.75;
  config.seed = seed;
  return config;
}

// bench_service's full-mode index settings.
service::IndexOptions IndexConfig(std::size_t gallery_size) {
  service::IndexOptions options;
  options.num_features = 100;
  options.num_shards = 8;
  options.clusters_per_shard =
      3 * static_cast<std::size_t>(std::sqrt(
              static_cast<double>(gallery_size / options.num_shards)));
  options.retain_full_columns = false;
  return options;
}

class ServeRead : public Workload {
 public:
  explicit ServeRead(const Options& options)
      : options_(options),
        // bench_service's gallery, the same on every seed; the seed picks
        // the probes. How well k-means prunes depends on the gallery: over
        // galleries drawn per seed the share scanned per probe ranged from
        // 3.7% to 4.7%, which moved op time by a quarter.
        gallery_(GalleryConfig(options, options.smoke ? 2000 : 50000,
                               0xbe9c5e71ceULL)) {}

  Status Setup(SpanRecorder& spans) override {
    constexpr std::size_t kReference = 256;
    constexpr std::size_t kSlice = 5000;
    // Every batch draws the same number of probes from each community
    // (subject j belongs to community j % num_communities), so batches
    // differ in which subjects they probe but not in how hard they are to
    // prune.
    Rng rng(DeriveSeed(options_.seed, 7));
    const std::size_t communities = gallery_.num_communities;
    for (std::size_t b = 0; b < kProbeBatches; ++b) {
      std::vector<linalg::Vector> columns;
      std::vector<std::string> ids;
      for (std::size_t p = 0; p < kBatch; ++p) {
        const std::size_t subject =
            p % communities +
            communities * rng.UniformInt(gallery_.num_subjects / communities);
        Result<connectome::GroupMatrix> one = service::MakeSyntheticGallerySlice(
            gallery_, 1, subject, subject + 1);
        if (!one.ok()) return one.status();
        columns.push_back(one->SubjectColumn(0));
        ids.push_back(one->subject_ids()[0]);
      }
      Result<connectome::GroupMatrix> batch =
          connectome::GroupMatrix::FromFeatureColumns(columns, std::move(ids));
      if (!batch.ok()) return batch.status();
      probes_.push_back(std::move(batch).value());
    }
    answers_.assign(kProbeBatches, {});
    accuracy_.assign(kProbeBatches, 0.0);

    {
      ScopedSpan span(spans, "service.enroll", kNoOp);
      Result<connectome::GroupMatrix> reference =
          service::MakeSyntheticGallerySlice(gallery_, 0, 0, kReference);
      if (!reference.ok()) return reference.status();
      Result<service::IdentificationIndex> index =
          service::IdentificationIndex::Create(
              *reference, IndexConfig(gallery_.num_subjects));
      if (!index.ok()) return index.status();
      index_ = std::make_unique<service::IdentificationIndex>(
          std::move(index).value());
      for (std::size_t begin = kReference; begin < gallery_.num_subjects;
           begin += kSlice) {
        const std::size_t end =
            std::min(begin + kSlice, gallery_.num_subjects);
        Result<connectome::GroupMatrix> slice =
            service::MakeSyntheticGallerySlice(gallery_, 0, begin, end);
        if (!slice.ok()) return slice.status();
        NP_RETURN_IF_ERROR(index_->EnrollBatch(*slice));
      }
    }
    // Warm-up: the first batch builds every shard's clusters.
    ScopedSpan span(spans, "service.cluster_build", kNoOp);
    return Identify(0);
  }

  Status Op(std::int64_t op, SpanRecorder& spans) override {
    ScopedSpan span(spans, "service.identify_batch", op);
    return Identify(static_cast<std::size_t>(op) % kProbeBatches);
  }

  Result<double> Verify(SpanRecorder& spans) override {
    if (!unstable_.empty()) return Status::Internal(unstable_);
    double accuracy = 0.0;
    for (std::size_t b = 0; b < kProbeBatches; ++b) {
      if (answers_[b].empty()) NP_RETURN_IF_ERROR(Identify(b));
      accuracy += accuracy_[b] / static_cast<double>(kProbeBatches);
    }
    // Pruned top-1 must equal the exact linear scan for every probe.
    const std::size_t b = options_.seed % kProbeBatches;
    if (corrupt_) answers_[b][0] = answers_[b][1];
    Result<service::BatchIdentifyResult> brute = Status::Internal("unrun");
    {
      ScopedSpan span(spans, "service.brute_force", kNoOp);
      brute = index_->IdentifyBatchBruteForce(probes_[b]);
    }
    if (!brute.ok()) return brute.status();
    if (brute->matches.size() != answers_[b].size()) {
      return Status::Internal("brute force dropped probes");
    }
    for (std::size_t p = 0; p < answers_[b].size(); ++p) {
      if (brute->matches[p].subject_id != answers_[b][p]) {
        return Status::Internal(StrFormat(
            "probe %zu of batch %zu: pruned top-1 %s, brute force %s", p, b,
            answers_[b][p].c_str(), brute->matches[p].subject_id.c_str()));
      }
    }
    return accuracy;
  }

  // Changes the pruned answer of the batch the brute-force gate checks.
  void CorruptAnswer() override { corrupt_ = true; }

  void LayerMetrics(const std::map<std::int64_t, OpFold>& ops,
                    const std::map<std::string, double>& outside,
                    std::map<std::string, double>* out) override {
    (void)ops;
    const double probes = static_cast<double>(probes_seen_);
    (*out)["service.scanned_frac"] =
        scanned_ / probes / static_cast<double>(index_->size());
    (*out)["service.rescored_frac"] = static_cast<double>(low_margin_) / probes;
    for (const char* layer : {"service.brute_force", "service.enroll",
                              "service.cluster_build"}) {
      (*out)[std::string(layer) + "_ms"] = OutsideMs(outside, layer);
    }
  }

 private:
  // Probes whose margin falls below exact_rescore_margin (about one in
  // 700) are rescored against the whole gallery, adding a sixth to their
  // batch; over 32 batches the median op is not moved by where they fall.
  static constexpr std::size_t kProbeBatches = 32;

  Status Identify(std::size_t b) {
    Result<service::BatchIdentifyResult> result =
        index_->IdentifyBatch(probes_[b]);
    if (!result.ok()) return result.status();
    std::vector<std::string> answer;
    answer.reserve(result->matches.size());
    const double rescore_margin = IndexConfig(0).exact_rescore_margin;
    for (const service::IdentifyMatch& match : result->matches) {
      answer.push_back(match.subject_id);
      scanned_ += static_cast<double>(match.candidates_scanned);
      if (match.margin < rescore_margin) ++low_margin_;
    }
    probes_seen_ += result->matches.size();
    if (!answers_[b].empty() && answers_[b] != answer && unstable_.empty()) {
      unstable_ = StrFormat("batch %zu answered differently when repeated", b);
    }
    answers_[b] = std::move(answer);
    accuracy_[b] = result->accuracy;
    return Status::OK();
  }

  Options options_;
  service::SyntheticGalleryConfig gallery_;
  std::unique_ptr<service::IdentificationIndex> index_;
  std::vector<connectome::GroupMatrix> probes_;
  std::vector<std::vector<std::string>> answers_;  ///< Latest top-1 ids.
  std::vector<double> accuracy_;
  std::string unstable_;
  double scanned_ = 0.0;
  std::size_t low_margin_ = 0;
  std::size_t probes_seen_ = 0;
  bool corrupt_ = false;
};

class ServeWrite : public Workload {
 public:
  explicit ServeWrite(const Options& options)
      : options_(options),
        gallery_batches_(options.smoke ? 8 : 78),
        pool_(GalleryConfig(options,
                            (gallery_batches_ + kSpareBatches) * kBatch,
                            DeriveSeed(options.seed, 6))) {
  }

  Status Setup(SpanRecorder& spans) override {
    // Every subject the run will ever enroll, in batches of 256.
    for (std::size_t b = 0; b < gallery_batches_ + kSpareBatches; ++b) {
      Result<connectome::GroupMatrix> batch =
          service::MakeSyntheticGallerySlice(pool_, 0, b * kBatch,
                                             (b + 1) * kBatch);
      if (!batch.ok()) return batch.status();
      batches_.push_back(std::move(batch).value());
    }
    durability_.data_dir = options_.work_dir + "/index";
    // Group commit: an fsync every 256 journal records, about one per op
    // (an op appends 257). With an fsync per record an op is 257 device
    // flushes and its time is the disk's flush latency, which on a shared
    // virtual disk moved from 80 to 160 us within minutes.
    durability_.sync_every = 256;
    {
      ScopedSpan span(spans, "service.enroll", kNoOp);
      Result<service::IdentificationIndex> index =
          service::IdentificationIndex::CreateDurable(batches_[0], durability_,
                                                      IndexOptions());
      if (!index.ok()) return index.status();
      for (std::size_t b = 1; b < gallery_batches_; ++b) {
        NP_RETURN_IF_ERROR(index->EnrollBatch(batches_[b]));
      }
    }
    // Restart before taking traffic: the served index is the recovered one.
    {
      ScopedSpan span(spans, "durability.replay", kNoOp);
      Result<service::IdentificationIndex> index =
          service::IdentificationIndex::OpenDurable(durability_,
                                                    IndexOptions());
      if (!index.ok()) return index.status();
      index_ = std::make_unique<service::IdentificationIndex>(
          std::move(index).value());
    }
    if (index_->size() != gallery_batches_ * kBatch) {
      return Status::Internal("recovered gallery has the wrong size");
    }
    // Warm-up: one untimed op.
    return Op(kNoOp, spans);
  }

  Status Op(std::int64_t op, SpanRecorder& spans) override {
    const std::size_t ring = gallery_batches_ + kSpareBatches;
    const std::size_t oldest = next_ % ring;
    const std::size_t fresh = (next_ + gallery_batches_) % ring;
    ++next_;
    const double start = NowMs();
    bool compacted = false;
    {
      ScopedSpan span(spans, "service.enroll_batch", op);
      const std::uint64_t before = index_->journal_size_bytes();
      NP_RETURN_IF_ERROR(index_->EnrollBatch(batches_[fresh]));
      const std::uint64_t after = index_->journal_size_bytes();
      if (after < before) {
        compacted = true;
      } else {
        journal_bytes_per_subject_ = static_cast<double>(after - before) /
                                     static_cast<double>(kBatch);
      }
    }
    {
      ScopedSpan span(spans, "service.remove", op);
      for (const std::string& id : batches_[oldest].subject_ids()) {
        const std::uint64_t before = index_->journal_size_bytes();
        NP_RETURN_IF_ERROR(index_->Remove(id));
        if (index_->journal_size_bytes() < before) compacted = true;
      }
    }
    // Timed here rather than from spans: with traced and untraced ops
    // alternating, a compaction period of an even number of ops would
    // land every compaction on the same kind of op.
    if (compacted && op != kNoOp) compaction_ms_.push_back(MillisSince(start));
    return Status::OK();
  }

  Result<double> Verify(SpanRecorder& spans) override {
    (void)spans;
    if (index_->size() != gallery_batches_ * kBatch) {
      return Status::Internal("gallery size drifted");
    }
    // Accuracy: session-1 probes of the newest enrolled batch.
    const std::size_t newest =
        (next_ + gallery_batches_ - 1) % (gallery_batches_ + kSpareBatches);
    Result<connectome::GroupMatrix> probes = service::MakeSyntheticGallerySlice(
        pool_, 1, newest * kBatch, (newest + 1) * kBatch);
    if (!probes.ok()) return probes.status();
    Result<service::BatchIdentifyResult> result =
        index_->IdentifyBatch(*probes);
    if (!result.ok()) return result.status();

    // A restart must recover exactly the live state.
    std::string live = index_->DebugStateString();
    if (corrupt_) live[live.size() / 2] ^= 1;
    index_.reset();
    Result<service::IdentificationIndex> reopened =
        service::IdentificationIndex::OpenDurable(durability_, IndexOptions());
    if (!reopened.ok()) return reopened.status();
    if (reopened->DebugStateString() != live) {
      return Status::Internal("reopened index differs from the live index");
    }
    return result->accuracy;
  }

  // Damages the live state the restart gate compares against.
  void CorruptAnswer() override { corrupt_ = true; }

  void LayerMetrics(const std::map<std::int64_t, OpFold>& ops,
                    const std::map<std::string, double>& outside,
                    std::map<std::string, double>* out) override {
    (*out)["service.enroll_batch_ms"] =
        MedianLayerMs(ops, "service.enroll_batch");
    (*out)["service.remove_ms"] = MedianLayerMs(ops, "service.remove");
    (*out)["durability.journal_bytes_per_subject"] =
        journal_bytes_per_subject_;
    (*out)["durability.compactions"] =
        static_cast<double>(compaction_ms_.size());
    (*out)["durability.compaction_op_ms"] =
        compaction_ms_.empty() ? 0.0 : Quantile(compaction_ms_, 0.5);
    (*out)["durability.replay_ms"] = OutsideMs(outside, "durability.replay");
  }

 private:
  // Batches beyond the gallery, so an enrolled batch was removed at least
  // this many ops earlier.
  static constexpr std::size_t kSpareBatches = 8;

  service::IndexOptions IndexOptions() const {
    return IndexConfig(gallery_batches_ * kBatch);
  }

  Options options_;
  std::size_t gallery_batches_;
  service::SyntheticGalleryConfig pool_;
  std::vector<connectome::GroupMatrix> batches_;
  service::DurabilityOptions durability_;
  std::unique_ptr<service::IdentificationIndex> index_;
  std::size_t next_ = 0;  ///< Ops applied, warm-up included.
  double journal_bytes_per_subject_ = 0.0;
  std::vector<double> compaction_ms_;  ///< Ops that compacted, warm-up aside.
  bool corrupt_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeServeRead(const Options& options) {
  return std::make_unique<ServeRead>(options);
}

std::unique_ptr<Workload> MakeServeWrite(const Options& options) {
  return std::make_unique<ServeWrite>(options);
}

}  // namespace perfbench
