#include "service/identification_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "linalg/simd/simd.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/spill.h"
#include "util/string_util.h"

namespace neuroprint::service {
namespace {

// Conservative slack on the cluster ball bound: a cluster is pruned only
// when its bound is below best - kPruneSlack, so bound-side rounding can
// never skip a candidate that ties or beats the current best. Similarity
// values are O(1) correlations, so an absolute slack is well-scaled.
constexpr double kPruneSlack = 1e-9;

// True when (sim, id) beats (best_sim, best_id) under the global
// tie-break: higher similarity wins, exact ties go to the
// lexicographically smaller subject id.
bool BeatsBest(double sim, const std::string& id, double best_sim,
               const std::string& best_id) {
  if (sim != best_sim) return sim > best_sim;
  return id < best_id;
}

// Cosine scores go through the SIMD dispatch layer's dot kernel; the
// lane-split reduction is bit-identical across ISAs, so shard scan
// results (and the tie-breaks built on them) never depend on the host.
double DotProduct(const linalg::Vector& a, const linalg::Vector& b) {
  NP_CHECK_EQ(a.size(), b.size());
  return linalg::simd::ActiveOps().dot(a.data(), b.data(), a.size());
}

bool AllFinite(const linalg::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Stages one enroll or probe column: applies the `point` fault keyed by
// `key` (an injected error is returned; NaN / corrupt injections rewrite
// the column) and screens the result for non-finite values. `what` names
// the column in the CorruptData message.
Status StageColumn(const char* point, std::uint64_t key, const char* what,
                   const std::string& id, linalg::Vector* column) {
  if (fault::Enabled()) {
    const fault::Injection injection = fault::Hit(point, key);
    if (injection.action == fault::Action::kError) return injection.status;
    if (injection.action == fault::Action::kNaN) {
      std::fill(column->begin(), column->end(),
                std::numeric_limits<double>::quiet_NaN());
    } else if (injection.action == fault::Action::kCorrupt) {
      fault::ScrambleBytes(injection.seed, column->data(),
                           column->size() * sizeof(double));
    }
  }
  if (!AllFinite(*column)) {
    return Status::CorruptData(StrFormat("%s %s has non-finite feature values",
                                         what, id.c_str()));
  }
  return Status::OK();
}

// Upper bound on dot(q, member) for any member of a cluster whose
// centroid has similarity cq to q and whose angular radius r satisfies
// cos(r) = cos_radius: cos(max(0, angle(q, centroid) - r)), expanded
// algebraically so no inverse trig is needed.
double ClusterBound(double cq, double cos_radius, double sin_radius) {
  if (cq >= cos_radius) return 1.0;  // Probe inside the cluster cone.
  const double sq = std::sqrt(std::max(0.0, 1.0 - cq * cq));
  return cq * cos_radius + sq * sin_radius;
}

}  // namespace

std::uint64_t SubjectHash(const std::string& subject_id) {
  // FNV-1a, 64-bit: a pure byte-stream hash, stable across platforms and
  // processes, so subject -> shard assignment never depends on process
  // state or enrollment order.
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : subject_id) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t IdentificationIndex::ShardOf(const std::string& subject_id) const {
  return static_cast<std::size_t>(SubjectHash(subject_id) %
                                  static_cast<std::uint64_t>(shards_.size()));
}

linalg::Vector IdentificationIndex::MakeFingerprint(
    const linalg::Vector& full_features) const {
  // Mean-centered, unit-normalized restriction to the selected rows:
  // dot(fingerprint_a, fingerprint_b) is exactly the Pearson correlation
  // the brute-force matcher computes over the same feature subset.
  linalg::Vector f(selected_features_.size(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < selected_features_.size(); ++i) {
    f[i] = full_features[selected_features_[i]];
    sum += f[i];
  }
  const double mean = sum / static_cast<double>(f.size());
  double norm_sq = 0.0;
  for (double& x : f) {
    x -= mean;
    norm_sq += x * x;
  }
  const double norm = std::sqrt(norm_sq);
  if (norm > 0.0) {
    for (double& x : f) x /= norm;
  } else {
    // Zero-variance subject: correlation 0 with everything (the
    // linalg::ColumnCrossCorrelation convention) — store the zero vector.
    std::fill(f.begin(), f.end(), 0.0);
  }
  return f;
}

Result<IdentificationIndex> IdentificationIndex::Create(
    const connectome::GroupMatrix& reference, const IndexOptions& options,
    BatchReport* report) {
  trace::ScopedEnable trace_enable(options.trace.enabled);
  fault::ScopedSchedule fault_schedule(options.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.create");
  if (options.num_features == 0) {
    return Status::InvalidArgument("IndexOptions: num_features must be > 0");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("IndexOptions: num_shards must be > 0");
  }
  if (options.kmeans_iterations == 0) {
    return Status::InvalidArgument(
        "IndexOptions: kmeans_iterations must be > 0");
  }
  if (reference.num_subjects() < 2) {
    return Status::InvalidArgument(
        "IdentificationIndex: need at least 2 reference subjects");
  }
  if (reference.num_features() < reference.num_subjects()) {
    return Status::InvalidArgument(StrFormat(
        "IdentificationIndex: reference must be tall (features >= subjects) "
        "for leverage scoring — got %zu x %zu; fit on a reference sample and "
        "EnrollBatch the rest",
        reference.num_features(), reference.num_subjects()));
  }

  IdentificationIndex index;
  index.options_ = options;
  index.full_feature_count_ = reference.num_features();
  index.shards_.resize(options.num_shards);

  // Fit the subspace exactly like DeanonymizationAttack::Fit: leverage
  // scores on the reference gallery, top-t rows kept.
  core::LeverageOptions leverage = options.leverage;
  if (leverage.parallel.num_threads == 0) {
    leverage.parallel = options.parallel;
  }
  linalg::Vector scores;
  {
    NP_TRACE_SCOPE("service.create.leverage");
    NP_ASSIGN_OR_RETURN(scores,
                        core::ComputeLeverageScores(reference.data(), leverage));
  }
  index.selected_features_ = core::TopKIndices(scores, options.num_features);
  if (index.selected_features_.size() < 2) {
    return Status::FailedPrecondition(
        "IdentificationIndex: fewer than 2 usable features");
  }

  // The reference subjects become the initial gallery (same screening and
  // fault points as any later EnrollBatch).
  NP_RETURN_IF_ERROR(index.EnrollColumns(
      connectome::InMemoryMatrixStore(reference), report, 0));
  if (index.size_ < 2) {
    return Status::FailedPrecondition(
        "IdentificationIndex: fewer than 2 usable reference subjects");
  }
  // The subspace was fitted on exactly this gallery: staleness starts at 0.
  index.sketch_staleness_ = 0;
  metrics::SetGauge("service.sketch_staleness", 0.0);
  metrics::Count("service.creates", 1);
  return index;
}

void IdentificationIndex::CommitEnroll(const std::string& subject_id,
                                       linalg::Vector column,
                                       linalg::Vector fingerprint) {
  Shard& shard = shards_[ShardOf(subject_id)];
  const auto pos = std::lower_bound(
      shard.entries.begin(), shard.entries.end(), subject_id,
      [](const Entry& e, const std::string& id) { return e.id < id; });
  Entry entry;
  entry.id = subject_id;
  entry.fingerprint =
      fingerprint.empty() ? MakeFingerprint(column) : std::move(fingerprint);
  if (options_.retain_full_columns) entry.full = std::move(column);
  shard.entries.insert(pos, std::move(entry));
  shard.clusters_dirty = true;
  ++size_;
  NoteMutation();
}

Status IdentificationIndex::Enroll(const std::string& subject_id,
                                   const linalg::Vector& full_features) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.enroll");
  connectome::GroupMatrix subject;
  NP_ASSIGN_OR_RETURN(subject, connectome::GroupMatrix::FromFeatureColumns(
                                   {full_features}, {subject_id}));
  BatchReport report;
  const Status status = EnrollColumns(
      connectome::InMemoryMatrixStore(subject), &report, /*window_cols=*/0);
  // A screened-out subject fails with its own status under every policy.
  if (!report.failed.empty()) return report.failed.front().status;
  NP_RETURN_IF_ERROR(status);
  NP_RETURN_IF_ERROR(MaybeAutoRefresh());
  return MaybeCompact();
}

Status IdentificationIndex::EnrollColumns(
    const connectome::MatrixStore& subjects, BatchReport* report,
    std::size_t window_cols) {
  BatchReport local_report;
  if (report == nullptr) report = &local_report;
  report->Clear();
  const std::size_t n = subjects.num_subjects();
  const std::vector<std::string>& ids = subjects.subject_ids();
  report->attempted = n;
  if (subjects.num_features() != full_feature_count_) {
    return Status::InvalidArgument(StrFormat(
        "EnrollBatch: subjects have %zu features, index holds %zu",
        subjects.num_features(), full_feature_count_));
  }

  // Stage every column first (screening + fault injection, parallel over
  // subjects, disjoint slots), one column window at a time; then resolve
  // the batch and commit the survivors in index order, so fail-fast
  // leaves the index untouched on any error. The full columns the index
  // retains — or must journal, since a write-ahead record carries the
  // full column — stay in RAM when the store is resident; otherwise they
  // spill to disk until the batch resolves, so at most one window of full
  // columns is held. The commit derives fingerprints from them; when no
  // full column is kept, staging keeps the fingerprint instead.
  const bool keep_full = options_.retain_full_columns || journal_ != nullptr;
  std::vector<linalg::Vector> staged_fingerprints(n);
  std::vector<linalg::Vector> staged_full(n);
  std::vector<Status> staged_status(n, Status::OK());
  std::optional<SpillFile> spill;
  std::vector<std::size_t> spill_slot;
  if (keep_full && subjects.resident() == nullptr) {
    auto created = SpillFile::Create();
    if (!created.ok()) return created.status();
    spill.emplace(std::move(created).value());
    spill_slot.assign(n, 0);
  }
  const std::size_t window = subjects.WindowCols(window_cols);
  const std::size_t grain = GrainForWork(full_feature_count_);
  linalg::Matrix slab;
  for (std::size_t c0 = 0; c0 < n; c0 += window) {
    const std::size_t count = std::min(window, n - c0);
    const linalg::Matrix* view = nullptr;
    NP_ASSIGN_OR_RETURN(view, subjects.ViewColumns(c0, count, &slab));
    ParallelFor(options_.parallel, 0, count, grain,
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t c = lo; c < hi; ++c) {
                    const std::size_t j = c0 + c;
                    linalg::Vector column(full_feature_count_);
                    for (std::size_t i = 0; i < full_feature_count_; ++i) {
                      column[i] = (*view)(i, c);
                    }
                    staged_status[j] = StageColumn("service.enroll", j,
                                                   "subject", ids[j], &column);
                    if (!staged_status[j].ok()) continue;
                    if (keep_full) {
                      staged_full[j] = std::move(column);
                    } else {
                      staged_fingerprints[j] = MakeFingerprint(column);
                    }
                  }
                });
    if (spill.has_value()) {
      for (std::size_t j = c0; j < c0 + count; ++j) {
        if (!staged_status[j].ok()) continue;
        spill_slot[j] = spill->num_columns();
        NP_RETURN_IF_ERROR(
            spill->AppendColumn(staged_full[j].data(), staged_full[j].size()));
        staged_full[j] = linalg::Vector();
      }
    }
  }

  // Serial pass: duplicate detection (against the index and within the
  // batch, in batch order) and report assembly.
  std::vector<std::size_t> survivors;
  survivors.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::string& id = ids[j];
    Status status = staged_status[j];
    if (status.ok() && Contains(id)) {
      status = Status::AlreadyExists(
          StrFormat("subject %s already enrolled", id.c_str()));
    }
    if (status.ok()) {
      for (std::size_t k : survivors) {
        if (ids[k] == id) {
          status = Status::AlreadyExists(StrFormat(
              "subject %s duplicated within the batch", id.c_str()));
          break;
        }
      }
    }
    if (status.ok()) {
      survivors.push_back(j);
      continue;
    }
    BatchItemReport item;
    item.index = j;
    item.id = id;
    item.stage = "enroll_screen";
    item.status = std::move(status);
    report->failed.push_back(std::move(item));
  }
  NP_RETURN_IF_ERROR(ResolveBatch(options_.failure_policy, *report));
  if (!report->failed.empty()) {
    metrics::Count("batch.subjects_skipped", report->failed.size());
  }

  // Read the surviving spilled columns back before touching any shard, so
  // a spill failure (file deleted mid-batch, injected `io.spill` fault)
  // propagates with the index bit-unchanged — no rollback needed.
  if (spill.has_value()) {
    for (std::size_t j : survivors) {
      NP_RETURN_IF_ERROR(spill->ReadColumn(spill_slot[j], &staged_full[j]));
    }
  }

  // Write-ahead: one journal record covers the whole surviving batch, so
  // across a crash the batch commits all-or-nothing, exactly like the
  // in-memory commit loop below. The journaled columns are the bytes the
  // commit loop enrolls. A journal error (nothing reached disk) fails the
  // call with the index bit-unchanged.
  if (journal_ != nullptr && !survivors.empty()) {
    std::vector<PendingEnroll> pending(survivors.size());
    for (std::size_t s = 0; s < survivors.size(); ++s) {
      pending[s].id = &ids[survivors[s]];
      pending[s].column = &staged_full[survivors[s]];
    }
    NP_RETURN_IF_ERROR(JournalEnrolls(pending));
  }

  // Commit phase: nothing below can fail.
  for (std::size_t j : survivors) {
    CommitEnroll(ids[j], std::move(staged_full[j]),
                 std::move(staged_fingerprints[j]));
  }
  metrics::Count("service.enrolls", survivors.size());
  metrics::SetGauge("service.gallery_size", static_cast<double>(size_));
  return Status::OK();
}

Status IdentificationIndex::EnrollBatch(const connectome::GroupMatrix& subjects,
                                        BatchReport* report) {
  return EnrollStream(connectome::InMemoryMatrixStore(subjects), report);
}

Status IdentificationIndex::EnrollStream(const connectome::MatrixStore& subjects,
                                         BatchReport* report,
                                         std::size_t window_cols) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.enroll_stream");
  NP_RETURN_IF_ERROR(EnrollColumns(subjects, report, window_cols));
  NP_RETURN_IF_ERROR(MaybeAutoRefresh());
  return MaybeCompact();
}

Status IdentificationIndex::Remove(const std::string& subject_id) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  NP_TRACE_SCOPE("service.remove");
  Shard& shard = shards_[ShardOf(subject_id)];
  const auto pos = std::lower_bound(
      shard.entries.begin(), shard.entries.end(), subject_id,
      [](const Entry& e, const std::string& id) { return e.id < id; });
  if (pos == shard.entries.end() || pos->id != subject_id) {
    return Status::NotFound(
        StrFormat("Remove: subject %s not enrolled", subject_id.c_str()));
  }
  // Write-ahead: the removal is durable before the entry disappears (the
  // journal append does not touch shards, so `pos` stays valid).
  NP_RETURN_IF_ERROR(JournalRemove(subject_id));
  shard.entries.erase(pos);
  shard.clusters_dirty = true;
  --size_;
  NoteMutation();
  metrics::Count("service.removals", 1);
  metrics::SetGauge("service.gallery_size", static_cast<double>(size_));
  NP_RETURN_IF_ERROR(MaybeAutoRefresh());
  return MaybeCompact();
}

bool IdentificationIndex::Contains(const std::string& subject_id) const {
  const Shard& shard = shards_[ShardOf(subject_id)];
  const auto pos = std::lower_bound(
      shard.entries.begin(), shard.entries.end(), subject_id,
      [](const Entry& e, const std::string& id) { return e.id < id; });
  return pos != shard.entries.end() && pos->id == subject_id;
}

std::vector<std::string> IdentificationIndex::EnrolledIds() const {
  std::vector<std::string> ids;
  ids.reserve(size_);
  for (const Shard& shard : shards_) {
    for (const Entry& entry : shard.entries) ids.push_back(entry.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void IdentificationIndex::NoteMutation() {
  ++sketch_staleness_;
  metrics::SetGauge("service.sketch_staleness",
                    static_cast<double>(sketch_staleness_));
}

Status IdentificationIndex::MaybeAutoRefresh() {
  if (options_.refresh_interval == 0) return Status::OK();
  if (sketch_staleness_ < options_.refresh_interval) return Status::OK();
  if (!options_.retain_full_columns || size_ < 2) return Status::OK();
  return RefreshSketch();
}

Status IdentificationIndex::RefreshSketch() {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.refresh");
  NP_FAULT_POINT("service.refresh");
  if (!options_.retain_full_columns) {
    return Status::FailedPrecondition(
        "RefreshSketch: index was built with retain_full_columns = false");
  }
  if (size_ < 2) {
    return Status::FailedPrecondition(
        "RefreshSketch: need at least 2 enrolled subjects");
  }

  // Deterministic refit sample: evenly strided over the canonical
  // (ascending-id) gallery order, clamped so the leverage input stays
  // tall (features >= sampled subjects).
  std::vector<const Entry*> ordered;
  ordered.reserve(size_);
  for (const Shard& shard : shards_) {
    for (const Entry& entry : shard.entries) ordered.push_back(&entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->id < b->id; });
  const std::size_t sample = std::min(
      {options_.refresh_sample == 0 ? size_ : options_.refresh_sample, size_,
       full_feature_count_});
  if (sample < 2) {
    return Status::FailedPrecondition(
        "RefreshSketch: refit sample smaller than 2 subjects");
  }
  linalg::Matrix refit(full_feature_count_, sample);
  for (std::size_t j = 0; j < sample; ++j) {
    const Entry* entry = ordered[(j * size_) / sample];
    for (std::size_t i = 0; i < full_feature_count_; ++i) {
      refit(i, j) = entry->full[i];
    }
  }
  core::LeverageOptions leverage = options_.leverage;
  if (leverage.parallel.num_threads == 0) {
    leverage.parallel = options_.parallel;
  }
  linalg::Vector scores;
  NP_ASSIGN_OR_RETURN(scores, core::ComputeLeverageScores(refit, leverage));
  std::vector<std::size_t> selected =
      core::TopKIndices(scores, options_.num_features);
  if (selected.size() < 2) {
    return Status::FailedPrecondition(
        "RefreshSketch: fewer than 2 usable features");
  }
  selected_features_ = std::move(selected);

  // Re-project every member into the refreshed subspace.
  for (Shard& shard : shards_) {
    const std::size_t n = shard.entries.size();
    ParallelFor(options_.parallel, 0, n, GrainForWork(full_feature_count_),
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t e = lo; e < hi; ++e) {
                    shard.entries[e].fingerprint =
                        MakeFingerprint(shard.entries[e].full);
                  }
                });
    shard.clusters_dirty = true;
  }
  sketch_staleness_ = 0;
  metrics::SetGauge("service.sketch_staleness", 0.0);
  metrics::Count("service.sketch_refreshes", 1);
  // The refitted subspace is snapshot state, not expressible as journal
  // records: checkpoint immediately so a reopened index matches this one.
  // On a checkpoint error the refresh stays committed in memory and the
  // on-disk state still recovers consistently (to the pre-refresh
  // subspace over the same member set).
  if (journal_ != nullptr) return Checkpoint();
  return Status::OK();
}

void IdentificationIndex::RebuildShardClusters(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  shard.clusters.clear();
  shard.clusters_dirty = false;
  const std::size_t n = shard.entries.size();
  if (n == 0) return;
  const std::size_t dim = selected_features_.size();

  std::size_t k = options_.clusters_per_shard;
  if (k == 0) {
    k = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
  }
  k = std::min(k, n);
  if (n < options_.min_cluster_shard_size || k <= 1) {
    // Flat shard: one cluster holding everything, never pruned
    // (cos_radius -1 makes the bound 1 for every probe).
    Cluster flat;
    flat.centroid.assign(dim, 0.0);
    flat.cos_radius = -1.0;
    flat.sin_radius = 0.0;
    flat.members.resize(n);
    for (std::size_t e = 0; e < n; ++e) flat.members[e] = e;
    shard.clusters.push_back(std::move(flat));
    return;
  }

  // Seeded deterministic k-means on the unit fingerprints: one random
  // first center, farthest-point (max-min cosine distance, ties to the
  // lowest index) for the rest, then a fixed number of Lloyd rounds.
  // Everything is a pure function of (sorted member set, seed), which is
  // what makes the enroll/remove round-trip property hold.
  Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(shard_index) + 1)));
  std::vector<std::size_t> centers;
  centers.reserve(k);
  centers.push_back(static_cast<std::size_t>(rng.UniformInt(n)));
  std::vector<double> best_sim(n, -2.0);
  while (centers.size() < k) {
    const linalg::Vector& last = shard.entries[centers.back()].fingerprint;
    for (std::size_t e = 0; e < n; ++e) {
      best_sim[e] = std::max(best_sim[e],
                             DotProduct(shard.entries[e].fingerprint, last));
    }
    std::size_t farthest = 0;
    double farthest_sim = 2.0;
    for (std::size_t e = 0; e < n; ++e) {
      if (best_sim[e] < farthest_sim) {
        farthest_sim = best_sim[e];
        farthest = e;
      }
    }
    centers.push_back(farthest);
  }

  std::vector<linalg::Vector> centroids;
  centroids.reserve(k);
  for (std::size_t c : centers) {
    centroids.push_back(shard.entries[c].fingerprint);
  }
  std::vector<std::size_t> assignment(n, 0);
  for (std::size_t iter = 0; iter < options_.kmeans_iterations; ++iter) {
    // Assignment: nearest centroid by cosine similarity, ties to the
    // lowest cluster index.
    for (std::size_t e = 0; e < n; ++e) {
      double best = -2.0;
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double sim =
            DotProduct(shard.entries[e].fingerprint, centroids[c]);
        if (sim > best) {
          best = sim;
          best_c = c;
        }
      }
      assignment[e] = best_c;
    }
    // Update: normalized mean of the members; empty clusters keep their
    // previous centroid.
    for (std::size_t c = 0; c < k; ++c) {
      linalg::Vector mean(dim, 0.0);
      std::size_t count = 0;
      for (std::size_t e = 0; e < n; ++e) {
        if (assignment[e] != c) continue;
        ++count;
        const linalg::Vector& f = shard.entries[e].fingerprint;
        for (std::size_t d = 0; d < dim; ++d) mean[d] += f[d];
      }
      if (count == 0) continue;
      double norm_sq = 0.0;
      for (double x : mean) norm_sq += x * x;
      const double norm = std::sqrt(norm_sq);
      if (norm > 0.0) {
        for (double& x : mean) x /= norm;
        centroids[c] = std::move(mean);
      }
    }
  }

  shard.clusters.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    shard.clusters[c].centroid = centroids[c];
    shard.clusters[c].members.clear();
  }
  for (std::size_t e = 0; e < n; ++e) {
    shard.clusters[assignment[e]].members.push_back(e);
  }
  // Drop empty clusters (keeping relative order) and compute radii.
  std::size_t out = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (shard.clusters[c].members.empty()) continue;
    if (out != c) shard.clusters[out] = std::move(shard.clusters[c]);
    Cluster& cluster = shard.clusters[out];
    double min_sim = 2.0;
    for (std::size_t e : cluster.members) {
      min_sim = std::min(
          min_sim, DotProduct(shard.entries[e].fingerprint, cluster.centroid));
    }
    cluster.cos_radius = std::clamp(min_sim, -1.0, 1.0);
    cluster.sin_radius =
        std::sqrt(std::max(0.0, 1.0 - cluster.cos_radius * cluster.cos_radius));
    ++out;
  }
  shard.clusters.resize(out);
}

void IdentificationIndex::RebuildDirtyClusters() {
  NP_TRACE_SCOPE("service.rebuild_clusters");
  std::vector<std::size_t> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].clusters_dirty) dirty.push_back(s);
  }
  if (dirty.empty()) return;
  // Shards rebuild independently (disjoint state), one work item each.
  ParallelFor(options_.parallel, 0, dirty.size(), 1,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  RebuildShardClusters(dirty[i]);
                }
              });
  metrics::Count("service.cluster_rebuilds", dirty.size());
}

void IdentificationIndex::ProbeShard(const linalg::Vector& probe_fingerprint,
                                     std::size_t shard_index, bool brute_force,
                                     ShardCandidate* out) const {
  const Shard& shard = shards_[shard_index];
  *out = ShardCandidate{};
  out->shard = shard_index;
  const std::size_t n = shard.entries.size();
  if (n == 0) return;

  double best = 0.0, second = 0.0;
  std::size_t best_entry = 0;
  bool has_best = false, has_second = false;
  std::size_t scanned = 0;
  const auto scan_entry = [&](std::size_t e) {
    const double sim =
        DotProduct(probe_fingerprint, shard.entries[e].fingerprint);
    ++scanned;
    if (!has_best || BeatsBest(sim, shard.entries[e].id, best,
                               shard.entries[best_entry].id)) {
      if (has_best) {
        second = best;
        has_second = true;
      }
      best = sim;
      best_entry = e;
      has_best = true;
    } else if (!has_second || sim > second) {
      second = sim;
      has_second = true;
    }
  };

  if (brute_force || shard.clusters.size() <= 1) {
    for (std::size_t e = 0; e < n; ++e) scan_entry(e);
  } else {
    // Score every centroid, then visit clusters in decreasing bound
    // order; stop as soon as a bound cannot beat the current best (the
    // ordering makes every later bound no larger).
    const std::size_t k = shard.clusters.size();
    std::vector<std::pair<double, std::size_t>> order(k);
    for (std::size_t c = 0; c < k; ++c) {
      const Cluster& cluster = shard.clusters[c];
      const double cq = DotProduct(probe_fingerprint, cluster.centroid);
      order[c] = {ClusterBound(cq, cluster.cos_radius, cluster.sin_radius), c};
    }
    std::sort(order.begin(), order.end(),
              [](const std::pair<double, std::size_t>& a,
                 const std::pair<double, std::size_t>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (const auto& [bound, c] : order) {
      if (has_best && bound < best - kPruneSlack) break;
      for (std::size_t e : shard.clusters[c].members) scan_entry(e);
    }
  }
  out->best_entry = best_entry;
  out->best = best;
  out->second = second;
  out->scanned = scanned;
  out->has_best = has_best;
  out->has_second = has_second;
}

IdentifyMatch IdentificationIndex::MergeShardCandidates(
    const ShardCandidate* candidates, std::size_t count) const {
  // Ascending shard order; the (similarity, id) tie-break makes the
  // outcome independent of shard layout and execution order.
  IdentifyMatch match;
  double best = 0.0, second = 0.0;
  const Entry* best_entry = nullptr;
  bool has_second = false;
  for (std::size_t s = 0; s < count; ++s) {
    const ShardCandidate& c = candidates[s];
    if (!c.has_best) continue;
    match.candidates_scanned += c.scanned;
    const Entry& entry = shards_[c.shard].entries[c.best_entry];
    if (best_entry == nullptr ||
        BeatsBest(c.best, entry.id, best, best_entry->id)) {
      if (best_entry != nullptr) {
        second = std::max(second, best);
        has_second = true;
      }
      best = c.best;
      best_entry = &entry;
    } else if (!has_second || c.best > second) {
      second = c.best;
      has_second = true;
    }
    if (c.has_second && (!has_second || c.second > second)) {
      second = c.second;
      has_second = true;
    }
  }
  if (best_entry != nullptr) {
    match.subject_id = best_entry->id;
    match.similarity = best;
    match.margin = has_second ? best - second : 0.0;
  }
  return match;
}

Result<IdentifyMatch> IdentificationIndex::Identify(
    const linalg::Vector& probe_features) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.identify");
  connectome::GroupMatrix probes;
  NP_ASSIGN_OR_RETURN(probes, connectome::GroupMatrix::FromFeatureColumns(
                                  {probe_features}, {"query"}));
  BatchReport report;
  auto result = IdentifyBatchImpl(probes, &report, /*brute_force=*/false);
  // A screened-out probe fails with its own status under every policy.
  if (!report.failed.empty()) return report.failed.front().status;
  if (!result.ok()) return result.status();
  return std::move(result->matches.front());
}

Result<BatchIdentifyResult> IdentificationIndex::IdentifyBatchImpl(
    const connectome::GroupMatrix& probes, BatchReport* report,
    bool brute_force) {
  if (size_ == 0) {
    return Status::FailedPrecondition("IdentifyBatch: empty gallery");
  }
  if (probes.num_features() != full_feature_count_) {
    return Status::InvalidArgument(StrFormat(
        "IdentifyBatch: probes have %zu features, index holds %zu",
        probes.num_features(), full_feature_count_));
  }
  if (probes.num_subjects() == 0) {
    return Status::InvalidArgument("IdentifyBatch: no probes");
  }
  RebuildDirtyClusters();

  // Screen + fingerprint every probe (parallel, disjoint slots).
  const std::size_t n = probes.num_subjects();
  BatchReport local_report;
  if (report == nullptr) report = &local_report;
  report->Clear();
  report->attempted = n;
  std::vector<linalg::Vector> fingerprints(n);
  std::vector<Status> probe_status(n, Status::OK());
  ParallelFor(options_.parallel, 0, n, GrainForWork(full_feature_count_),
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t j = lo; j < hi; ++j) {
                  linalg::Vector column = probes.SubjectColumn(j);
                  probe_status[j] =
                      StageColumn("service.probe", j, "probe",
                                  probes.subject_ids()[j], &column);
                  if (!probe_status[j].ok()) continue;
                  fingerprints[j] = MakeFingerprint(column);
                }
              });
  std::vector<std::size_t> survivors;
  survivors.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (probe_status[j].ok()) {
      survivors.push_back(j);
      continue;
    }
    BatchItemReport item;
    item.index = j;
    item.id = probes.subject_ids()[j];
    item.stage = "probe_screen";
    item.status = probe_status[j];
    report->failed.push_back(std::move(item));
  }
  NP_RETURN_IF_ERROR(ResolveBatch(options_.failure_policy, *report));
  if (!report->failed.empty()) {
    metrics::Count("batch.subjects_skipped", report->failed.size());
  }

  // Fan out (probe x shard) work items; each writes its own slot, and the
  // per-probe merge walks shards in ascending order — bitwise identical
  // at any thread count.
  const std::size_t num_shards = shards_.size();
  const std::size_t num_survivors = survivors.size();
  std::vector<ShardCandidate> candidates(num_survivors * num_shards);
  const std::size_t pair_work =
      (size_ / num_shards + 1) * selected_features_.size();
  {
    NP_TRACE_SCOPE("service.identify_batch.probe");
    ParallelFor(options_.parallel, 0, num_survivors * num_shards,
                GrainForWork(pair_work),
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    const std::size_t p = i / num_shards;
                    const std::size_t s = i % num_shards;
                    ProbeShard(fingerprints[survivors[p]], s, brute_force,
                               &candidates[i]);
                  }
                });
  }

  BatchIdentifyResult result;
  result.probe_ids.reserve(num_survivors);
  result.matches.resize(num_survivors);
  std::vector<std::size_t> rescore;
  for (std::size_t p = 0; p < num_survivors; ++p) {
    result.probe_ids.push_back(probes.subject_ids()[survivors[p]]);
    result.matches[p] =
        MergeShardCandidates(&candidates[p * num_shards], num_shards);
    if (!brute_force && options_.exact_rescore_margin > 0.0 && size_ > 1 &&
        result.matches[p].margin < options_.exact_rescore_margin) {
      rescore.push_back(p);
    }
  }

  // Low-margin probes fall back to an exact full rescore (disjoint
  // per-probe slots again, so the fallback is thread-count-invariant too).
  if (!rescore.empty()) {
    NP_TRACE_SCOPE("service.identify_batch.rescore");
    const std::size_t rescore_work = size_ * selected_features_.size();
    ParallelFor(
        options_.parallel, 0, rescore.size(), GrainForWork(rescore_work),
        [&](std::size_t lo, std::size_t hi) {
          std::vector<ShardCandidate> local(num_shards);
          for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t p = rescore[i];
            for (std::size_t s = 0; s < num_shards; ++s) {
              ProbeShard(fingerprints[survivors[p]], s, /*brute_force=*/true,
                         &local[s]);
            }
            IdentifyMatch exact =
                MergeShardCandidates(local.data(), num_shards);
            exact.candidates_scanned += result.matches[p].candidates_scanned;
            result.matches[p] = std::move(exact);
          }
        });
    metrics::Count("service.exact_rescores", rescore.size());
  }

  std::size_t correct = 0;
  std::size_t total_scanned = 0;
  for (std::size_t p = 0; p < num_survivors; ++p) {
    if (result.matches[p].subject_id == result.probe_ids[p]) ++correct;
    total_scanned += result.matches[p].candidates_scanned;
  }
  result.accuracy = num_survivors == 0
                        ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(num_survivors);
  metrics::Count("service.identifies", num_survivors);
  metrics::Count("service.candidates_scanned", total_scanned);
  return result;
}

Result<BatchIdentifyResult> IdentificationIndex::IdentifyBatch(
    const connectome::GroupMatrix& probes, BatchReport* report) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.identify_batch");
  return IdentifyBatchImpl(probes, report, /*brute_force=*/false);
}

Result<BatchIdentifyResult> IdentificationIndex::IdentifyBatchBruteForce(
    const connectome::GroupMatrix& probes, BatchReport* report) {
  trace::ScopedEnable trace_enable(options_.trace.enabled);
  fault::ScopedSchedule fault_schedule(options_.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("service.identify_batch_brute");
  return IdentifyBatchImpl(probes, report, /*brute_force=*/true);
}

std::string IdentificationIndex::DebugStateString() {
  RebuildDirtyClusters();
  std::string out = StrFormat("features:%zu selected:%zu shards:%zu\n",
                              full_feature_count_, selected_features_.size(),
                              shards_.size());
  out += "selected_rows:";
  for (std::size_t row : selected_features_) out += StrFormat(" %zu", row);
  out += "\n";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    out += StrFormat("shard %zu (%zu entries)\n", s, shard.entries.size());
    for (const Entry& entry : shard.entries) {
      out += StrFormat("  %s:", entry.id.c_str());
      for (double x : entry.fingerprint) {
        out += StrFormat(" %016llx",
                         static_cast<unsigned long long>(
                             std::bit_cast<std::uint64_t>(x)));
      }
      out += "\n";
    }
    for (std::size_t c = 0; c < shard.clusters.size(); ++c) {
      const Cluster& cluster = shard.clusters[c];
      out += StrFormat(
          "  cluster %zu cos_r=%016llx members:", c,
          static_cast<unsigned long long>(
              std::bit_cast<std::uint64_t>(cluster.cos_radius)));
      for (std::size_t e : cluster.members) out += StrFormat(" %zu", e);
      out += "\n";
    }
  }
  return out;
}

}  // namespace neuroprint::service
