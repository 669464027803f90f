// Gallery-scale identification service: a long-lived, sharded,
// incrementally-updatable index over the leverage-selected feature
// subspace, replacing the one-shot Fit + linear-matcher scan of
// core/attack.h for serving workloads.
//
// Architecture (see docs/ANALYSIS.md "Identification service"):
//
//   * Subspace. Create() fits leverage scores on a reference gallery
//     (exactly like DeanonymizationAttack::Fit) and keeps the top-t
//     feature rows. Every enrolled subject stores only its mean-centered,
//     unit-normalized restriction to those rows, so similarity against a
//     probe is one dot product equal to the Pearson correlation the
//     brute-force matcher computes over the same feature set
//     (Ravindra/Drineas/Grama: leverage-compressed fingerprints stay
//     discriminative at very small dimension).
//
//   * Sharding. Subjects are assigned to a fixed number of shards by a
//     pure hash of the subject id (ShardOf), so the assignment is stable
//     across processes, enrollment orders, and thread counts. Probes fan
//     out over (probe x shard) work items on the work-stealing pool and
//     the per-shard candidates are merged in ascending shard order, so
//     IdentifyBatch output is bitwise-identical at any thread count.
//
//   * Incremental enrollment. Enroll/Remove update the subjects' shards
//     without refitting the subspace and without shifting a shard per
//     subject: a removal tombstones its entry in place (O(log shard)) and
//     an enroll batch merges into each shard it touches once. A shard
//     drops its tombstones before its clusters are rebuilt, so every read
//     sees the settled sorted layout. Mutations since the last (re)fit are
//     counted as the sketch staleness (gauge `service.sketch_staleness`);
//     RefreshSketch() refits leverage on the current gallery — requires
//     retain_full_columns — and IndexOptions::refresh_interval makes that
//     happen automatically every N mutations.
//
//   * Sublinear search. Each shard clusters its members with a seeded,
//     deterministic k-means over the unit fingerprints. A probe scores
//     every centroid, visits clusters in decreasing similarity-bound
//     order, and prunes clusters whose cosine ball bound cannot beat the
//     best candidate found so far — an exact top-1 search (the bound is
//     conservative by kPruneSlack). Low-margin matches additionally fall
//     back to an exact full rescore (exact_rescore_margin), so reported
//     margins for near-ties are exact too.
//
// Determinism contract: index state is a pure function of the option set
// and the sequence of committed mutations; IdentifyBatch results are
// bitwise-identical at any thread count (asserted by the `service` and
// `concurrency` test tiers). Ties on similarity break toward the
// lexicographically smaller subject id, independent of shard layout.
//
//   * Durability (optional; see docs/ANALYSIS.md "Durability & crash
//     recovery"). CreateDurable/OpenDurable bind the index to a data
//     directory holding a checksummed snapshot ("NPIX", published
//     atomically via util/journal.h AtomicFileWriter) plus a write-ahead
//     journal. Every committed mutation is journaled — fsynced per
//     DurabilityOptions::sync_every — *before* it touches a shard, so
//     after a crash OpenDurable recovers exactly the committed state:
//     snapshot, then replay of every CRC-valid journal record, with the
//     torn tail of a mid-append crash truncated rather than rejected.
//     The recovered index's DebugStateString is bit-identical to a
//     never-crashed index over the same member set (the `durability`
//     test tier sweeps a crash into every journal/snapshot I/O site to
//     prove it). Checkpoint() compacts: fresh snapshot, journal
//     truncated to zero; compaction also triggers automatically once the
//     journal outgrows DurabilityOptions::compact_min_bytes and
//     compact_ratio x the snapshot.

#ifndef NEUROPRINT_SERVICE_IDENTIFICATION_INDEX_H_
#define NEUROPRINT_SERVICE_IDENTIFICATION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "connectome/group_matrix.h"
#include "connectome/matrix_store.h"
#include "core/leverage.h"
#include "util/batch.h"
#include "util/fault.h"
#include "util/journal.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace neuroprint::service {

struct IndexOptions {
  /// Leverage-selected features to keep (clamped to the reference
  /// gallery's feature count, like AttackOptions::num_features).
  std::size_t num_features = 100;
  /// Fixed shard count; subject -> shard assignment is ShardOf(id) and
  /// never changes for the lifetime of the index. Must be >= 1.
  std::size_t num_shards = 8;
  /// k-means clusters per shard. 0 picks ceil(sqrt(shard_size)) per
  /// shard (re-derived on every rebuild); 1 makes every shard one flat
  /// cluster (no pruning).
  std::size_t clusters_per_shard = 0;
  /// Shards smaller than this stay flat (one cluster): pruning overhead
  /// only pays off once a shard has enough members to skip.
  std::size_t min_cluster_shard_size = 32;
  /// Lloyd iterations per cluster rebuild (fixed count — no
  /// convergence-dependent control flow, so rebuilds are deterministic).
  std::size_t kmeans_iterations = 8;
  /// Seed for the per-shard k-means initialization.
  std::uint64_t seed = 0x6e70736572766963ULL;
  /// A probe whose pruned-search margin (best - runner-up among scanned
  /// candidates) falls below this threshold is rescored exactly against
  /// the full gallery, making low-margin results (and their margins)
  /// identical to brute force. <= 0 disables the fallback.
  double exact_rescore_margin = 0.02;
  /// Mutations (enrolls + removals) between automatic sketch refreshes;
  /// 0 means refresh only when RefreshSketch() is called explicitly.
  /// Automatic refresh requires retain_full_columns.
  std::size_t refresh_interval = 0;
  /// Subjects the refit samples from the gallery (evenly strided over the
  /// canonical id order, clamped so the leverage input stays tall:
  /// ComputeLeverageScores requires features >= subjects). Keeps
  /// RefreshSketch O(features * sample) instead of O(features * gallery).
  std::size_t refresh_sample = 256;
  /// Keep every subject's full feature column so RefreshSketch can refit
  /// the subspace. Disable for memory-lean serving (the 50k-subject
  /// bench does); RefreshSketch then returns FailedPrecondition.
  bool retain_full_columns = true;
  /// Feature-selection knobs for Create/RefreshSketch.
  core::LeverageOptions leverage;
  /// Threads for enrollment screening and sharded probing (never changes
  /// results).
  ParallelContext parallel;
  /// Observability toggle for this index's operations (see util/trace.h).
  trace::TraceConfig trace;
  /// How EnrollBatch / IdentifyBatch treat unusable subjects (non-finite
  /// columns, duplicate ids, injected faults): fail-fast errors on the
  /// lowest-index item and leaves the index unchanged; skip-and-report /
  /// quorum drop them into the BatchReport and commit the survivors.
  FailurePolicy failure_policy;
  /// Fault injection for this index's operations: the schedule replaces
  /// the process one for the duration of each of Create, OpenFromSnapshot,
  /// Enroll*, Remove, Checkpoint, RefreshSketch and Identify*. Points
  /// `service.enroll`, `service.probe`, `service.refresh`, and the durable
  /// writers' `io.journal` and `io.snapshot` — including in the automatic
  /// compaction a mutation triggers.
  fault::FaultConfig fault;
};

/// Where and how a durable index persists itself (CreateDurable /
/// OpenDurable). The data directory holds exactly two live files —
/// `snapshot.npix` and `journal.wal` — plus, transiently, the
/// `snapshot.npix.tmp` an in-flight (or crashed) snapshot writer leaves
/// behind; open sweeps the stale temp away.
struct DurabilityOptions {
  /// Data directory. Empty falls back to NEUROPRINT_DATA_DIR (latched at
  /// first use, like the other env knobs); when both are empty the durable
  /// factories fail with an error naming the variable. Created (with
  /// parents) by CreateDurable.
  std::string data_dir;
  /// Journal fsync cadence, forwarded to JournalOptions::sync_every: 1
  /// (default) makes every mutation durable before it commits; N batches
  /// fsyncs so a crash can lose up to the last N - 1 mutations (recovery
  /// still yields a clean prefix of the committed sequence).
  std::size_t sync_every = 1;
  /// Auto-compaction floor: the journal must reach this many bytes before
  /// a mutation considers checkpointing. 0 compacts only via Checkpoint().
  std::uint64_t compact_min_bytes = 4ull << 20;
  /// ... and must also exceed this multiple of the snapshot's size (a
  /// journal that out-grows its snapshot costs more to replay than a
  /// fresh snapshot costs to write).
  double compact_ratio = 1.0;
};

/// One probe's identification outcome.
struct IdentifyMatch {
  std::string subject_id;  ///< Best-matching gallery identity.
  double similarity = 0.0;  ///< Pearson correlation in the subspace.
  /// best - runner-up similarity. Exact whenever it is below
  /// exact_rescore_margin (fallback rescore) or pruning is off;
  /// otherwise computed among scanned candidates (an upper bound).
  double margin = 0.0;
  /// Gallery members actually scored for this probe (== gallery size
  /// for a brute-force scan; less when cluster pruning skipped work).
  std::size_t candidates_scanned = 0;
};

/// Outcome of IdentifyBatch over the surviving probes, in their original
/// probe order.
struct BatchIdentifyResult {
  std::vector<std::string> probe_ids;  ///< Ids of surviving probes.
  std::vector<IdentifyMatch> matches;  ///< One per surviving probe.
  /// Fraction of surviving probes whose best match equals their own id
  /// (probes carry ground-truth ids, as in AttackResult::accuracy).
  double accuracy = 0.0;
};

class IdentificationIndex {
 public:
  /// Fits the feature subspace on `reference` (its subjects become the
  /// initial gallery) under `options`. Screens reference subjects by the
  /// failure policy like DeanonymizationAttack::Fit (stage
  /// "enroll_screen" in `report`).
  static Result<IdentificationIndex> Create(
      const connectome::GroupMatrix& reference,
      const IndexOptions& options = {}, BatchReport* report = nullptr);

  /// Create() plus durability: creates the data directory, writes the
  /// initial snapshot, and opens a fresh journal. Every subsequent
  /// mutation is write-ahead journaled. Fails if the directory cannot be
  /// resolved (see DurabilityOptions::data_dir) or the initial snapshot
  /// cannot be published.
  static Result<IdentificationIndex> CreateDurable(
      const connectome::GroupMatrix& reference,
      const DurabilityOptions& durability, const IndexOptions& options = {},
      BatchReport* report = nullptr);

  /// Reopens a durable index from its data directory: sweeps stale
  /// snapshot temps, loads the snapshot, replays every CRC-valid journal
  /// record (a torn tail is truncated, never fatal; records made
  /// redundant by a prior compaction are skipped), and resumes journaling
  /// at the validated offset. `options` must match the ones the index
  /// was created with — the snapshot carries the fitted subspace, not the
  /// option set.
  static Result<IdentificationIndex> OpenDurable(
      const DurabilityOptions& durability, const IndexOptions& options = {});

  /// Writes a point-in-time snapshot of this index to `path` (atomic
  /// publish, CRC-checksummed). Works on non-durable indexes too.
  Status SaveSnapshot(const std::string& path) const;

  /// Loads an index from a SaveSnapshot file. `options` must match the
  /// writer's (in particular retain_full_columns and num_shards). The
  /// loaded index is not durable; OpenDurable builds on this.
  static Result<IdentificationIndex> OpenFromSnapshot(
      const std::string& path, const IndexOptions& options = {});

  /// Durable indexes only: publishes a fresh snapshot and truncates the
  /// journal to zero (compaction). Crash-safe at every step — a crash
  /// between the snapshot rename and the truncate just leaves redundant
  /// journal records for the next open to skip.
  Status Checkpoint();

  /// True when mutations are write-ahead journaled (CreateDurable /
  /// OpenDurable).
  bool durable() const { return journal_ != nullptr; }

  /// Journal bytes pending compaction (0 for a non-durable index).
  std::uint64_t journal_size_bytes() const {
    return journal_ == nullptr ? 0 : journal_->size_bytes();
  }

  /// Enrolls one subject (full-feature column, same space the index was
  /// fitted on): an adapter that runs EnrollBatch's staged enroll on a
  /// one-column batch, so it journals the same single-subject record.
  /// Fails with AlreadyExists for a duplicate id, InvalidArgument for a
  /// dimension mismatch, CorruptData for non-finite values; a subject the
  /// screen drops (including faults at `service.enroll`, key 0) fails
  /// with its own status under every failure policy. May trigger an
  /// automatic sketch refresh.
  Status Enroll(const std::string& subject_id,
                const linalg::Vector& full_features);

  /// Enrolls every subject of `subjects`: an adapter that runs
  /// EnrollStream over an InMemoryMatrixStore.
  Status EnrollBatch(const connectome::GroupMatrix& subjects,
                     BatchReport* report = nullptr);

  /// Enrolls every subject of `subjects` under the index failure policy.
  /// Fail-fast leaves the index untouched on any error; skip-and-report /
  /// quorum commit the survivors (stage "enroll_screen" in `report`,
  /// which may be null). Subject columns are pulled in windows of
  /// `window_cols` (0 derives a width from the memory budget, see
  /// connectome::DeriveWindowCols; a resident store is then one window
  /// read in place). When the index neither retains full columns nor
  /// journals, staging keeps only fingerprints, so peak RSS is one window
  /// of full columns plus the fingerprints; otherwise every survivor's
  /// full column is staged in RAM until the batch resolves, and the
  /// fingerprints the commit (and journal record) takes are derived
  /// from them then. Index state and report contents are identical at
  /// any window size; a store I/O failure (including the `io.stream`
  /// fault point) fails the call with the index bit-unchanged.
  Status EnrollStream(const connectome::MatrixStore& subjects,
                      BatchReport* report = nullptr,
                      std::size_t window_cols = 0);

  /// Removes one subject. NotFound when the id is not enrolled. The
  /// resulting index state is identical to one that never enrolled the
  /// subject (the enroll/remove round-trip property).
  Status Remove(const std::string& subject_id);

  /// True when the subject is enrolled.
  bool Contains(const std::string& subject_id) const;

  /// Enrolled gallery size.
  std::size_t size() const { return size_; }

  /// Every enrolled id, ascending (canonical order).
  std::vector<std::string> EnrolledIds() const;

  /// The shard a subject id maps to: a pure function of (id, num_shards),
  /// stable across processes and enrollment orders.
  std::size_t ShardOf(const std::string& subject_id) const;

  /// Feature rows (into the full feature space) the index matches on.
  const std::vector<std::size_t>& selected_features() const {
    return selected_features_;
  }

  /// Mutations committed since the subspace was last (re)fitted. Also
  /// exported as the gauge `service.sketch_staleness`.
  std::size_t sketch_staleness() const { return sketch_staleness_; }

  /// Refits the leverage subspace on the current gallery, re-projects
  /// every member, and resets the staleness counter. Requires
  /// retain_full_columns and a non-empty gallery.
  Status RefreshSketch();

  /// Identifies one probe (full-feature column): an adapter that runs
  /// IdentifyBatch on a one-column batch, so the match is bit-identical to
  /// that probe's batch entry. FailedPrecondition on an empty gallery;
  /// InvalidArgument on a dimension mismatch; CorruptData on a non-finite
  /// probe. A probe the screen drops (including faults at `service.probe`,
  /// key 0) fails with its own status under every failure policy.
  Result<IdentifyMatch> Identify(const linalg::Vector& probe_features);

  /// Identifies every probe of `probes` concurrently ((probe x shard)
  /// work items on the thread pool, merged in shard order — bitwise
  /// identical at any thread count). Probes with non-finite columns are
  /// screened by the index failure policy (stage "probe_screen"; faults
  /// at `service.probe` count as probe failures under skip/quorum).
  Result<BatchIdentifyResult> IdentifyBatch(
      const connectome::GroupMatrix& probes, BatchReport* report = nullptr);

  /// The exact linear-scan oracle: identical tie-break and output shape
  /// to IdentifyBatch with pruning disabled. Used by the property/soak
  /// tests and the bench to prove top-1 parity; costs O(gallery) per
  /// probe.
  Result<BatchIdentifyResult> IdentifyBatchBruteForce(
      const connectome::GroupMatrix& probes, BatchReport* report = nullptr);

  /// Canonical dump of the observable index state — per shard: entry ids,
  /// fingerprint bytes (hex, bitwise), cluster memberships and radii.
  /// Two indexes with equal dumps answer every query identically; the
  /// property tests compare dumps for the enroll/remove round-trip.
  std::string DebugStateString();

 private:
  struct Entry {
    std::string id;
    /// Mean-centered, unit-normalized selected-feature fingerprint (all
    /// zeros for a zero-variance subject, matching the matcher's
    /// correlation-0 convention).
    linalg::Vector fingerprint;
    /// Retained full feature column (empty unless retain_full_columns).
    linalg::Vector full;

    /// A tombstone: Remove releases both vectors instead of erasing the
    /// entry, so no shard shifts per removal, and the entry keeps its id
    /// (and so its sorted slot) until its shard settles. A live entry's
    /// fingerprint is never empty, so the empty one is the mark.
    bool removed() const { return fingerprint.empty(); }
  };
  struct Cluster {
    linalg::Vector centroid;          ///< Unit norm (or zero).
    double cos_radius = 1.0;          ///< cos(max angle to a member).
    double sin_radius = 0.0;
    std::vector<std::size_t> members;  ///< Entry indices, ascending.
  };
  struct Shard {
    /// Sorted by id, tombstones included. Settled (no tombstones), it is
    /// exactly the shard's live members in id order — the layout the
    /// clusters, probes, snapshot and DebugStateString read.
    std::vector<Entry> entries;
    std::vector<Cluster> clusters;
    /// Removed entries still in `entries`; a shard holding any is always
    /// clusters_dirty, so the cluster rebuild settles it before a read.
    std::size_t tombstones = 0;
    bool clusters_dirty = true;

    /// Drops the tombstones, O(entries); a no-op when there are none.
    void Settle();
  };
  /// Per-(probe, shard) candidate produced by the parallel fan-out and
  /// consumed by the ordered merge.
  struct ShardCandidate {
    std::size_t best_entry = 0;
    std::size_t shard = 0;
    double best = 0.0;
    double second = 0.0;
    std::size_t scanned = 0;
    bool has_best = false;
    bool has_second = false;
  };

  IdentificationIndex() = default;

  /// Commits a batch of screened subjects — the commit half of every
  /// enroll path and of enroll-record replay; cannot fail. Ids must be
  /// distinct and not enrolled. Each shard the batch touches settles and
  /// takes its share in one merge, so a batch costs O(shard) per shard
  /// rather than one mid-shard insert per subject.
  void CommitEnrolls(std::vector<Entry> batch);
  /// Tombstones an enrolled subject — the commit half of Remove and of
  /// remove-record replay. Returns false (and changes nothing) when the
  /// id is not enrolled.
  bool CommitRemove(const std::string& subject_id);
  /// Write-ahead journals a batch of staged enrolls as ONE record (no-op
  /// when not durable), first publishing a subspace RefreshSketch could
  /// not. An error means the record did not reach the disk and no shard
  /// may be touched.
  Status JournalEnrolls(const std::vector<Entry>& batch);
  Status JournalRemove(const std::string& subject_id);
  /// Applies one replayed journal record. Enrolls of already-present ids
  /// and removals of absent ids are skipped, not errors: a checkpoint
  /// that crashed before truncating its journal leaves records the
  /// snapshot already contains. Malformed payloads are CorruptData.
  Status ApplyJournalRecord(const std::uint8_t* payload, std::size_t size);
  /// Checkpoint() without installing the per-index fault schedule: the
  /// compaction internal callers run inside a mutation that installed it.
  Status Compact();
  /// Compact() when the journal has outgrown the compaction trigger.
  Status MaybeCompact();
  Result<std::vector<std::uint8_t>> SerializeSnapshot() const;
  /// Serializes the index, atomically publishes it at `path` and counts
  /// the save: the one publish step behind SaveSnapshot, CreateDurable and
  /// Checkpoint. Returns the bytes written.
  Result<std::uint64_t> PublishSnapshot(const std::string& path) const;
  /// The staged enroll behind Create, Enroll, EnrollBatch and
  /// EnrollStream: screens every column of `subjects` (in windows of
  /// `window_cols`), resolves the batch, journals the survivors, then
  /// commits them.
  Status EnrollColumns(const connectome::MatrixStore& subjects,
                       BatchReport* report, std::size_t window_cols);
  linalg::Vector MakeFingerprint(const linalg::Vector& full_features) const;
  void RebuildDirtyClusters();
  void RebuildShardClusters(std::size_t shard_index);
  void ProbeShard(const linalg::Vector& probe_fingerprint,
                  std::size_t shard_index, bool brute_force,
                  ShardCandidate* out) const;
  IdentifyMatch MergeShardCandidates(const ShardCandidate* candidates,
                                     std::size_t count) const;
  Result<BatchIdentifyResult> IdentifyBatchImpl(
      const connectome::GroupMatrix& probes, BatchReport* report,
      bool brute_force);
  /// Adds `count` committed mutations to the sketch staleness.
  void NoteMutations(std::size_t count);
  /// Runs RefreshSketch when the auto-refresh cadence is due. An
  /// auto-refresh failure is returned by the mutation that triggered it
  /// (the mutation itself stays committed).
  Status MaybeAutoRefresh();

  IndexOptions options_;
  std::size_t full_feature_count_ = 0;
  std::vector<std::size_t> selected_features_;
  std::vector<Shard> shards_;
  std::size_t size_ = 0;
  std::size_t sketch_staleness_ = 0;
  /// Durability state (null journal <=> not durable). The unique_ptr
  /// makes the index move-only, which every caller already treats it as.
  std::unique_ptr<JournalWriter> journal_;
  DurabilityOptions durability_;
  std::string snapshot_path_;
  std::uint64_t snapshot_bytes_ = 0;
  /// RefreshSketch changed the subspace but its snapshot did not publish:
  /// journaled fingerprints would not match the snapshot's subspace, so
  /// the next enroll record checkpoints first.
  bool subspace_unpublished_ = false;
};

/// Seeded deterministic FNV-1a of a subject id — the shard hash. Exposed
/// so tests can assert the assignment is a pure function of the id.
std::uint64_t SubjectHash(const std::string& subject_id);

/// Latched NEUROPRINT_DATA_DIR (empty when unset): the fallback data
/// directory for durable indexes when DurabilityOptions::data_dir is
/// empty.
const std::string& DataDirectory();

}  // namespace neuroprint::service

#endif  // NEUROPRINT_SERVICE_IDENTIFICATION_INDEX_H_
