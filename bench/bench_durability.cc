// Durability bench: measures what crash recovery costs at gallery scale.
// Builds a durable index (snapshot holding the bulk of the gallery, a
// write-ahead journal tail of recent enrollments), then times two ways
// of getting a serving index back:
//
//   * replay-on-open — OpenDurable: load the checksummed snapshot and
//     replay the journal tail; and
//   * full re-enrollment — refit the subspace on the reference and
//     EnrollBatch the whole gallery from (regenerated) columns.
//
// Invariants checked on every run (NP_CHECK, so CI smoke fails loudly):
// the reopened and rebuilt indexes hold the same identities and answer a
// brute-force probe batch with bitwise-identical similarities, and the
// journal grows by less than one full column (features x 8 bytes) per
// enrolled subject: an enroll record of this lean index carries the
// fingerprint, not the column. In full
// mode (5k subjects) replay must be >= 5x faster than re-enrollment —
// the ROADMAP acceptance bar for the durability layer; at smoke scale
// the ratio is only recorded (the fixed costs dominate a 600-subject
// open).
//
// Flags: `--threads=N`, `--json=PATH` (BENCH_durability.json in CI).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace neuroprint;

namespace {

// A strided session-1 probe sample of `count` enrolled identities,
// generated one subject at a time (same shape as bench_out_of_core).
connectome::GroupMatrix MakeProbes(const service::SyntheticGalleryConfig& g,
                                   std::size_t count) {
  std::vector<linalg::Vector> columns;
  std::vector<std::string> ids;
  const std::size_t stride = std::max<std::size_t>(1, g.num_subjects / count);
  for (std::size_t j = 0; j < g.num_subjects && ids.size() < count;
       j += stride) {
    auto one = service::MakeSyntheticGallerySlice(g, 1, j, j + 1);
    NP_CHECK(one.ok()) << one.status().ToString();
    columns.push_back(one->SubjectColumn(0));
    ids.push_back(one->subject_ids()[0]);
  }
  auto probes = connectome::GroupMatrix::FromFeatureColumns(columns, ids);
  NP_CHECK(probes.ok()) << probes.status().ToString();
  return std::move(probes).value();
}

void CheckBitwiseParity(const service::BatchIdentifyResult& reopened,
                        const service::BatchIdentifyResult& rebuilt) {
  NP_CHECK(reopened.matches.size() == rebuilt.matches.size());
  for (std::size_t p = 0; p < reopened.matches.size(); ++p) {
    NP_CHECK(reopened.matches[p].subject_id == rebuilt.matches[p].subject_id)
        << "probe " << p << ": reopened matched "
        << reopened.matches[p].subject_id << ", rebuilt "
        << rebuilt.matches[p].subject_id;
    NP_CHECK(std::bit_cast<std::uint64_t>(reopened.matches[p].similarity) ==
             std::bit_cast<std::uint64_t>(rebuilt.matches[p].similarity))
        << "probe " << p << " similarity bits diverged";
  }
  NP_CHECK(std::bit_cast<std::uint64_t>(reopened.accuracy) ==
           std::bit_cast<std::uint64_t>(rebuilt.accuracy));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flag_threads = bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const std::size_t threads = ResolveThreadCount(ParallelContext{flag_threads});
  const bool fast = bench::FastMode();

  bench::PrintHeader("durability",
                     "crash recovery: replay-on-open vs full re-enrollment");

  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = fast ? 600 : 5000;
  gallery.num_features = fast ? 2048 : 16384;
  gallery.noise_scale = 0.35;
  gallery.seed = 0x00d07ab1ULL;
  gallery.parallel.num_threads = flag_threads;
  const std::size_t reference_subjects = fast ? 64 : 128;
  // Subjects enrolled after the last checkpoint: their journal records
  // (fingerprints) are what replay-on-open has to re-apply.
  const std::size_t journal_tail = fast ? 64 : 256;
  const std::size_t gen_slice = 256;  // Bounded generation batches.
  const std::size_t batch_probes = 32;

  service::IndexOptions options;
  options.num_features = 100;
  options.retain_full_columns = false;  // Memory-lean serving.
  options.parallel.num_threads = flag_threads;

  service::DurabilityOptions durability;
  durability.data_dir =
      std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp") +
      "/bench_durability.data";
  durability.compact_min_bytes = 0;  // The bench compacts explicitly.
  std::filesystem::remove_all(durability.data_dir);

  std::printf("gallery: %zu subjects x %zu features, %zu reference, "
              "journal tail %zu, %zu threads%s\n\n",
              gallery.num_subjects, gallery.num_features, reference_subjects,
              journal_tail, threads, fast ? " [fast mode]" : "");

  // --- Phase 1: build the durable index the way a long-lived service
  // does — bulk enrollment, a checkpoint, then a tail of journaled
  // mutations the next crash would have to replay.
  const std::size_t checkpointed_subjects =
      gallery.num_subjects - journal_tail;
  auto reference =
      service::MakeSyntheticGallerySlice(gallery, 0, 0, reference_subjects);
  NP_CHECK(reference.ok()) << reference.status().ToString();
  Stopwatch build_clock;
  double checkpoint_seconds = 0.0;
  std::uint64_t journal_bytes = 0;
  {
    auto index = service::IdentificationIndex::CreateDurable(
        *reference, durability, options);
    NP_CHECK(index.ok()) << index.status().ToString();
    for (std::size_t begin = reference_subjects;
         begin < checkpointed_subjects; begin += gen_slice) {
      const std::size_t end = std::min(begin + gen_slice,
                                       checkpointed_subjects);
      auto slice = service::MakeSyntheticGallerySlice(gallery, 0, begin, end);
      NP_CHECK(slice.ok()) << slice.status().ToString();
      NP_CHECK(index->EnrollBatch(*slice).ok());
    }
    Stopwatch checkpoint_clock;
    NP_CHECK(index->Checkpoint().ok());
    checkpoint_seconds = checkpoint_clock.ElapsedSeconds();
    for (std::size_t begin = checkpointed_subjects;
         begin < gallery.num_subjects; begin += gen_slice) {
      const std::size_t end =
          std::min(begin + gen_slice, gallery.num_subjects);
      auto slice = service::MakeSyntheticGallerySlice(gallery, 0, begin, end);
      NP_CHECK(slice.ok()) << slice.status().ToString();
      NP_CHECK(index->EnrollBatch(*slice).ok());
    }
    NP_CHECK(index->size() == gallery.num_subjects);
    journal_bytes = index->journal_size_bytes();
  }  // The "crash": the index object goes away without another checkpoint.
  const double build_seconds = build_clock.ElapsedSeconds();
  const double journal_bytes_per_subject =
      static_cast<double>(journal_bytes) / static_cast<double>(journal_tail);
  const double column_bytes =
      static_cast<double>(gallery.num_features * sizeof(double));
  NP_CHECK(journal_bytes_per_subject < column_bytes)
      << "journal grows by " << journal_bytes_per_subject
      << " bytes per enrolled subject, not below one full column ("
      << column_bytes << " bytes): enroll records carry columns again";
  std::error_code ec;
  const double snapshot_bytes = static_cast<double>(std::filesystem::file_size(
      std::filesystem::path(durability.data_dir) / "snapshot.npix", ec));
  std::printf("build        %8zu subjects  %8.2f s (checkpoint %.3f s)  "
              "snapshot %6.1f MiB  journal %6.1f MiB (%.0f B/subject)\n",
              gallery.num_subjects, build_seconds, checkpoint_seconds,
              snapshot_bytes / (1024.0 * 1024.0),
              static_cast<double>(journal_bytes) / (1024.0 * 1024.0),
              journal_bytes_per_subject);

  // --- Phase 2: recovery via replay-on-open.
  Stopwatch replay_clock;
  auto reopened = service::IdentificationIndex::OpenDurable(durability,
                                                            options);
  const double replay_seconds = replay_clock.ElapsedSeconds();
  NP_CHECK(reopened.ok()) << reopened.status().ToString();
  NP_CHECK(reopened->size() == gallery.num_subjects);
  std::printf("replay-open  %8zu subjects  %8.3f s\n", reopened->size(),
              replay_seconds);

  // --- Phase 3: recovery by re-enrolling everything from source data.
  // Generation cost is excluded — the clock only covers fit + enrollment
  // — so the comparison is conservative in re-enrollment's favor.
  Stopwatch fit_clock;
  auto rebuilt = service::IdentificationIndex::Create(*reference, options);
  NP_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
  double reenroll_seconds = fit_clock.ElapsedSeconds();
  for (std::size_t begin = reference_subjects; begin < gallery.num_subjects;
       begin += gen_slice) {
    const std::size_t end = std::min(begin + gen_slice, gallery.num_subjects);
    auto slice = service::MakeSyntheticGallerySlice(gallery, 0, begin, end);
    NP_CHECK(slice.ok()) << slice.status().ToString();
    Stopwatch enroll_clock;
    NP_CHECK(rebuilt->EnrollBatch(*slice).ok());
    reenroll_seconds += enroll_clock.ElapsedSeconds();
  }
  NP_CHECK(rebuilt->size() == reopened->size());
  std::printf("re-enroll    %8zu subjects  %8.3f s (fit + enroll only)\n",
              rebuilt->size(), reenroll_seconds);

  // --- Parity: recovery must not change a single answer.
  const connectome::GroupMatrix probes = MakeProbes(gallery, batch_probes);
  auto reopened_result = reopened->IdentifyBatchBruteForce(probes);
  auto rebuilt_result = rebuilt->IdentifyBatchBruteForce(probes);
  NP_CHECK(reopened_result.ok() && rebuilt_result.ok());
  CheckBitwiseParity(*reopened_result, *rebuilt_result);

  const double speedup =
      replay_seconds > 0.0 ? reenroll_seconds / replay_seconds : 0.0;
  std::printf("parity       %zu probes bit-identical   accuracy %.4f   "
              "replay speedup %.2fx\n\n",
              probes.num_subjects(), reopened_result->accuracy, speedup);
  if (!fast) {
    // Acceptance: replay-on-open >= 5x faster than full re-enrollment at
    // the 5k-subject gallery. At smoke scale fixed costs dominate both
    // sides, so the ratio is only recorded.
    NP_CHECK(speedup >= 5.0)
        << "replay-on-open took " << replay_seconds << " s vs "
        << reenroll_seconds << " s re-enrollment; speedup " << speedup
        << "x is below the 5x acceptance bar";
  }

  bench::JsonReporter json;
  json.BeginRecord("durability_replay");
  json.AddField("gallery_subjects", static_cast<double>(gallery.num_subjects));
  json.AddField("full_features", static_cast<double>(gallery.num_features));
  json.AddField("journal_tail_subjects", static_cast<double>(journal_tail));
  json.AddField("threads", static_cast<double>(threads));
  json.AddField("snapshot_bytes", snapshot_bytes);
  json.AddField("journal_bytes", static_cast<double>(journal_bytes));
  json.AddField("journal_bytes_per_subject", journal_bytes_per_subject);
  json.AddField("checkpoint_seconds", checkpoint_seconds);
  json.AddField("replay_open_seconds", replay_seconds);
  json.AddField("reenroll_seconds", reenroll_seconds);
  json.AddField("replay_speedup", speedup);
  json.AddField("top1_accuracy", reopened_result->accuracy);

  std::filesystem::remove_all(durability.data_dir);
  bench::WriteJsonOrDie(json, json_path);
  return 0;
}
