// Out-of-core enrollment bench: enrolls the same synthetic gallery twice
// — first streamed from a file-backed NPGM store via EnrollStream, then
// from the fully materialized in-RAM matrix via EnrollBatch — and reports
// the peak RSS of each phase. Phase order is load-bearing: getrusage's
// ru_maxrss is a monotone process-wide high-water mark, so the lean
// streamed phase must run before the materialized one or its number would
// just echo the materialized peak.
//
// Invariants checked on every run (NP_CHECK, so CI smoke fails loudly):
// both indexes end at the same size and answer a brute-force probe batch
// with bitwise-identical similarities and the same assignments. In full
// mode (the 5k-subject gallery) the materialized peak must be >= 4x the
// streamed peak — the ROADMAP acceptance bar for the out-of-core path.
//
// Flags: `--threads=N`, `--json=PATH` (BENCH_out_of_core.json in CI).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_util.h"
#include "connectome/group_matrix_io.h"
#include "connectome/matrix_store.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace neuroprint;

namespace {

// High-water-mark resident set in bytes (Linux reports KiB, Apple bytes);
// 0 when the platform has no getrusage, which disables the ratio check.
double PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss);
#else
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
#endif
#else
  return 0.0;
#endif
}

// A strided probe sample (session 1) of `count` enrolled identities,
// generated one subject at a time so the probe set never contributes a
// materialized-gallery-sized allocation to the streamed phase's peak.
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

// Both phases must answer the probe batch identically down to the bit:
// EnrollBatch is EnrollStream over a resident store, and the window
// determinism contract makes the file-backed windowed read give the same
// bits, so any divergence here is a streaming bug, not bench noise.
void CheckBitwiseParity(const service::BatchIdentifyResult& streamed,
                        const service::BatchIdentifyResult& materialized) {
  NP_CHECK(streamed.matches.size() == materialized.matches.size());
  for (std::size_t p = 0; p < streamed.matches.size(); ++p) {
    NP_CHECK(streamed.matches[p].subject_id ==
             materialized.matches[p].subject_id)
        << "probe " << p << ": streamed matched "
        << streamed.matches[p].subject_id << ", materialized "
        << materialized.matches[p].subject_id;
    NP_CHECK(std::bit_cast<std::uint64_t>(streamed.matches[p].similarity) ==
             std::bit_cast<std::uint64_t>(materialized.matches[p].similarity))
        << "probe " << p << " similarity bits diverged";
  }
  NP_CHECK(std::bit_cast<std::uint64_t>(streamed.accuracy) ==
           std::bit_cast<std::uint64_t>(materialized.accuracy));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flag_threads = bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const std::size_t threads = ResolveThreadCount(ParallelContext{flag_threads});
  const bool fast = bench::FastMode();

  bench::PrintHeader("out_of_core",
                     "file-backed streamed enrollment vs materialized RSS");

  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = fast ? 600 : 5000;
  gallery.num_features = fast ? 2048 : 16384;
  gallery.noise_scale = 0.35;
  gallery.num_communities = fast ? 8 : 32;
  gallery.community_weight = 0.75;
  gallery.seed = 0x00c0ffeeULL;
  gallery.parallel.num_threads = flag_threads;
  const std::size_t reference_subjects = fast ? 64 : 128;
  const std::size_t gen_slice = 256;       // Bounded generation batches.
  const std::size_t window_cols = 64;      // Streamed slab: 64 columns.
  const std::size_t batch_probes = 32;

  service::IndexOptions options;
  options.num_features = 100;
  options.retain_full_columns = false;  // Memory-lean serving, both phases.
  options.parallel.num_threads = flag_threads;

  std::printf("gallery: %zu subjects x %zu features, %zu reference, "
              "window %zu, %zu threads%s\n\n",
              gallery.num_subjects, gallery.num_features, reference_subjects,
              window_cols, threads, fast ? " [fast mode]" : "");

  const std::string npgm_path =
      std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp") +
      "/bench_out_of_core_gallery.npgm";

  // --- Phase 1 (first, see header comment): file-backed streamed enroll.
  // The gallery is rendered straight to disk in bounded slices, so the
  // full cohort never exists in RAM on this path.
  Stopwatch write_clock;
  {
    std::vector<std::string> ids;
    ids.reserve(gallery.num_subjects - reference_subjects);
    for (std::size_t j = reference_subjects; j < gallery.num_subjects; ++j) {
      ids.push_back(service::SyntheticSubjectId(j));
    }
    auto writer = connectome::GroupMatrixFileWriter::Create(
        npgm_path, gallery.num_features, ids);
    NP_CHECK(writer.ok()) << writer.status().ToString();
    for (std::size_t begin = reference_subjects;
         begin < gallery.num_subjects; begin += gen_slice) {
      const std::size_t end =
          std::min(begin + gen_slice, gallery.num_subjects);
      auto slice = service::MakeSyntheticGallerySlice(gallery, 0, begin, end);
      NP_CHECK(slice.ok()) << slice.status().ToString();
      for (std::size_t c = 0; c < slice->num_subjects(); ++c) {
        NP_CHECK(writer->AppendColumn(slice->SubjectColumn(c)).ok());
      }
    }
    NP_CHECK(writer->Finish().ok());
  }
  const double write_seconds = write_clock.ElapsedSeconds();

  auto reference =
      service::MakeSyntheticGallerySlice(gallery, 0, 0, reference_subjects);
  NP_CHECK(reference.ok()) << reference.status().ToString();
  auto streamed_index =
      service::IdentificationIndex::Create(*reference, options);
  NP_CHECK(streamed_index.ok()) << streamed_index.status().ToString();

  Stopwatch streamed_clock;
  {
    auto store = connectome::FileMatrixStore::Open(npgm_path);
    NP_CHECK(store.ok()) << store.status().ToString();
    NP_CHECK(streamed_index->EnrollStream(**store, nullptr, window_cols).ok());
  }
  const double streamed_seconds = streamed_clock.ElapsedSeconds();
  NP_CHECK(streamed_index->size() == gallery.num_subjects);
  const double rss_streamed = PeakRssBytes();
  std::printf("streamed     %8zu subjects  %8.2f s enroll (%.2f s write)  "
              "peak RSS %8.1f MiB\n",
              streamed_index->size(), streamed_seconds, write_seconds,
              rss_streamed / (1024.0 * 1024.0));

  bench::JsonReporter json;
  json.BeginRecord("out_of_core_streamed");  // Carries the streamed HWM.
  json.AddField("gallery_subjects",
                static_cast<double>(gallery.num_subjects));
  json.AddField("full_features", static_cast<double>(gallery.num_features));
  json.AddField("window_cols", static_cast<double>(window_cols));
  json.AddField("threads", static_cast<double>(threads));
  json.AddField("write_seconds", write_seconds);
  json.AddField("enroll_seconds", streamed_seconds);

  // --- Phase 2: materialize the whole remainder in RAM, enroll batched.
  Stopwatch materialize_clock;
  auto materialized = service::MakeSyntheticGallerySlice(
      gallery, 0, reference_subjects, gallery.num_subjects);
  NP_CHECK(materialized.ok()) << materialized.status().ToString();
  auto batch_index = service::IdentificationIndex::Create(*reference, options);
  NP_CHECK(batch_index.ok()) << batch_index.status().ToString();
  NP_CHECK(batch_index->EnrollBatch(*materialized).ok());
  const double materialized_seconds = materialize_clock.ElapsedSeconds();
  NP_CHECK(batch_index->size() == streamed_index->size());
  const double rss_materialized = PeakRssBytes();
  std::printf("materialized %8zu subjects  %8.2f s (generate + enroll)  "
              "peak RSS %8.1f MiB\n",
              batch_index->size(), materialized_seconds,
              rss_materialized / (1024.0 * 1024.0));

  // --- Parity: both galleries answer identically, down to the bit.
  const connectome::GroupMatrix probes = MakeProbes(gallery, batch_probes);
  auto streamed_result = streamed_index->IdentifyBatchBruteForce(probes);
  auto batch_result = batch_index->IdentifyBatchBruteForce(probes);
  NP_CHECK(streamed_result.ok() && batch_result.ok());
  CheckBitwiseParity(*streamed_result, *batch_result);

  const double rss_reduction =
      rss_streamed > 0.0 ? rss_materialized / rss_streamed : 0.0;
  std::printf("parity       %zu probes bit-identical   accuracy %.4f   "
              "RSS reduction %.2fx\n\n",
              probes.num_subjects(), streamed_result->accuracy,
              rss_reduction);
  if (!fast && rss_streamed > 0.0) {
    // Acceptance: >= 4x peak-RSS reduction at the 5k-subject gallery. At
    // smoke scale the materialized matrix is smaller than the process
    // baseline, so the ratio is meaningless there and only recorded.
    NP_CHECK(rss_reduction >= 4.0)
        << "streamed enrollment peaked at " << rss_streamed / (1024.0 * 1024.0)
        << " MiB vs " << rss_materialized / (1024.0 * 1024.0)
        << " MiB materialized; reduction " << rss_reduction
        << "x is below the 4x acceptance bar";
  }

  json.BeginRecord("out_of_core_materialized");  // Carries the full HWM.
  json.AddField("gallery_subjects",
                static_cast<double>(gallery.num_subjects));
  json.AddField("enroll_seconds", materialized_seconds);
  json.AddField("rss_reduction", rss_reduction);
  json.AddField("top1_accuracy", streamed_result->accuracy);

  std::remove(npgm_path.c_str());
  bench::WriteJsonOrDie(json, json_path);
  return 0;
}
