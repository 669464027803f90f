// Identification-service bench: enrollment throughput, batched identify
// throughput (cluster-pruned vs. the brute-force oracle), and single-probe
// latency percentiles on a large synthetic gallery — the ROADMAP item-1
// serving scenario. The gallery is generated in bounded slices and the
// index runs with retain_full_columns=false, so peak RSS measures the
// memory-lean serving configuration (fingerprints only).
//
// Invariants checked on every run (NP_CHECK, so CI smoke fails loudly):
// the pruned search returns exactly the brute-force top-1 for every probe,
// and in full mode the pruned throughput is >= 5x brute force on the
// >= 50k-subject gallery. A separate paper-shape section (64620 features x
// 100 subjects, the S900 release dimensions) re-checks parity where the
// accuracy numbers mirror the paper's Figure-1 regime. A mutation section
// times Remove and EnrollBatch per subject at N and 4N subjects and checks
// that a removal does not get 2x dearer when the gallery grows 4x: a
// removal that shifted its shard would cost about 4x.
//
// Flags: `--threads=N`, `--json=PATH` (BENCH_service.json in CI),
// `--trace=PATH`, `--metrics=PATH`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace neuroprint;

namespace {

double Percentile(std::vector<double> sorted_ascending, double q) {
  NP_CHECK(!sorted_ascending.empty());
  std::sort(sorted_ascending.begin(), sorted_ascending.end());
  const double rank = q * static_cast<double>(sorted_ascending.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ascending.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ascending[lo] * (1.0 - frac) + sorted_ascending[hi] * frac;
}

// A strided probe sample (session 1) of `count` enrolled identities.
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

void CheckTopOneParity(const service::BatchIdentifyResult& pruned,
                       const service::BatchIdentifyResult& brute) {
  NP_CHECK(pruned.matches.size() == brute.matches.size());
  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < pruned.matches.size(); ++p) {
    if (pruned.matches[p].subject_id != brute.matches[p].subject_id) {
      ++mismatches;
    }
  }
  NP_CHECK(mismatches == 0)
      << mismatches << " of " << pruned.matches.size()
      << " probes diverged from the brute-force top-1";
  NP_CHECK(pruned.accuracy >= brute.accuracy);
}

// A non-durable index of `subjects` members and kMutateBatch of those
// members, strided over the gallery so they land in every shard at every
// depth.
struct MutateFixture {
  std::unique_ptr<service::IdentificationIndex> index;
  connectome::GroupMatrix batch;
};

constexpr std::size_t kMutateBatch = 512;

MutateFixture MakeMutateFixture(service::SyntheticGalleryConfig gallery,
                                const service::IndexOptions& options,
                                std::size_t subjects) {
  constexpr std::size_t kReference = 128;
  constexpr std::size_t kSlice = 5000;
  gallery.num_subjects = subjects;
  auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, kReference);
  NP_CHECK(reference.ok()) << reference.status().ToString();
  auto index = service::IdentificationIndex::Create(*reference, options);
  NP_CHECK(index.ok()) << index.status().ToString();
  for (std::size_t begin = kReference; begin < subjects; begin += kSlice) {
    auto slice = service::MakeSyntheticGallerySlice(
        gallery, 0, begin, std::min(begin + kSlice, subjects));
    NP_CHECK(slice.ok()) << slice.status().ToString();
    NP_CHECK(index->EnrollBatch(*slice).ok());
  }
  std::vector<linalg::Vector> columns;
  std::vector<std::string> ids;
  for (std::size_t b = 0; b < kMutateBatch; ++b) {
    const std::size_t j = b * (subjects / kMutateBatch);
    auto one = service::MakeSyntheticGallerySlice(gallery, 0, j, j + 1);
    NP_CHECK(one.ok()) << one.status().ToString();
    columns.push_back(one->SubjectColumn(0));
    ids.push_back(one->subject_ids()[0]);
  }
  auto batch = connectome::GroupMatrix::FromFeatureColumns(columns, ids);
  NP_CHECK(batch.ok()) << batch.status().ToString();
  return {std::make_unique<service::IdentificationIndex>(
              std::move(index).value()),
          std::move(batch).value()};
}

// One round: removes the fixture's batch one subject at a time, then
// enrolls it back as one batch. Returns {remove, enroll} microseconds per
// subject.
std::pair<double, double> MutateRound(MutateFixture& fixture) {
  const double per_subject = 1e6 / static_cast<double>(kMutateBatch);
  Stopwatch remove_clock;
  for (const std::string& id : fixture.batch.subject_ids()) {
    NP_CHECK(fixture.index->Remove(id).ok());
  }
  const double remove_us = remove_clock.ElapsedSeconds() * per_subject;
  Stopwatch enroll_clock;
  NP_CHECK(fixture.index->EnrollBatch(fixture.batch).ok());
  return {remove_us, enroll_clock.ElapsedSeconds() * per_subject};
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flag_threads = bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const std::string trace_path = bench::ParseTraceFlag(&argc, argv);
  const std::string metrics_path = bench::ParseMetricsFlag(&argc, argv);
  const std::size_t threads = ResolveThreadCount(ParallelContext{flag_threads});
  const bool fast = bench::FastMode();

  bench::PrintHeader("service", "gallery-scale identification service");

  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = fast ? 2000 : 50000;
  gallery.num_features = fast ? 256 : 512;
  gallery.noise_scale = 0.35;
  // Population structure (shared site/family components) is what cluster
  // pruning exploits; real connectome galleries are strongly structured.
  gallery.num_communities = fast ? 16 : 64;
  gallery.community_weight = 0.75;
  gallery.seed = 0xbe9c5e71ceULL;
  gallery.parallel.num_threads = flag_threads;
  const std::size_t reference_subjects = fast ? 128 : 256;
  const std::size_t enroll_slice = 5000;
  const std::size_t batch_probes = fast ? 200 : 512;
  const std::size_t latency_probes = fast ? 100 : 300;

  service::IndexOptions options;
  options.num_features = 100;  // The paper's top-t feature budget.
  options.num_shards = 8;
  // 3x the sqrt(shard) default: tighter cluster radii prune harder on
  // community-structured galleries, and the extra centroid scans are
  // cheap next to the members they skip.
  options.clusters_per_shard =
      3 * static_cast<std::size_t>(std::sqrt(
              static_cast<double>(gallery.num_subjects / options.num_shards)));
  options.retain_full_columns = false;  // Memory-lean serving.
  options.parallel.num_threads = flag_threads;

  std::printf("gallery: %zu subjects x %zu features, %zu selected, "
              "%zu shards, %zu threads%s\n\n",
              gallery.num_subjects, gallery.num_features, options.num_features,
              options.num_shards, threads, fast ? " [fast mode]" : "");

  // --- Enrollment: fit on a reference sample, stream the rest in slices.
  Stopwatch enroll_clock;
  auto reference =
      service::MakeSyntheticGallerySlice(gallery, 0, 0, reference_subjects);
  NP_CHECK(reference.ok()) << reference.status().ToString();
  auto index = service::IdentificationIndex::Create(*reference, options);
  NP_CHECK(index.ok()) << index.status().ToString();
  for (std::size_t begin = reference_subjects; begin < gallery.num_subjects;
       begin += enroll_slice) {
    const std::size_t end =
        std::min(begin + enroll_slice, gallery.num_subjects);
    auto slice = service::MakeSyntheticGallerySlice(gallery, 0, begin, end);
    NP_CHECK(slice.ok()) << slice.status().ToString();
    NP_CHECK(index->EnrollBatch(*slice).ok());
  }
  const double enroll_seconds = enroll_clock.ElapsedSeconds();
  NP_CHECK(index->size() == gallery.num_subjects);
  const double enroll_per_sec =
      static_cast<double>(index->size()) / enroll_seconds;
  std::printf("enroll      %8zu subjects  %8.2f s   %10.0f subjects/s\n",
              index->size(), enroll_seconds, enroll_per_sec);

  // --- Batched identification, pruned vs. brute force (same probes).
  const connectome::GroupMatrix probes = MakeProbes(gallery, batch_probes);
  {
    // Build clusters outside the timed region (a real service amortizes
    // rebuilds across the query stream).
    auto warmup = index->IdentifyBatch(probes);
    NP_CHECK(warmup.ok()) << warmup.status().ToString();
  }
  Stopwatch pruned_clock;
  auto pruned = index->IdentifyBatch(probes);
  const double pruned_seconds = pruned_clock.ElapsedSeconds();
  NP_CHECK(pruned.ok()) << pruned.status().ToString();

  Stopwatch brute_clock;
  auto brute = index->IdentifyBatchBruteForce(probes);
  const double brute_seconds = brute_clock.ElapsedSeconds();
  NP_CHECK(brute.ok()) << brute.status().ToString();

  CheckTopOneParity(*pruned, *brute);
  const double n_probes = static_cast<double>(probes.num_subjects());
  const double pruned_per_sec = n_probes / pruned_seconds;
  const double brute_per_sec = n_probes / brute_seconds;
  const double speedup = brute_seconds / pruned_seconds;
  double scanned = 0.0;
  for (const auto& match : pruned->matches) {
    scanned += static_cast<double>(match.candidates_scanned);
  }
  const double scanned_fraction =
      scanned / (n_probes * static_cast<double>(index->size()));
  std::printf("identify    pruned %10.0f probes/s   brute %10.0f probes/s   "
              "speedup %.2fx   scanned %.1f%%\n",
              pruned_per_sec, brute_per_sec, speedup,
              100.0 * scanned_fraction);
  std::printf("accuracy    pruned %.4f   brute %.4f (top-1, %zu probes)\n",
              pruned->accuracy, brute->accuracy, probes.num_subjects());
  if (!fast) {
    // Acceptance: >= 5x brute-force throughput on the >= 50k gallery.
    NP_CHECK(speedup >= 5.0) << "cluster pruning speedup " << speedup
                             << "x is below the 5x acceptance bar";
  }

  // --- Single-probe latency percentiles.
  std::vector<double> latencies;
  latencies.reserve(latency_probes);
  for (std::size_t p = 0; p < latency_probes; ++p) {
    const std::size_t col = p % probes.num_subjects();
    const linalg::Vector probe = probes.SubjectColumn(col);
    Stopwatch clock;
    auto match = index->Identify(probe);
    latencies.push_back(clock.ElapsedSeconds());
    NP_CHECK(match.ok()) << match.status().ToString();
  }
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  std::printf("latency     p50 %8.3f ms   p99 %8.3f ms (%zu probes)\n\n",
              1e3 * p50, 1e3 * p99, latency_probes);

  bench::JsonReporter json;
  json.BeginRecord("service_identify");
  json.AddField("gallery_subjects", static_cast<double>(index->size()));
  json.AddField("full_features", static_cast<double>(gallery.num_features));
  json.AddField("selected_features",
                static_cast<double>(index->selected_features().size()));
  json.AddField("num_shards", static_cast<double>(options.num_shards));
  json.AddField("threads", static_cast<double>(threads));
  json.AddField("batch_probes", n_probes);
  json.AddField("enroll_per_sec", enroll_per_sec);
  json.AddField("identify_per_sec_pruned", pruned_per_sec);
  json.AddField("identify_per_sec_brute", brute_per_sec);
  json.AddField("speedup", speedup);
  json.AddField("candidates_scanned_fraction", scanned_fraction);
  json.AddField("top1_accuracy_pruned", pruned->accuracy);
  json.AddField("top1_accuracy_brute", brute->accuracy);
  json.AddField("p50_seconds", p50);
  json.AddField("p99_seconds", p99);

  // --- Paper-shape parity: the S900 release dimensions (64620 features,
  // ~100 subjects). Shards stay flat at this population, so this checks
  // the no-pruning path and the subspace fit at the real aspect ratio.
  {
    service::SyntheticGalleryConfig paper;
    paper.num_subjects = fast ? 32 : 100;
    paper.num_features = fast ? 4096 : 64620;
    paper.noise_scale = 0.35;
    paper.seed = 0x900ULL;
    paper.parallel.num_threads = flag_threads;
    service::IndexOptions paper_options;
    paper_options.num_features = 100;
    paper_options.parallel.num_threads = flag_threads;
    auto paper_gallery = service::MakeSyntheticGallery(paper, 0);
    NP_CHECK(paper_gallery.ok());
    auto paper_index =
        service::IdentificationIndex::Create(*paper_gallery, paper_options);
    NP_CHECK(paper_index.ok()) << paper_index.status().ToString();
    auto paper_probes = service::MakeSyntheticGallery(paper, 1);
    NP_CHECK(paper_probes.ok());
    auto paper_pruned = paper_index->IdentifyBatch(*paper_probes);
    auto paper_brute = paper_index->IdentifyBatchBruteForce(*paper_probes);
    NP_CHECK(paper_pruned.ok() && paper_brute.ok());
    CheckTopOneParity(*paper_pruned, *paper_brute);
    std::printf("paper shape %zu x %zu: accuracy %.4f (== brute %.4f)\n",
                paper.num_features, paper.num_subjects,
                paper_pruned->accuracy, paper_brute->accuracy);
    json.BeginRecord("service_paper_shape");
    json.AddField("gallery_subjects", static_cast<double>(paper.num_subjects));
    json.AddField("full_features", static_cast<double>(paper.num_features));
    json.AddField("top1_accuracy_pruned", paper_pruned->accuracy);
    json.AddField("top1_accuracy_brute", paper_brute->accuracy);
  }

  // --- Mutation cost against gallery size (non-durable, so no journal).
  // Rounds at N and 4N alternate, so host drift during the section moves
  // both sides of each per-round ratio alike; the gate takes the median
  // of the per-round ratios.
  {
    constexpr std::size_t kMutateRuns = 7;
    const std::size_t small = 8000;
    MutateFixture at_n = MakeMutateFixture(gallery, options, small);
    MutateFixture at_4n = MakeMutateFixture(gallery, options, 4 * small);
    std::vector<double> remove_n, remove_4n, remove_ratio;
    std::vector<double> enroll_n, enroll_4n, enroll_ratio;
    for (std::size_t run = 0; run < kMutateRuns; ++run) {
      const auto [rn, en] = MutateRound(at_n);
      const auto [r4, e4] = MutateRound(at_4n);
      remove_n.push_back(rn);
      remove_4n.push_back(r4);
      remove_ratio.push_back(r4 / rn);
      enroll_n.push_back(en);
      enroll_4n.push_back(e4);
      enroll_ratio.push_back(e4 / en);
    }
    const double ratio = Percentile(remove_ratio, 0.5);
    std::printf("mutate      remove %.2f -> %.2f us/subject (%.2fx)   "
                "enroll %.2f -> %.2f us/subject (%.2fx)   at %zu -> %zu\n",
                Percentile(remove_n, 0.5), Percentile(remove_4n, 0.5), ratio,
                Percentile(enroll_n, 0.5), Percentile(enroll_4n, 0.5),
                Percentile(enroll_ratio, 0.5), small, 4 * small);
    json.BeginRecord("service_mutate");
    json.AddField("subjects_n", static_cast<double>(small));
    json.AddField("subjects_4n", static_cast<double>(4 * small));
    json.AddField("remove_us_n", Percentile(remove_n, 0.5));
    json.AddField("remove_us_4n", Percentile(remove_4n, 0.5));
    json.AddField("remove_ratio", ratio);
    json.AddField("enroll_us_n", Percentile(enroll_n, 0.5));
    json.AddField("enroll_us_4n", Percentile(enroll_4n, 0.5));
    json.AddField("enroll_ratio", Percentile(enroll_ratio, 0.5));
    NP_CHECK(ratio < 2.0)
        << "Remove costs " << ratio << "x per subject at 4x the gallery: "
        << "removals scale with the shard, not its log";
  }

  bench::AppendMetricsRecords(json);
  bench::WriteJsonOrDie(json, json_path);
  bench::WriteTraceOrDie(trace_path);
  bench::WriteMetricsOrDie(metrics_path);
  return 0;
}
