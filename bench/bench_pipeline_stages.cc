// Figure 4 (the preprocessing pipeline): per-stage wall-clock cost of the
// full voxel-level pipeline on a rendered synthetic run with planted
// artifacts. The paper presents the pipeline as a diagram; this bench
// realizes it and reports where the time goes.
//
// Threading: `--threads=N` (default: NEUROPRINT_THREADS / hardware) sets
// the worker count for the parallelized stages. Every configuration is
// run twice — once at 1 thread as the baseline, once at N — and the
// per-stage speedup is reported; outputs are bitwise-identical across
// thread counts (see util/thread_pool.h), so only the times differ. The
// bench checks that: it aborts if the two region series differ.
// `--json=PATH` additionally emits the per-stage records as JSON.
// `--trace=PATH` / `--metrics=PATH` enable the observability layer
// (util/trace.h, util/metrics.h) and write the chrome://tracing span
// dump / metrics JSON; with `--json` the metrics also ride along as
// "metric/..." records.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "atlas/synthetic_atlas.h"
#include "bench/bench_util.h"
#include "connectome/connectome.h"
#include "preprocess/pipeline.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace neuroprint;

namespace {

// One full pipeline pass: stage name -> seconds (plus the connectome
// build on the resulting region series, which the attack always runs
// next and which is parallelized the same way), and the region series,
// which must not depend on the thread count.
struct StageTiming {
  std::vector<std::pair<std::string, double>> stages;
  linalg::Matrix region_series;
};

StageTiming TimeStages(const image::Volume4D& run, const atlas::Atlas& atlas,
                       preprocess::PipelineConfig config,
                       std::size_t threads) {
  config.parallel.num_threads = threads;
  auto output = preprocess::RunPipeline(run, atlas, config);
  NP_CHECK(output.ok()) << output.status().ToString();
  StageTiming timing{std::move(output->stage_seconds),
                     std::move(output->region_series)};
  Stopwatch clock;
  auto conn =
      connectome::BuildConnectome(timing.region_series, config.parallel);
  NP_CHECK(conn.ok()) << conn.status().ToString();
  timing.stages.emplace_back("connectome_build", clock.ElapsedSeconds());
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flag_threads = bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const std::string trace_path = bench::ParseTraceFlag(&argc, argv);
  const std::string metrics_path = bench::ParseMetricsFlag(&argc, argv);
  const std::size_t threads = ResolveThreadCount(
      ParallelContext{flag_threads});

  bench::PrintHeader("Figure 4", "preprocessing pipeline stage costs");

  // A Glasser-like atlas on the default grid, one resting scan rendered
  // to voxels with motion + drift planted.
  atlas::SyntheticAtlasConfig atlas_config;
  if (bench::FastMode()) {
    atlas_config.nx = 20;
    atlas_config.ny = 24;
    atlas_config.nz = 20;
    atlas_config.num_regions = 60;
  }
  auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  NP_CHECK(atlas.ok());

  sim::CohortConfig cohort_config = sim::HcpLikeConfig();
  cohort_config.num_subjects = 2;
  cohort_config.num_regions = atlas->num_regions();
  cohort_config.frames_override = bench::FastMode() ? 40 : 120;
  auto cohort = sim::CohortSimulator::Create(cohort_config);
  NP_CHECK(cohort.ok());
  auto series = cohort->SimulateRegionSeries(0, sim::TaskType::kRest,
                                             sim::Encoding::kLeftRight);
  NP_CHECK(series.ok());

  Rng rng(2024);
  sim::VoxelRenderConfig render;
  render.motion_step = 0.05;
  render.drift_amplitude = 15.0;
  Stopwatch clock;
  auto run = sim::RenderVoxelRun(*atlas, *series, render, rng);
  NP_CHECK(run.ok());
  std::printf("rendered %zux%zux%zux%zu run in %.1fs\n", run->nx(), run->ny(),
              run->nz(), run->nt(), clock.ElapsedSeconds());

  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.registration.sample_stride = 2;

  const StageTiming timed_1t = TimeStages(*run, *atlas, config, 1);
  const StageTiming timed_nt = TimeStages(*run, *atlas, config, threads);
  const linalg::Matrix& series_1t = timed_1t.region_series;
  const linalg::Matrix& series_nt = timed_nt.region_series;
  NP_CHECK(series_1t.rows() == series_nt.rows() &&
           series_1t.cols() == series_nt.cols() &&
           std::memcmp(series_1t.data(), series_nt.data(),
                       series_1t.size() * sizeof(double)) == 0)
      << "region series differ between 1 and " << threads << " threads";
  const auto& baseline = timed_1t.stages;
  const auto& threaded = timed_nt.stages;
  NP_CHECK_EQ(baseline.size(), threaded.size());

  double total_1t = 0.0;
  double total_nt = 0.0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    total_1t += baseline[i].second;
    total_nt += threaded[i].second;
  }

  CsvWriter csv;
  bench::JsonReporter json;
  csv.SetHeader({"stage", "seconds_1thread",
                 StrFormat("seconds_%zuthreads", threads), "speedup",
                 "percent_of_total"});
  std::printf("\nthreads: %zu (baseline: 1)\n", threads);
  std::printf("%-26s %12s %12s %8s %8s\n", "stage", "sec @1t",
              StrFormat("sec @%zut", threads).c_str(), "speedup", "share");
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const std::string& stage = baseline[i].first;
    const double sec_1t = baseline[i].second;
    const double sec_nt = threaded[i].second;
    const double speedup = sec_nt > 0.0 ? sec_1t / sec_nt : 0.0;
    std::printf("%-26s %12.3f %12.3f %7.2fx %7.1f%%\n", stage.c_str(), sec_1t,
                sec_nt, speedup, 100.0 * sec_nt / total_nt);
    csv.AddRow({stage, StrFormat("%.4f", sec_1t), StrFormat("%.4f", sec_nt),
                StrFormat("%.2f", speedup),
                StrFormat("%.1f", 100.0 * sec_nt / total_nt)});
    json.BeginRecord(stage);
    json.AddField("threads", static_cast<double>(threads));
    json.AddField("seconds_1thread", sec_1t);
    json.AddField("seconds_nthreads", sec_nt);
    json.AddField("speedup", speedup);
  }
  std::printf("%-26s %12.3f %12.3f %7.2fx %7s\n", "TOTAL", total_1t, total_nt,
              total_nt > 0.0 ? total_1t / total_nt : 0.0, "100%");
  if (!trace_path.empty() || !metrics_path.empty()) {
    bench::AppendMetricsRecords(json);
  }
  bench::WriteCsvOrDie(csv, "fig4_pipeline_stages.csv");
  bench::WriteJsonOrDie(json, json_path);
  bench::WriteTraceOrDie(trace_path);
  bench::WriteMetricsOrDie(metrics_path);
  return 0;
}
