#include "preprocess/pipeline.h"

#include <cmath>
#include <string>
#include <utility>

#include "connectome/connectome.h"
#include "linalg/stats.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace neuroprint::preprocess {
namespace {

// Per-frame sum and brain-voxel count; the building block for both the
// grand mean and the global signal, parallel over frames.
struct FrameSum {
  double sum = 0.0;
  std::size_t count = 0;
};

FrameSum SumFrame(const image::Volume4D& run, const image::Mask& mask,
                  std::size_t t) {
  const float* vol = run.VolumePtr(t);
  FrameSum fs;
  std::size_t i = 0;
  for (std::size_t z = 0; z < run.nz(); ++z) {
    for (std::size_t y = 0; y < run.ny(); ++y) {
      for (std::size_t x = 0; x < run.nx(); ++x, ++i) {
        if (mask.at(x, y, z)) {
          fs.sum += static_cast<double>(vol[i]);
          ++fs.count;
        }
      }
    }
  }
  return fs;
}

// Mean intensity across brain voxels over the whole run. Per-frame sums
// combine in frame order, so the result is thread-count-invariant.
double GrandMean(const image::Volume4D& run, const image::Mask& mask,
                 const ParallelContext& ctx) {
  const FrameSum total = ParallelReduce(
      ctx, 0, run.nt(), 1, FrameSum{},
      [&](std::size_t t_lo, std::size_t t_hi) {
        FrameSum fs;
        for (std::size_t t = t_lo; t < t_hi; ++t) {
          const FrameSum frame = SumFrame(run, mask, t);
          fs.sum += frame.sum;
          fs.count += frame.count;
        }
        return fs;
      },
      [](FrameSum acc, FrameSum part) {
        acc.sum += part.sum;
        acc.count += part.count;
        return acc;
      });
  return total.count > 0 ? total.sum / static_cast<double>(total.count) : 0.0;
}

// Mean brain-voxel intensity per frame: the global signal. Frames are
// independent, so the parallel loop is bitwise-identical to the serial one.
std::vector<double> GlobalSignal(const image::Volume4D& run,
                                 const image::Mask& mask,
                                 const ParallelContext& ctx) {
  std::vector<double> global(run.nt(), 0.0);
  ParallelFor(ctx, 0, run.nt(), 1, [&](std::size_t t_lo, std::size_t t_hi) {
    for (std::size_t t = t_lo; t < t_hi; ++t) {
      const FrameSum fs = SumFrame(run, mask, t);
      global[t] = fs.count > 0 ? fs.sum / static_cast<double>(fs.count) : 0.0;
    }
  });
  return global;
}

}  // namespace

PipelineConfig RestingStateConfig() {
  PipelineConfig config;
  config.temporal_filter = TemporalFilter::kRestingStateBandPass;
  config.global_signal_regression = true;
  return config;
}

PipelineConfig TaskConfig() {
  PipelineConfig config;
  config.temporal_filter = TemporalFilter::kTaskHighPass;
  config.global_signal_regression = false;
  return config;
}

Status CleanRegionSeries(linalg::Matrix& series, const PipelineConfig& config,
                         double tr_seconds,
                         const std::vector<double>& global_signal) {
  const std::size_t regions = series.rows();
  const std::size_t nt = series.cols();
  if (regions == 0 || nt == 0) {
    return Status::InvalidArgument("CleanRegionSeries: empty series matrix");
  }

  // Each temporal-cleanup stage treats regions independently, so the loops
  // parallelize per region with bitwise-identical results.

  // Detrend.
  if (config.detrend_degree >= 0 &&
      static_cast<std::size_t>(config.detrend_degree) < nt) {
    NP_TRACE_SCOPE("pipeline.cleanup.detrend");
    NP_RETURN_IF_ERROR(ParallelForStatus(
        config.parallel, 0, regions, 1,
        [&](std::size_t r_lo, std::size_t r_hi) -> Status {
          for (std::size_t r = r_lo; r < r_hi; ++r) {
            auto detrended = signal::DetrendPolynomial(series.RowCopy(r),
                                                       config.detrend_degree);
            if (!detrended.ok()) return detrended.status();
            series.SetRow(r, *detrended);
          }
          return Status::OK();
        }));
  }

  // Temporal filter.
  if (config.temporal_filter != TemporalFilter::kNone) {
    signal::BandPassConfig band;
    band.tr_seconds = tr_seconds;
    if (config.temporal_filter == TemporalFilter::kRestingStateBandPass) {
      band.low_cutoff_hz = 0.008;
      band.high_cutoff_hz = 0.1;
    } else {
      band.low_cutoff_hz = 1.0 / 200.0;
      band.high_cutoff_hz = 0.0;
      band.transition_width_hz = 0.25 / 200.0;
    }
    // Skip filtering when the scan is too short/coarse to resolve the band
    // (the filter itself rejects cutoffs above Nyquist).
    const double nyquist = 0.5 / tr_seconds;
    if (band.high_cutoff_hz < nyquist) {
      NP_TRACE_SCOPE("pipeline.cleanup.filter");
      NP_RETURN_IF_ERROR(ParallelForStatus(
          config.parallel, 0, regions, 1,
          [&](std::size_t r_lo, std::size_t r_hi) -> Status {
            for (std::size_t r = r_lo; r < r_hi; ++r) {
              auto filtered = signal::BandPassFilter(series.RowCopy(r), band);
              if (!filtered.ok()) return filtered.status();
              series.SetRow(r, *filtered);
            }
            return Status::OK();
          }));
    }
  }

  // Global-signal regression. The regressor gets the same detrend/filter
  // treatment implicitly when derived from the cleaned series; an external
  // (voxel-derived) global signal is used as given.
  if (config.global_signal_regression) {
    NP_TRACE_SCOPE("pipeline.cleanup.gsr");
    std::vector<double> global = global_signal;
    if (global.empty()) {
      const linalg::Vector col_means = linalg::ColMeans(series);
      global.assign(col_means.begin(), col_means.end());
    }
    if (global.size() != nt) {
      return Status::InvalidArgument(
          "CleanRegionSeries: global signal length mismatch");
    }
    NP_RETURN_IF_ERROR(ParallelForStatus(
        config.parallel, 0, regions, 1,
        [&](std::size_t r_lo, std::size_t r_hi) -> Status {
          for (std::size_t r = r_lo; r < r_hi; ++r) {
            auto residual = signal::RegressOut(series.RowCopy(r), global);
            if (!residual.ok()) return residual.status();
            series.SetRow(r, *residual);
          }
          return Status::OK();
        }));
  }

  if (config.zscore_series) {
    NP_TRACE_SCOPE("pipeline.cleanup.zscore");
    linalg::ZScoreRowsInPlace(series, config.parallel);
  }
  return Status::OK();
}

Result<PipelineOutput> RunPipeline(const image::Volume4D& raw,
                                   const atlas::Atlas& atlas,
                                   const PipelineConfig& config) {
  if (raw.empty()) return Status::InvalidArgument("RunPipeline: empty run");
  if (!raw.AllFinite()) {
    return Status::InvalidArgument("RunPipeline: non-finite voxels in input");
  }
  if (raw.nx() != atlas.nx() || raw.ny() != atlas.ny() ||
      raw.nz() != atlas.nz()) {
    return Status::InvalidArgument("RunPipeline: run and atlas grids differ");
  }

  trace::ScopedEnable trace_enable(config.trace.enabled);
  fault::ScopedSchedule fault_schedule(config.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("pipeline.run");
  metrics::Count("pipeline.runs", 1);
  metrics::SetGauge("pipeline.voxels_per_frame",
                    static_cast<double>(raw.nx() * raw.ny() * raw.nz()));
  metrics::SetGauge("pipeline.frames", static_cast<double>(raw.nt()));

  PipelineOutput output;
  image::Volume4D run = raw;
  Stopwatch stage_clock;
  auto log_stage = [&](const char* name) {
    const double seconds = stage_clock.ElapsedSeconds();
    output.stage_seconds.emplace_back(name, seconds);
    if (trace::Enabled()) {
      metrics::Observe(std::string("pipeline.stage_seconds.") + name, seconds);
    }
    stage_clock.Restart();
  };

  if (config.slice_time_correction && run.nz() > 1 && run.nt() > 2) {
    NP_TRACE_SCOPE("pipeline.slice_timing");
    NP_FAULT_POINT("pipeline.slice_timing");
    auto corrected =
        SliceTimeCorrect(run, config.slice_order, /*reference_slice=*/0,
                         signal::InterpKind::kWindowedSinc, config.parallel);
    if (!corrected.ok()) return corrected.status();
    run = std::move(corrected).value();
    log_stage("slice_timing");
  }

  if (config.motion_correction && run.nt() > 1) {
    NP_TRACE_SCOPE("pipeline.motion_correction");
    // A non-fail-fast policy arms the per-frame identity fallback, so a
    // single unregistrable frame degrades the scan instead of failing it.
    image::RegistrationOptions registration = config.registration;
    if (config.failure_policy.mode != FailureMode::kFailFast) {
      registration.identity_fallback_on_failure = true;
    }
    auto corrected =
        image::MotionCorrect(run, registration, config.parallel);
    if (!corrected.ok()) return corrected.status();
    run = std::move(corrected->corrected);
    output.motion = std::move(corrected->motion);
    output.degraded_frames = std::move(corrected->degraded_frames);
    log_stage("motion_correction");
  }

  {
    NP_TRACE_SCOPE("pipeline.masking");
    NP_FAULT_POINT("pipeline.masking");
    auto mask = image::ComputeBrainMask(run, config.mask_fraction);
    if (!mask.ok()) return mask.status();
    output.mask = std::move(mask).value();
    image::ApplyMask(run, output.mask);
    log_stage("masking");
  }

  if (config.smoothing_fwhm_mm > 0.0) {
    NP_TRACE_SCOPE("pipeline.smoothing");
    auto smoothed = image::GaussianSmooth4D(run, config.smoothing_fwhm_mm,
                                            config.parallel);
    if (!smoothed.ok()) return smoothed.status();
    run = std::move(smoothed).value();
    log_stage("smoothing");
  }

  // Global signal is taken after masking/smoothing, before scaling (the
  // regression is scale-invariant either way). Its cost is charged to the
  // intensity_normalization stage in the timing log.
  std::vector<double> global;
  {
    NP_TRACE_SCOPE("pipeline.global_signal");
    global = GlobalSignal(run, output.mask, config.parallel);
  }

  if (config.intensity_normalization) {
    NP_TRACE_SCOPE("pipeline.intensity_normalization");
    const double grand_mean = GrandMean(run, output.mask, config.parallel);
    if (grand_mean > 0.0) {
      const float scale =
          static_cast<float>(config.grand_mean_target / grand_mean);
      for (float& v : run.flat()) v *= scale;
    }
    log_stage("intensity_normalization");
  }

  {
    NP_TRACE_SCOPE("pipeline.region_averaging");
    NP_FAULT_POINT("pipeline.region_averaging");
    auto series = atlas::ExtractRegionTimeSeries(run, atlas);
    if (!series.ok()) return series.status();
    output.region_series = std::move(series).value();
    log_stage("region_averaging");
  }
  metrics::SetGauge("pipeline.regions",
                    static_cast<double>(output.region_series.rows()));

  {
    NP_TRACE_SCOPE("pipeline.temporal_cleanup");
    NP_FAULT_POINT("pipeline.temporal_cleanup");
    NP_RETURN_IF_ERROR(CleanRegionSeries(output.region_series, config,
                                         run.spacing().tr_seconds, global));
    log_stage("temporal_cleanup");
  }
  return output;
}

namespace {

// Takes scan `i` from `source` to its connectome column. On failure `*stage`
// names the step that failed.
Status ScanToColumn(const RunSource& source, std::size_t i,
                    const atlas::Atlas& atlas, const PipelineConfig& config,
                    const char** stage,
                    std::vector<std::size_t>* degraded_frames,
                    linalg::Vector* column) {
  *stage = "load";
  Result<image::Volume4D> run = source(i);
  if (!run.ok()) return run.status();

  *stage = "pipeline";
  NP_FAULT_POINT_KEYED("pipeline.batch_item", i);
  Result<PipelineOutput> output = RunPipeline(*run, atlas, config);
  if (!output.ok()) return output.status();
  *degraded_frames = std::move(output->degraded_frames);

  *stage = "connectome";
  Result<linalg::Matrix> conn =
      connectome::BuildConnectome(output->region_series, config.parallel);
  if (!conn.ok()) return conn.status();
  Result<linalg::Vector> features = connectome::VectorizeUpperTriangle(*conn);
  if (!features.ok()) return features.status();
  *column = std::move(features).value();
  return Status::OK();
}

BatchItemReport ItemReport(std::size_t index,
                           const std::vector<std::string>& ids,
                           const char* stage) {
  BatchItemReport item;
  item.index = index;
  if (!ids.empty()) item.id = ids[index];
  item.stage = stage;
  return item;
}

}  // namespace

Result<BatchReport> RunScansToColumns(const RunSource& source,
                                      std::size_t num_runs,
                                      const std::vector<std::string>& ids,
                                      const atlas::Atlas& atlas,
                                      const PipelineConfig& config,
                                      const ColumnSink& sink) {
  if (source == nullptr || sink == nullptr) {
    return Status::InvalidArgument(
        "RunScansToColumns: null run source or column sink");
  }
  if (!ids.empty() && ids.size() != num_runs) {
    return Status::InvalidArgument(StrFormat(
        "RunScansToColumns: %zu ids for %zu runs", ids.size(), num_runs));
  }
  trace::ScopedEnable trace_enable(config.trace.enabled);
  // Installed once for the whole call; RunPipeline must not install it
  // again per scan.
  fault::ScopedSchedule fault_schedule(config.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("pipeline.batch");

  PipelineConfig item_config = config;
  item_config.fault.schedule.clear();
  BatchReport report;
  report.attempted = num_runs;
  for (std::size_t i = 0; i < num_runs; ++i) {
    const char* stage = nullptr;
    std::vector<std::size_t> degraded_frames;
    linalg::Vector column;
    Status status = ScanToColumn(source, i, atlas, item_config, &stage,
                                 &degraded_frames, &column);
    if (!status.ok()) {
      BatchItemReport item = ItemReport(i, ids, stage);
      item.status = std::move(status);
      report.failed.push_back(std::move(item));
      if (config.failure_policy.mode == FailureMode::kFailFast) break;
      continue;
    }
    if (!degraded_frames.empty()) {
      BatchItemReport item = ItemReport(i, ids, "motion_correction");
      for (std::size_t frame : degraded_frames) {
        item.degradations.push_back(
            StrFormat("identity_transform_frame_%zu", frame));
      }
      report.degraded.push_back(std::move(item));
    }
    NP_RETURN_IF_ERROR(sink(i, std::move(column)));
  }

  if (!report.degraded.empty()) {
    metrics::Count("batch.subjects_degraded", report.degraded.size());
  }
  NP_RETURN_IF_ERROR(ResolveBatch(config.failure_policy, report));
  if (!report.failed.empty()) {
    metrics::Count("batch.subjects_skipped", report.failed.size());
  }
  return report;
}

}  // namespace neuroprint::preprocess
