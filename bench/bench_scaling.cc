// Microbenchmarks (google-benchmark) for the computational claims of
// Section 1: the attack's kernels are "computationally inexpensive and
// scale to large datasets". Covers the leverage fit, the matcher,
// the FFT filters, connectome construction, and t-SNE per-iteration cost.
//
// `--threads=N` (stripped before google-benchmark sees the flags) sets
// the worker count for the parallelized kernels and prints a
// speedup-vs-1-thread table for the two gemm-bound kernels before the
// microbenchmark suite runs. Before that, comparison tables quantify this
// repo's kernel work: the tiled GEMM micro-kernels against the pre-tiling
// naive triple loops (kept here as baselines), the fused leverage
// projection against MatMul plus a row-norm pass, and the dispatched SIMD
// kernels against the scalar reference table (per-ISA, with a
// bitwise-equality assertion). Pass `--json=PATH` to also emit those
// comparisons as a JSON record array (the committed BENCH_gemm.json); a
// CSV lands next to the binary either way.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "connectome/connectome.h"
#include "core/leverage.h"
#include "core/matcher.h"
#include "core/row_sampling.h"
#include "core/tsne.h"
#include "linalg/gemm_kernel.h"
#include "linalg/matrix.h"
#include "linalg/simd/simd.h"
#include "linalg/stats.h"
#include "signal/filters.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace neuroprint {
namespace {

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

void BM_LeverageScores(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = RandomMatrix(rows, 100, 2);
  for (auto _ : state) {
    auto scores = core::ComputeLeverageScores(a);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_LeverageScores)
    ->Arg(6670)
    ->Arg(64620)
    ->Unit(benchmark::kMillisecond);

void BM_RowSampling(benchmark::State& state) {
  const linalg::Matrix a = RandomMatrix(64620, 100, 3);
  Rng rng(4);
  for (auto _ : state) {
    auto sample =
        core::SampleRows(a, 100, core::SamplingDistribution::kL2Norm, rng);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_RowSampling)->Unit(benchmark::kMillisecond);

void BM_SimilarityMatcher(benchmark::State& state) {
  const auto subjects = static_cast<std::size_t>(state.range(0));
  const auto features = static_cast<std::size_t>(state.range(1));
  const linalg::Matrix a = RandomMatrix(features, subjects, 5);
  const linalg::Matrix b = RandomMatrix(features, subjects, 6);
  for (auto _ : state) {
    auto sim = linalg::ColumnCrossCorrelation(a, b);
    benchmark::DoNotOptimize(sim);
  }
}
BENCHMARK(BM_SimilarityMatcher)
    ->Args({100, 100})
    ->Args({100, 64620})
    ->Args({1000, 100})
    ->Unit(benchmark::kMillisecond);

void BM_ConnectomeBuild(benchmark::State& state) {
  const auto regions = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix series = RandomMatrix(regions, 300, 7);
  for (auto _ : state) {
    auto conn = connectome::BuildConnectome(series);
    benchmark::DoNotOptimize(conn);
  }
}
BENCHMARK(BM_ConnectomeBuild)
    ->Arg(116)
    ->Arg(360)
    ->Unit(benchmark::kMillisecond);

void BM_BandPassFilter(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> x(frames);
  for (double& v : x) v = rng.Gaussian();
  signal::BandPassConfig config;
  for (auto _ : state) {
    auto y = signal::BandPassFilter(x, config);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_BandPassFilter)->Arg(300)->Arg(1200)->Arg(4096);

void BM_TsneIterations(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix data = RandomMatrix(points, 30, 9);
  core::TsneOptions options;
  options.max_iterations = 25;
  options.exaggeration_iterations = 10;
  options.perplexity = 10.0;
  for (auto _ : state) {
    auto result = core::TsneEmbed(data, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["iters_per_run"] = options.max_iterations;
}
BENCHMARK(BM_TsneIterations)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

// Pre-tiling GEMM baselines: the serial form of the exact loops
// src/linalg/matrix.cc shipped immediately before the micro-kernel layer
// (per-output-row accumulation with zero-skips and the Gram symmetry
// trick), kept here so the comparison measures the tiling win against the
// real predecessor rather than a strawman.
linalg::Matrix NaiveMatMul(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

linalg::Matrix NaiveMatTMul(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  }
  return out;
}

linalg::Matrix NaiveGram(const linalg::Matrix& a) {
  linalg::Matrix out(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) out(i, j) += aki * a(k, j);
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

}  // namespace

// Single-thread comparison of the tiled GEMM micro-kernels against the
// pre-tiling naive loops, and of the fused leverage projection against
// MatMul plus a row-norm pass, at the paper's 64620 x 100 group-matrix
// shape (shrunk under NEUROPRINT_BENCH_FAST). Results go to stdout, to
// scaling_kernels.csv, and — when --json was given — to the JSON report.
void ReportKernelComparisons(bench::JsonReporter* json) {
  const std::size_t rows = bench::FastMode() ? 6462 : 64620;
  const std::size_t cols = 100;
  CsvWriter csv;
  csv.SetHeader({"kernel", "rows", "cols", "baseline_sec", "optimized_sec",
                 "speedup"});
  char buf[64];
  const auto format = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const auto emit = [&](const char* name, const char* baseline_kind,
                        double baseline_sec, double optimized_sec) {
    const double speedup =
        optimized_sec > 0.0 ? baseline_sec / optimized_sec : 0.0;
    std::printf("%-24s %11.3fs %11.3fs %7.2fx\n", name, baseline_sec,
                optimized_sec, speedup);
    csv.AddRow({name, format(static_cast<double>(rows)),
                format(static_cast<double>(cols)), format(baseline_sec),
                format(optimized_sec), format(speedup)});
    if (json != nullptr) {
      json->BeginRecord(name);
      json->AddTextField("baseline", baseline_kind);
      json->AddField("rows", static_cast<double>(rows));
      json->AddField("cols", static_cast<double>(cols));
      json->AddField("baseline_sec", baseline_sec);
      json->AddField("optimized_sec", optimized_sec);
      json->AddField("speedup", speedup);
    }
  };

  ScopedDefaultThreadCount serial(1);
  std::printf("kernel comparison (1 thread, %zu x %zu):\n", rows, cols);
  std::printf("%-24s %12s %12s %8s\n", "kernel", "baseline s", "tiled s",
              "speedup");
  {
    const linalg::Matrix a = RandomMatrix(rows, cols, 31);
    const linalg::Matrix b = RandomMatrix(rows, cols, 32);
    const linalg::Matrix c = RandomMatrix(cols, cols, 33);
    Stopwatch clock;
    auto naive = NaiveMatTMul(a, b);
    const double naive_att = clock.ElapsedSeconds();
    clock.Restart();
    auto tiled = linalg::MatTMul(a, b);
    emit("mattmul", "pre-tiling loops", naive_att, clock.ElapsedSeconds());
    benchmark::DoNotOptimize(naive);
    benchmark::DoNotOptimize(tiled);

    clock.Restart();
    auto naive_gram = NaiveGram(a);
    const double naive_g = clock.ElapsedSeconds();
    clock.Restart();
    auto tiled_gram = linalg::Gram(a);
    emit("gram", "pre-tiling loops", naive_g, clock.ElapsedSeconds());
    benchmark::DoNotOptimize(naive_gram);
    benchmark::DoNotOptimize(tiled_gram);

    clock.Restart();
    auto naive_mm = NaiveMatMul(a, c);
    const double naive_m = clock.ElapsedSeconds();
    clock.Restart();
    auto tiled_mm = linalg::MatMul(a, c);
    emit("matmul", "pre-tiling loops", naive_m, clock.ElapsedSeconds());
    benchmark::DoNotOptimize(naive_mm);
    benchmark::DoNotOptimize(tiled_mm);

    // The leverage projection: U = A C materialized and folded into squared
    // row norms, against the fused kernel that never forms U. Same bits.
    clock.Restart();
    const linalg::Matrix u = linalg::MatMul(a, c);
    linalg::Vector unfused(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < cols; ++j) sum += u(i, j) * u(i, j);
      unfused[i] = sum;
    }
    const double unfused_sec = clock.ElapsedSeconds();
    linalg::Vector fused(rows);
    clock.Restart();
    linalg::ProjectedRowSquaredNorms(a, c, fused.data());
    emit("leverage_projection", "MatMul + row norms", unfused_sec,
         clock.ElapsedSeconds());
    NP_CHECK(std::memcmp(unfused.data(), fused.data(),
                         rows * sizeof(double)) == 0)
        << "fused projection differs from MatMul + row norms";
  }
  std::printf("\n");
  bench::WriteCsvOrDie(csv, "scaling_kernels.csv");
}

// Per-ISA kernel comparison: times the gemm-bound and correlation kernels
// under the scalar dispatch table and under the best CPU-supported table
// (ScopedIsa swap; same process, same inputs). The determinism contract
// makes the scalar run a bitwise oracle for the vector run, which is
// asserted here — so the reported speedup can never come from a kernel
// that silently changed the math. One JSON record per kernel per ISA
// (BeginRecord stamps dispatch_isa while the override is active).
void ReportIsaKernels(bench::JsonReporter* json) {
  namespace simd = linalg::simd;
  const std::size_t rows = bench::FastMode() ? 6462 : 64620;
  const std::size_t cols = 100;
  const linalg::Matrix a = RandomMatrix(rows, cols, 51);
  const linalg::Matrix b = RandomMatrix(rows, cols, 52);
  const linalg::Matrix series = RandomMatrix(360, 1200, 53);

  struct Kernel {
    const char* name;
    linalg::Matrix (*run)(const linalg::Matrix&, const linalg::Matrix&);
  };
  const Kernel kernels[] = {
      {"mattmul",
       [](const linalg::Matrix& x, const linalg::Matrix& y) {
         return linalg::MatTMul(x, y);
       }},
      {"gram",
       [](const linalg::Matrix& x, const linalg::Matrix&) {
         return linalg::Gram(x);
       }},
      {"row_correlation",
       [](const linalg::Matrix&, const linalg::Matrix& s) {
         return linalg::RowCorrelation(s);
       }},
  };

  ScopedDefaultThreadCount serial(1);
  const simd::Isa best = simd::BestSupportedIsa();
  std::printf("per-ISA kernels (1 thread, scalar vs %s):\n",
              simd::IsaName(best));
  std::printf("%-24s %11s %11s %8s\n", "kernel", "scalar s",
              simd::IsaName(best), "speedup");
  for (const Kernel& kernel : kernels) {
    double scalar_sec = 0.0;
    linalg::Matrix scalar_out;
    {
      simd::ScopedIsa isa(simd::Isa::kScalar);
      Stopwatch clock;
      scalar_out = kernel.run(a, kernel.name == std::string("row_correlation")
                                     ? series
                                     : b);
      scalar_sec = clock.ElapsedSeconds();
      if (json != nullptr) {
        json->BeginRecord(std::string("isa/") + kernel.name);
        json->AddField("rows", static_cast<double>(rows));
        json->AddField("cols", static_cast<double>(cols));
        json->AddField("seconds", scalar_sec);
      }
    }
    simd::ScopedIsa isa(best);
    Stopwatch clock;
    const linalg::Matrix simd_out = kernel.run(
        a, kernel.name == std::string("row_correlation") ? series : b);
    const double simd_sec = clock.ElapsedSeconds();
    // The contract, enforced: vector kernels may only be faster, never
    // different.
    NP_CHECK((scalar_out - simd_out).MaxAbs() == 0.0)
        << kernel.name << " diverged between scalar and "
        << simd::IsaName(best);
    const double speedup = simd_sec > 0.0 ? scalar_sec / simd_sec : 0.0;
    std::printf("%-24s %10.3fs %10.3fs %7.2fx\n", kernel.name, scalar_sec,
                simd_sec, speedup);
    if (json != nullptr) {
      json->BeginRecord(std::string("isa/") + kernel.name);
      json->AddField("rows", static_cast<double>(rows));
      json->AddField("cols", static_cast<double>(cols));
      json->AddField("seconds", simd_sec);
      json->AddField("speedup_vs_scalar", speedup);
    }
  }
  std::printf("\n");
}

// Times one run of `fn` at 1 thread and at `threads`, printing the
// speedup. The kernels are deterministic across thread counts, so the
// two runs produce bitwise-identical results and only wall-clock moves.
template <typename Fn>
void ReportKernelScaling(const char* name, std::size_t threads, Fn&& fn) {
  double sec_1t = 0.0;
  {
    ScopedDefaultThreadCount serial(1);
    Stopwatch clock;
    fn();
    sec_1t = clock.ElapsedSeconds();
  }
  ScopedDefaultThreadCount parallel(threads);
  Stopwatch clock;
  fn();
  const double sec_nt = clock.ElapsedSeconds();
  std::printf("%-24s %10.3fs %10.3fs %7.2fx\n", name, sec_1t, sec_nt,
              sec_nt > 0.0 ? sec_1t / sec_nt : 0.0);
}

void ReportThreadScaling(std::size_t threads) {
  std::printf("thread scaling (1 -> %zu threads):\n", threads);
  std::printf("%-24s %11s %11s %8s\n", "kernel", "sec @1t", "sec @Nt",
              "speedup");
  const linalg::Matrix series = RandomMatrix(360, 1200, 21);
  ReportKernelScaling("connectome_build", threads, [&] {
    auto conn = connectome::BuildConnectome(series);
    benchmark::DoNotOptimize(conn);
  });
  const linalg::Matrix known = RandomMatrix(6670, 100, 22);
  const linalg::Matrix anonymous = RandomMatrix(6670, 100, 23);
  ReportKernelScaling("similarity_matcher", threads, [&] {
    auto sim = linalg::ColumnCrossCorrelation(known, anonymous);
    benchmark::DoNotOptimize(sim);
  });
  std::printf("\n");
}

}  // namespace neuroprint

int main(int argc, char** argv) {
  const std::size_t flag_threads =
      neuroprint::bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = neuroprint::bench::ParseJsonFlag(&argc, argv);
  const std::size_t threads =
      neuroprint::ResolveThreadCount(neuroprint::ParallelContext{flag_threads});
  neuroprint::bench::JsonReporter json;
  neuroprint::ReportKernelComparisons(&json);
  neuroprint::ReportIsaKernels(&json);
  neuroprint::bench::WriteJsonOrDie(json, json_path);
  neuroprint::ReportThreadScaling(threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
