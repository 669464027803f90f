// Thread-count-invariance golden tests: every parallelized stage of the
// attack pipeline must produce bitwise-identical output for 1, 2, and 8
// threads (the determinism contract of util/thread_pool.h). Floating-point
// addition is non-associative, so these tests fail loudly if any kernel's
// chunking or accumulation order ever depends on the thread count.

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "connectome/connectome.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "core/knn.h"
#include "core/matcher.h"
#include "core/tsne.h"
#include "linalg/gemm_kernel.h"
#include "linalg/matrix.h"
#include "linalg/simd/simd.h"
#include "linalg/stats.h"
#include "linalg/vector_ops.h"
#include "preprocess/pipeline.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace neuroprint {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Bitwise equality: EXPECT_EQ on doubles would accept 0.0 == -0.0 and
// reject NaN == NaN; comparing the bit patterns accepts exactly "the same
// bytes came out".
void ExpectBitwiseEqual(const linalg::Matrix& a, const linalg::Matrix& b,
                        const char* stage) {
  ASSERT_EQ(a.rows(), b.rows()) << stage;
  ASSERT_EQ(a.cols(), b.cols()) << stage;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << stage << ": element " << i << " differs (" << a.data()[i] << " vs "
        << b.data()[i] << ")";
  }
}

void ExpectBitwiseEqual(const linalg::Vector& a, const linalg::Vector& b,
                        const char* stage) {
  ASSERT_EQ(a.size(), b.size()) << stage;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << stage << ": element " << i;
  }
}

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  // A few exact zeros probe the kernels' sign-of-zero handling.
  m(0, 0) = 0.0;
  m(rows / 2, cols / 2) = 0.0;
  return m;
}

TEST(ParallelInvarianceTest, GemmKernels) {
  const linalg::Matrix a = RandomMatrix(67, 33, 11);
  const linalg::Matrix b = RandomMatrix(33, 41, 12);
  const linalg::Matrix c = RandomMatrix(67, 33, 13);
  const linalg::Vector x = RandomMatrix(33, 1, 14).ColCopy(0);
  const linalg::Matrix mul1 = linalg::MatMul(a, b, ParallelContext{1});
  const linalg::Matrix tmul1 = linalg::MatTMul(a, c, ParallelContext{1});
  const linalg::Matrix mult1 = linalg::MatMulT(a, c, ParallelContext{1});
  const linalg::Matrix gram1 = linalg::Gram(a, ParallelContext{1});
  const linalg::Vector vec1 = linalg::MatVec(a, x, ParallelContext{1});
  for (const std::size_t threads : kThreadCounts) {
    const ParallelContext ctx{threads};
    ExpectBitwiseEqual(mul1, linalg::MatMul(a, b, ctx), "MatMul");
    ExpectBitwiseEqual(tmul1, linalg::MatTMul(a, c, ctx), "MatTMul");
    ExpectBitwiseEqual(mult1, linalg::MatMulT(a, c, ctx), "MatMulT");
    ExpectBitwiseEqual(gram1, linalg::Gram(a, ctx), "Gram");
    ExpectBitwiseEqual(vec1, linalg::MatVec(a, x, ctx), "MatVec");
  }
}

TEST(ParallelInvarianceTest, TiledGemmMatchesReferenceBitwise) {
  // Shapes chosen to cross every blocking boundary of the tiled kernel:
  // the K panel (kGemmPanelK = 256), the M row block (64), the 4x4
  // micro-tile, and the small-problem cutover — all must agree with the
  // canonical-order reference kernel bit for bit, at every thread count.
  // The last two have a small m x n and K panel counts (18 and 34) that
  // span several panel groups of the panel-parallel schedule and end in a
  // ragged group.
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{3, 5, 2},      {64, 256, 64},  {65, 257, 33},
                          {130, 520, 48}, {31, 700, 100}, {300, 90, 70},
                          {9, 4353, 21},  {17, 8453, 10}};
  for (const auto& [m, k, n] : shapes) {
    const linalg::Matrix a = RandomMatrix(m, k, 101 + m);
    const linalg::Matrix b = RandomMatrix(k, n, 102 + n);
    const linalg::Matrix at = RandomMatrix(k, m, 103 + m);
    const linalg::Matrix bt = RandomMatrix(n, k, 104 + n);

    linalg::Matrix ref(m, n);
    linalg::ReferenceGemm(a, false, b, false, &ref);
    linalg::Matrix ref_ta(m, n);
    linalg::ReferenceGemm(at, true, b, false, &ref_ta);
    linalg::Matrix ref_tb(m, n);
    linalg::ReferenceGemm(a, false, bt, true, &ref_tb);

    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix c(m, n);
      linalg::TiledGemm(a, false, b, false, &c, ctx);
      ExpectBitwiseEqual(ref, c, "TiledGemm(N,N)");
      linalg::TiledGemm(at, true, b, false, &c, ctx);
      ExpectBitwiseEqual(ref_ta, c, "TiledGemm(T,N)");
      linalg::TiledGemm(a, false, bt, true, &c, ctx);
      ExpectBitwiseEqual(ref_tb, c, "TiledGemm(N,T)");
    }
  }
}

TEST(ParallelInvarianceTest, TiledGramMatchesGemmBitwise) {
  // Gram computes the upper triangle and mirrors; the mirrored bits must
  // equal the full A^T A product exactly (products commute bitwise). 4353
  // and 8453 rows (18 and 34 K panels) span several panel groups of the
  // panel-parallel schedule and end in a ragged group.
  for (const std::size_t rows : {40u, 300u, 530u, 4353u, 8453u}) {
    const linalg::Matrix a = RandomMatrix(rows, 37, 200 + rows);
    linalg::Matrix full(37, 37);
    linalg::TiledGemm(a, true, a, false, &full, ParallelContext{1});
    for (const std::size_t threads : kThreadCounts) {
      linalg::Matrix g(37, 37);
      linalg::TiledGram(a, &g, ParallelContext{threads});
      ExpectBitwiseEqual(full, g, "TiledGram");
    }
  }
}

TEST(ParallelInvarianceTest, GemmStableUnderOversubscription) {
  // Thread counts far beyond the hardware force the work-stealing pool
  // into constant steals between oversubscribed runners; the output must
  // not move by a bit. The K dimension spans many packing panels so the
  // panel-parallel path has enough chunks to steal; 4353 and 8453 rows
  // span several panel groups and end in a ragged one.
  for (const std::size_t rows : {3000u, 4353u, 8453u}) {
    const linalg::Matrix a = RandomMatrix(rows, 64, 301);
    const linalg::Matrix b = RandomMatrix(rows, 64, 302);
    const linalg::Matrix tmul1 = linalg::MatTMul(a, b, ParallelContext{1});
    const linalg::Matrix gram1 = linalg::Gram(a, ParallelContext{1});
    for (const std::size_t threads : {16u, 32u, 64u}) {
      const ParallelContext ctx{threads};
      ExpectBitwiseEqual(tmul1, linalg::MatTMul(a, b, ctx),
                         "MatTMul oversubscribed");
      ExpectBitwiseEqual(gram1, linalg::Gram(a, ctx), "Gram oversubscribed");
    }
  }
}

TEST(ParallelInvarianceTest, CorrelationAndZScore) {
  const linalg::Matrix series = RandomMatrix(48, 90, 21);
  const linalg::Matrix other = RandomMatrix(48, 17, 22);
  const linalg::Matrix corr1 = linalg::RowCorrelation(series, ParallelContext{1});
  const linalg::Matrix cross1 =
      linalg::ColumnCrossCorrelation(series, other, ParallelContext{1});
  linalg::Matrix z1 = series;
  linalg::ZScoreRowsInPlace(z1, ParallelContext{1});
  for (const std::size_t threads : kThreadCounts) {
    const ParallelContext ctx{threads};
    ExpectBitwiseEqual(corr1, linalg::RowCorrelation(series, ctx),
                       "RowCorrelation");
    ExpectBitwiseEqual(cross1,
                       linalg::ColumnCrossCorrelation(series, other, ctx),
                       "ColumnCrossCorrelation");
    linalg::Matrix z = series;
    linalg::ZScoreRowsInPlace(z, ctx);
    ExpectBitwiseEqual(z1, z, "ZScoreRowsInPlace");
  }
}

TEST(ParallelInvarianceTest, ConnectomeBuild) {
  const linalg::Matrix series = RandomMatrix(30, 120, 31);
  const auto conn1 = connectome::BuildConnectome(series, ParallelContext{1});
  ASSERT_TRUE(conn1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto conn = connectome::BuildConnectome(series,
                                                  ParallelContext{threads});
    ASSERT_TRUE(conn.ok());
    ExpectBitwiseEqual(*conn1, *conn, "BuildConnectome");
  }
}

linalg::Matrix CleanedSeries(const linalg::Matrix& raw, std::size_t threads) {
  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.parallel.num_threads = threads;
  linalg::Matrix series = raw;
  const Status status =
      preprocess::CleanRegionSeries(series, config, /*tr_seconds=*/0.72);
  EXPECT_TRUE(status.ok()) << status.message();
  return series;
}

TEST(ParallelInvarianceTest, TemporalCleanup) {
  const linalg::Matrix raw = RandomMatrix(25, 200, 41);
  const linalg::Matrix clean1 = CleanedSeries(raw, 1);
  for (const std::size_t threads : kThreadCounts) {
    ExpectBitwiseEqual(clean1, CleanedSeries(raw, threads),
                       "CleanRegionSeries");
  }
}

Result<preprocess::PipelineOutput> RunSmallPipeline(
    const image::Volume4D& run, const atlas::Atlas& atlas,
    std::size_t threads) {
  // Every voxel stage runs: slice timing, motion correction, masking,
  // smoothing and the frame reductions.
  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.parallel.num_threads = threads;
  return preprocess::RunPipeline(run, atlas, config);
}

void ExpectBitwiseEqual(const std::vector<image::RigidTransform>& a,
                        const std::vector<image::RigidTransform>& b,
                        const char* stage) {
  ASSERT_EQ(a.size(), b.size()) << stage;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const auto pa = a[t].AsArray();
    const auto pb = b[t].AsArray();
    for (std::size_t k = 0; k < pa.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pa[k]),
                std::bit_cast<std::uint64_t>(pb[k]))
          << stage << ": frame " << t << " parameter " << k;
    }
  }
}

TEST(ParallelInvarianceTest, VoxelPipeline) {
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 10;
  atlas_config.ny = 10;
  atlas_config.nz = 6;
  atlas_config.num_regions = 8;
  atlas_config.seed = 7;
  const auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());

  image::Volume4D run(10, 10, 6, 40);
  Rng rng(51);
  for (float& v : run.flat()) {
    v = static_cast<float>(500.0 + 100.0 * rng.Gaussian());
  }

  const auto out1 = RunSmallPipeline(run, *atlas, 1);
  ASSERT_TRUE(out1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto out = RunSmallPipeline(run, *atlas, threads);
    ASSERT_TRUE(out.ok());
    ExpectBitwiseEqual(out1->region_series, out->region_series, "RunPipeline");
    ExpectBitwiseEqual(out1->motion, out->motion, "MotionCorrect");
    EXPECT_EQ(out1->degraded_frames, out->degraded_frames);
  }
}

sim::CohortConfig SmallCohort(std::size_t threads) {
  sim::CohortConfig config = sim::HcpLikeConfig(909);
  config.num_subjects = 8;
  config.num_regions = 16;
  config.frames_override = 60;
  config.parallel.num_threads = threads;
  return config;
}

TEST(ParallelInvarianceTest, CohortGroupMatrix) {
  const auto sim1 = sim::CohortSimulator::Create(SmallCohort(1));
  ASSERT_TRUE(sim1.ok());
  const auto group1 =
      sim1->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  ASSERT_TRUE(group1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto sim = sim::CohortSimulator::Create(SmallCohort(threads));
    ASSERT_TRUE(sim.ok());
    const auto group =
        sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
    ASSERT_TRUE(group.ok());
    ExpectBitwiseEqual(group1->data(), group->data(), "BuildGroupMatrix");
  }
}

TEST(ParallelInvarianceTest, EndToEndAttack) {
  // Fit on the LR session, identify the RL session — the whole Figure 3
  // workflow — with the thread count varied through AttackOptions.
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options1;
  options1.num_features = 40;
  options1.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, options1);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  for (const std::size_t threads : kThreadCounts) {
    core::AttackOptions options = options1;
    options.parallel.num_threads = threads;
    const auto attack = core::DeanonymizationAttack::Fit(*known, options);
    ASSERT_TRUE(attack.ok());
    const auto result = attack->Identify(*anonymous);
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(result1->similarity, result->similarity,
                       "Identify similarity");
    EXPECT_EQ(result1->predicted_index, result->predicted_index);
    EXPECT_EQ(result1->predicted_ids, result->predicted_ids);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
              std::bit_cast<std::uint64_t>(result->accuracy));
  }
}

TEST(ParallelInvarianceTest, EndToEndAttackWithTracingEnabled) {
  // Observability must be free of side effects: running the same attack
  // with span/metric collection on cannot perturb a single output bit,
  // and the collection itself must be race-free (the tsan tier runs
  // this).
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions plain;
  plain.num_features = 40;
  plain.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, plain);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  for (const std::size_t threads : kThreadCounts) {
    core::AttackOptions traced = plain;
    traced.parallel.num_threads = threads;
    traced.trace.enabled = true;
    const auto attack = core::DeanonymizationAttack::Fit(*known, traced);
    ASSERT_TRUE(attack.ok());
    const auto result = attack->Identify(*anonymous);
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(result1->similarity, result->similarity,
                       "Identify similarity (traced)");
    EXPECT_EQ(result1->predicted_index, result->predicted_index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
              std::bit_cast<std::uint64_t>(result->accuracy));
  }
  // The traced runs actually recorded spans.
  EXPECT_GT(trace::EventCount(), 0u);
  trace::ClearEvents();
}

TEST(ParallelInvarianceTest, EndToEndAttackStreamed) {
  // The out-of-core fit/identify path must honor the same contract: the
  // (window size x thread count) grid is one bitwise equivalence class,
  // anchored to the 1-thread in-RAM run.
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options1;
  options1.num_features = 40;
  options1.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, options1);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  const connectome::InMemoryMatrixStore known_store(*known);
  const connectome::InMemoryMatrixStore anon_store(*anonymous);
  for (const std::size_t window : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t threads : kThreadCounts) {
      core::AttackOptions options = options1;
      options.parallel.num_threads = threads;
      connectome::StreamOptions stream;
      stream.window_cols = window;
      const auto attack = core::DeanonymizationAttack::FitStreamed(
          known_store, options, stream);
      ASSERT_TRUE(attack.ok()) << attack.status();
      ExpectBitwiseEqual(attack1->leverage_scores(),
                         attack->leverage_scores(),
                         "FitStreamed leverage scores");
      EXPECT_EQ(attack1->selected_features(), attack->selected_features());
      const auto result = attack->IdentifyStreamed(anon_store, stream);
      ASSERT_TRUE(result.ok()) << result.status();
      ExpectBitwiseEqual(result1->similarity, result->similarity,
                         "IdentifyStreamed similarity");
      EXPECT_EQ(result1->predicted_index, result->predicted_index);
      EXPECT_EQ(result1->predicted_ids, result->predicted_ids);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
                std::bit_cast<std::uint64_t>(result->accuracy));
    }
  }
}

TEST(ParallelInvarianceTest, TsneEmbedding) {
  const linalg::Matrix points = RandomMatrix(24, 12, 61);
  core::TsneOptions options;
  options.perplexity = 5.0;
  options.max_iterations = 60;

  ScopedDefaultThreadCount baseline(1);
  const auto embed1 = core::TsneEmbed(points, options);
  ASSERT_TRUE(embed1.ok());
  for (const std::size_t threads : kThreadCounts) {
    ScopedDefaultThreadCount scoped(threads);
    const auto embed = core::TsneEmbed(points, options);
    ASSERT_TRUE(embed.ok());
    ExpectBitwiseEqual(embed1->embedding, embed->embedding, "TsneEmbed");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(embed1->kl_divergence),
              std::bit_cast<std::uint64_t>(embed->kl_divergence));
  }
}

TEST(ParallelInvarianceTest, KnnClassification) {
  const linalg::Matrix train = RandomMatrix(60, 5, 71);
  const linalg::Matrix queries = RandomMatrix(23, 5, 72);
  std::vector<int> labels(60);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  const auto pred1 =
      core::KnnClassify(train, labels, queries, 3, ParallelContext{1});
  ASSERT_TRUE(pred1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto pred = core::KnnClassify(train, labels, queries, 3,
                                        ParallelContext{threads});
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred1, *pred);
  }
}

void ExpectBitwiseEqualBatch(const service::BatchIdentifyResult& base,
                             const service::BatchIdentifyResult& got,
                             std::size_t threads, const char* stage) {
  ASSERT_EQ(base.matches.size(), got.matches.size()) << stage;
  EXPECT_EQ(base.probe_ids, got.probe_ids) << stage;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(base.accuracy),
            std::bit_cast<std::uint64_t>(got.accuracy))
      << stage;
  for (std::size_t p = 0; p < base.matches.size(); ++p) {
    EXPECT_EQ(base.matches[p].subject_id, got.matches[p].subject_id)
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.matches[p].similarity),
              std::bit_cast<std::uint64_t>(got.matches[p].similarity))
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.matches[p].margin),
              std::bit_cast<std::uint64_t>(got.matches[p].margin))
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(base.matches[p].candidates_scanned,
              got.matches[p].candidates_scanned)
        << stage << ": " << threads << " threads, probe " << p;
  }
}

TEST(ParallelInvarianceTest, ServiceIdentifyBatchAcrossShardedProbes) {
  // The identification service fans (probe x shard) work items onto the
  // pool and merges per-shard candidates in shard order: enrollment,
  // cluster builds, the pruned batch search, and the brute-force oracle
  // must all be bitwise-identical at 1, 2, and 8 threads.
  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = 200;
  gallery.num_features = 96;
  gallery.seed = 0x1234babeULL;

  struct Run {
    std::string state;
    service::BatchIdentifyResult pruned;
    service::BatchIdentifyResult brute;
  };
  auto build_and_identify = [&](std::size_t threads) {
    Run run;
    service::IndexOptions options;
    options.num_features = 48;
    options.num_shards = 4;
    options.min_cluster_shard_size = 8;  // Clustering active per shard.
    options.parallel.num_threads = threads;
    auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 64);
    EXPECT_TRUE(reference.ok());
    auto index = service::IdentificationIndex::Create(*reference, options);
    EXPECT_TRUE(index.ok()) << index.status();
    auto rest = service::MakeSyntheticGallerySlice(gallery, 0, 64, 200);
    EXPECT_TRUE(rest.ok());
    EXPECT_TRUE(index->EnrollBatch(*rest).ok());
    auto probes = service::MakeSyntheticGallery(gallery, 1);
    EXPECT_TRUE(probes.ok());
    auto pruned = index->IdentifyBatch(*probes);
    EXPECT_TRUE(pruned.ok()) << pruned.status();
    auto brute = index->IdentifyBatchBruteForce(*probes);
    EXPECT_TRUE(brute.ok()) << brute.status();
    run.state = index->DebugStateString();
    run.pruned = std::move(*pruned);
    run.brute = std::move(*brute);
    return run;
  };

  const Run base = build_and_identify(1);
  for (const std::size_t threads : kThreadCounts) {
    const Run got = build_and_identify(threads);
    EXPECT_EQ(base.state, got.state) << threads << " threads";
    ExpectBitwiseEqualBatch(base.pruned, got.pruned, threads,
                            "IdentifyBatch");
    ExpectBitwiseEqualBatch(base.brute, got.brute, threads,
                            "IdentifyBatchBruteForce");
  }
}

// ---------------------------------------------------------------------------
// Scalar vs SIMD kernel parity. The runtime-dispatched vector kernels
// (linalg/simd/) share one canonical accumulation order with the scalar
// reference, so every ISA must produce the same bits on every shape —
// in particular on remainder tails (n % 4 != 0), single-row inputs, the
// kGemmPanelK boundary (255/256/257), and empty inputs. Combined with
// the thread sweep this pins the full contract: same bits for any
// (ISA, thread count) pair.

// Runs `fn` under the scalar kernels and again under the best supported
// vector ISA (a no-op comparison on hosts where scalar is the best).
template <typename Fn>
void ForBothIsas(const Fn& fn) {
  {
    linalg::simd::ScopedIsa scoped(linalg::simd::Isa::kScalar);
    fn(/*scalar=*/true);
  }
  {
    linalg::simd::ScopedIsa scoped(linalg::simd::BestSupportedIsa());
    fn(/*scalar=*/false);
  }
}

void ExpectBitwiseEqualScalar(double a, double b, const char* stage,
                              std::size_t n) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << stage << " at length " << n << ": " << a << " vs " << b;
}

TEST(SimdParityTest, VectorReductionsEveryTailLength) {
  // 0..9 covers every lane-tail remainder twice; the larger sizes cover
  // multi-iteration main loops on both sides of a power of two.
  for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul,
                              9ul, 31ul, 255ul, 256ul, 257ul}) {
    Rng rng(1000 + n);
    linalg::Vector x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y[i] = rng.Gaussian();
    }
    struct Results {
      double dot, norm2sq, mean, variance, pearson;
    } scalar{}, simd{};
    ForBothIsas([&](bool is_scalar) {
      Results& r = is_scalar ? scalar : simd;
      r.dot = linalg::Dot(x, y);
      r.norm2sq = linalg::Norm2Squared(x);
      r.mean = linalg::Mean(x);
      r.variance = linalg::Variance(x);
      r.pearson = linalg::PearsonCorrelation(x, y);
    });
    ExpectBitwiseEqualScalar(scalar.dot, simd.dot, "Dot", n);
    ExpectBitwiseEqualScalar(scalar.norm2sq, simd.norm2sq, "Norm2Squared", n);
    ExpectBitwiseEqualScalar(scalar.mean, simd.mean, "Mean", n);
    ExpectBitwiseEqualScalar(scalar.variance, simd.variance, "Variance", n);
    ExpectBitwiseEqualScalar(scalar.pearson, simd.pearson, "Pearson", n);
  }
}

TEST(SimdParityTest, AxpyTailLengths) {
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 13ul, 257ul}) {
    Rng rng(2000 + n);
    linalg::Vector x(n), y0(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y0[i] = rng.Gaussian();
    }
    linalg::Vector scalar_y, simd_y;
    ForBothIsas([&](bool is_scalar) {
      linalg::Vector y = y0;
      linalg::Axpy(0.7331, x, y);
      (is_scalar ? scalar_y : simd_y) = std::move(y);
    });
    ExpectBitwiseEqual(scalar_y, simd_y, "Axpy");
  }
}

TEST(SimdParityTest, GemmKernelsAwkwardShapes) {
  struct Shape {
    std::size_t m, k, n;
  };
  // Remainder register tiles (m % 4, n % 4 != 0), a 1-row input, and K
  // straddling the kGemmPanelK = 256 canonical panel boundary.
  constexpr Shape kShapes[] = {{1, 1, 1},   {1, 17, 40},  {4, 4, 4},
                               {5, 3, 7},   {65, 33, 41}, {8, 255, 6},
                               {8, 256, 6}, {8, 257, 6},  {63, 129, 30}};
  for (const Shape& shape : kShapes) {
    const linalg::Matrix a = RandomMatrix(shape.m, shape.k, 31 + shape.m);
    const linalg::Matrix b = RandomMatrix(shape.k, shape.n, 32 + shape.n);
    const linalg::Matrix at = a.Transposed();
    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix scalar_mul, simd_mul, scalar_gram, simd_gram;
      ForBothIsas([&](bool is_scalar) {
        (is_scalar ? scalar_mul : simd_mul) = linalg::MatMul(a, b, ctx);
        (is_scalar ? scalar_gram : simd_gram) = linalg::Gram(a, ctx);
      });
      ExpectBitwiseEqual(scalar_mul, simd_mul, "MatMul scalar-vs-simd");
      ExpectBitwiseEqual(scalar_gram, simd_gram, "Gram scalar-vs-simd");
      // Both must still equal the canonical reference order.
      linalg::Matrix ref(shape.m, shape.n);
      linalg::ReferenceGemm(a, false, b, false, &ref);
      ExpectBitwiseEqual(ref, simd_mul, "MatMul vs ReferenceGemm");
      linalg::Matrix gram_ref(shape.k, shape.k);
      linalg::ReferenceGemm(at, false, a, false, &gram_ref);
      ExpectBitwiseEqual(gram_ref, simd_gram, "Gram vs ReferenceGemm");
    }
  }
}

TEST(SimdParityTest, ProjectedRowSquaredNormsMatchesMaterializedProduct) {
  struct Shape {
    std::size_t m, k, n;
  };
  // m off the 64-row block (including a 1-row input), n % 4 != 0 and
  // n = 1, and K straddling the kGemmPanelK = 256 panel boundary.
  constexpr Shape kShapes[] = {{1, 1, 1},     {65, 33, 41},  {130, 255, 7},
                               {129, 256, 1}, {200, 257, 6}, {300, 100, 100},
                               {77, 513, 9}};
  for (const Shape& shape : kShapes) {
    const linalg::Matrix a = RandomMatrix(shape.m, shape.k, 41 + shape.m);
    const linalg::Matrix b = RandomMatrix(shape.k, shape.n, 42 + shape.n);
    // The materialized formulation: U in the canonical order, then each
    // row's squares folded in ascending j from 0.0.
    linalg::Matrix u(shape.m, shape.n);
    linalg::ReferenceGemm(a, false, b, false, &u);
    linalg::Vector expected(shape.m, 0.0);
    for (std::size_t i = 0; i < shape.m; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < shape.n; ++j) sum += u(i, j) * u(i, j);
      expected[i] = sum;
    }
    for (const std::size_t threads : kThreadCounts) {
      ForBothIsas([&](bool is_scalar) {
        linalg::Vector fused(shape.m, -1.0);
        linalg::ProjectedRowSquaredNorms(a, b, fused.data(),
                                         ParallelContext{threads});
        EXPECT_EQ(std::memcmp(fused.data(), expected.data(),
                              shape.m * sizeof(double)),
                  0)
            << shape.m << "x" << shape.k << "x" << shape.n << " at "
            << threads << " threads, " << (is_scalar ? "scalar" : "simd");
      });
    }
  }
}

TEST(SimdParityTest, StatsKernels) {
  struct Shape {
    std::size_t rows, cols;
  };
  constexpr Shape kShapes[] = {{1, 7}, {3, 1}, {17, 33}, {5, 257}, {8, 64}};
  for (const Shape& shape : kShapes) {
    linalg::Matrix m = RandomMatrix(shape.rows, shape.cols, 77 + shape.rows);
    // A constant row exercises the degenerate-spread branch next to the
    // vectorized fast path.
    for (std::size_t j = 0; j < shape.cols; ++j) m(0, j) = 2.5;
    const linalg::Matrix probes =
        RandomMatrix(shape.rows, 5, 78 + shape.cols);
    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix scalar_z, simd_z, scalar_corr, simd_corr, scalar_xc,
          simd_xc;
      linalg::Vector scalar_norms, simd_norms;
      ForBothIsas([&](bool is_scalar) {
        linalg::Matrix z = m;
        linalg::ZScoreRowsInPlace(z, ctx);
        (is_scalar ? scalar_z : simd_z) = std::move(z);
        (is_scalar ? scalar_corr : simd_corr) = linalg::RowCorrelation(m, ctx);
        (is_scalar ? scalar_xc : simd_xc) =
            linalg::ColumnCrossCorrelation(m, probes, ctx);
        (is_scalar ? scalar_norms : simd_norms) = linalg::RowNormsSquared(m);
      });
      ExpectBitwiseEqual(scalar_z, simd_z, "ZScoreRowsInPlace");
      ExpectBitwiseEqual(scalar_corr, simd_corr, "RowCorrelation");
      ExpectBitwiseEqual(scalar_xc, simd_xc, "ColumnCrossCorrelation");
      ExpectBitwiseEqual(scalar_norms, simd_norms, "RowNormsSquared");
    }
  }
}

TEST(SimdParityTest, DegenerateNormsTakeTheSameBranchOnEveryIsa) {
  // Subnormal-scale and huge-scale columns force the ColumnCrossCorrelation
  // slow path (norm products could underflow/overflow); the branch is a
  // pure function of the norms, so scalar and SIMD must still agree.
  linalg::Matrix a = RandomMatrix(6, 4, 91);
  linalg::Matrix b = RandomMatrix(6, 4, 92);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 1) = a(i, 1) * 1e-160;  // norm below the safe window
    b(i, 2) = b(i, 2) * 1e160;   // norm above the safe window
  }
  linalg::Matrix scalar_xc, simd_xc;
  ForBothIsas([&](bool is_scalar) {
    (is_scalar ? scalar_xc : simd_xc) =
        linalg::ColumnCrossCorrelation(a, b, ParallelContext{1});
  });
  ExpectBitwiseEqual(scalar_xc, simd_xc, "ColumnCrossCorrelation degenerate");
}

}  // namespace
}  // namespace neuroprint
