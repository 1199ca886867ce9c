// Robustness suite: degenerate inputs that production data regularly
// contains — identical points, constant attributes, n == k, 1-D data,
// duplicated rows. Algorithms must either succeed with a sane result or
// return a Status, never crash or hang.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "altspace/cami.h"
#include "altspace/cib.h"
#include "altspace/coala.h"
#include "altspace/conditional_ensemble.h"
#include "altspace/dec_kmeans.h"
#include "altspace/disparate.h"
#include "altspace/meta_clustering.h"
#include "altspace/min_centropy.h"
#include "cluster/dbscan.h"
#include "cluster/gmm.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "metrics/clustering_quality.h"
#include "metrics/partition_similarity.h"
#include "multiview/co_em.h"
#include "multiview/consensus.h"
#include "multiview/mv_dbscan.h"
#include "multiview/mv_spectral.h"
#include "orthogonal/alt_transform.h"
#include "orthogonal/ortho_projection.h"
#include "orthogonal/residual_transform.h"
#include "stats/grid.h"
#include "subspace/clique.h"
#include "subspace/doc.h"
#include "subspace/msc.h"
#include "subspace/orclus.h"
#include "subspace/osclu.h"
#include "subspace/p3c.h"
#include "subspace/predecon.h"
#include "subspace/proclus.h"
#include "subspace/schism.h"
#include "subspace/statpc.h"
#include "subspace/subclu.h"

namespace multiclust {
namespace {

Matrix IdenticalPoints(size_t n, size_t d) {
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) m.at(i, j) = 3.25;
  }
  return m;
}

TEST(RobustnessTest, KMeansOnIdenticalPoints) {
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 1;
  auto c = RunKMeans(IdenticalPoints(20, 2), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->labels.size(), 20u);
  EXPECT_NEAR(c->quality, 0.0, 1e-9);
}

TEST(RobustnessTest, KMeansKEqualsN) {
  auto ds = MakeUniformCube(6, 2, 2);
  KMeansOptions opts;
  opts.k = 6;
  opts.seed = 2;
  auto c = RunKMeans(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 6u);
  EXPECT_NEAR(c->quality, 0.0, 1e-9);
}

TEST(RobustnessTest, GmmOnIdenticalPoints) {
  GmmOptions opts;
  opts.k = 2;
  opts.seed = 3;
  auto model = FitGmm(IdenticalPoints(20, 2), opts);
  ASSERT_TRUE(model.ok());
  // Variance floor keeps densities finite.
  EXPECT_TRUE(std::isfinite(model->log_likelihood));
}

TEST(RobustnessTest, DbscanOnIdenticalPoints) {
  DbscanOptions opts;
  opts.eps = 0.1;
  opts.min_pts = 3;
  auto c = RunDbscan(IdenticalPoints(15, 2), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 1u);
  EXPECT_DOUBLE_EQ(NoiseFraction(c->labels), 0.0);
}

TEST(RobustnessTest, AgglomerativeOnIdenticalPoints) {
  AgglomerativeOptions opts;
  opts.k = 2;
  auto r = RunAgglomerative(IdenticalPoints(10, 2), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flat.NumClusters(), 2u);
}

TEST(RobustnessTest, SpectralOnIdenticalPoints) {
  SpectralOptions opts;
  opts.k = 2;
  opts.gamma = 1.0;
  opts.seed = 4;
  auto c = RunSpectral(IdenticalPoints(12, 2), opts);
  // Either a valid (arbitrary) partition or a clean error is acceptable;
  // a crash or NaN labels is not.
  if (c.ok()) {
    EXPECT_EQ(c->labels.size(), 12u);
  }
}

TEST(RobustnessTest, OneDimensionalDataEverywhere) {
  auto ds = MakeBlobs({{{0.0}, 0.3, 30}, {{5.0}, 0.3, 30}}, 5);
  const auto truth = ds->GroundTruth("labels").value();

  KMeansOptions km;
  km.k = 2;
  km.seed = 5;
  EXPECT_GT(AdjustedRandIndex(RunKMeans(ds->data(), km)->labels, truth)
                .value(),
            0.95);

  DbscanOptions db;
  db.eps = 0.5;
  db.min_pts = 3;
  EXPECT_GT(AdjustedRandIndex(RunDbscan(ds->data(), db)->labels, truth)
                .value(),
            0.95);

  AgglomerativeOptions agg;
  agg.k = 2;
  EXPECT_GT(AdjustedRandIndex(RunAgglomerative(ds->data(), agg)->flat.labels,
                              truth)
                .value(),
            0.95);

  CliqueOptions clique;
  clique.xi = 6;
  clique.tau = 0.1;
  auto sc = RunClique(ds->data(), clique);
  ASSERT_TRUE(sc.ok());
  EXPECT_GE(sc->clusters.size(), 2u);
}

TEST(RobustnessTest, ConstantColumnHandledByGrid) {
  Matrix data(20, 2);
  for (size_t i = 0; i < 20; ++i) {
    data.at(i, 0) = static_cast<double>(i);
    data.at(i, 1) = 7.0;  // constant
  }
  auto grid = Grid::Build(data, 4);
  ASSERT_TRUE(grid.ok());
  // All objects fall into interval 0 of the constant dimension.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(grid->CellOf(i, 1), 0);
  }
  EXPECT_NEAR(grid->SubspaceEntropy({1}), 0.0, 1e-12);
}

TEST(RobustnessTest, CliqueOnConstantData) {
  CliqueOptions opts;
  opts.xi = 4;
  opts.tau = 0.1;
  auto r = RunClique(IdenticalPoints(30, 3), opts);
  ASSERT_TRUE(r.ok());
  // Everything lands in a single cell per subspace; clusters exist and
  // cover all objects.
  ASSERT_GT(r->clusters.size(), 0u);
  for (const auto& c : r->clusters) {
    EXPECT_EQ(c.objects.size(), 30u);
  }
}

TEST(RobustnessTest, DecKMeansOnIdenticalPoints) {
  DecKMeansOptions opts;
  opts.ks = {2, 2};
  opts.restarts = 1;
  opts.seed = 6;
  auto r = RunDecorrelatedKMeans(IdenticalPoints(12, 2), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->solutions.size(), 2u);
  EXPECT_TRUE(std::isfinite(r->objective));
}

TEST(RobustnessTest, CoalaWithFullyConstrainedData) {
  // Every pair is cannot-linked (all same given cluster): dissimilarity
  // merges are never available, quality merges must carry the run.
  auto ds = MakeBlobs({{{0, 0}, 0.5, 20}}, 7);
  const std::vector<int> given(20, 0);
  CoalaOptions opts;
  opts.k = 2;
  opts.w = 0.5;
  CoalaStats stats;
  auto c = RunCoala(ds->data(), given, opts, &stats);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 2u);
  EXPECT_EQ(stats.dissimilarity_merges, 0u);
}

TEST(RobustnessTest, ResidualTransformSingularScatter) {
  // Data on a line: the residual scatter is singular; the regularised
  // inverse square root must still produce a finite transform.
  Matrix data(30, 2);
  for (size_t i = 0; i < 30; ++i) {
    data.at(i, 0) = static_cast<double>(i);
    data.at(i, 1) = 2.0 * static_cast<double>(i);
  }
  std::vector<int> given(30);
  for (size_t i = 0; i < 30; ++i) given[i] = i < 15 ? 0 : 1;
  auto m = ResidualTransform(data, given);
  ASSERT_TRUE(m.ok());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(std::isfinite(m->at(i, j)));
    }
  }
}

TEST(RobustnessTest, OrthoProjectionExhaustsQuickly) {
  // Rank-1 data: after one projection nothing remains; the iteration must
  // terminate without errors.
  Matrix data(40, 3);
  for (size_t i = 0; i < 40; ++i) {
    const double t = (i < 20 ? -5.0 : 5.0) + 0.01 * i;
    data.at(i, 0) = t;
    data.at(i, 1) = 2 * t;
    data.at(i, 2) = -t;
  }
  KMeansOptions km;
  km.k = 2;
  km.seed = 8;
  KMeansClusterer clusterer(km);
  OrthoProjectionOptions opts;
  opts.max_views = 4;
  auto r = RunOrthoProjection(data, &clusterer, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->views.size(), 2u);
}

TEST(RobustnessTest, EigenOnZeroMatrix) {
  auto r = EigenSymmetric(Matrix(4, 4));
  ASSERT_TRUE(r.ok());
  for (double v : r->values) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RobustnessTest, EigenRejectsNonFiniteCells) {
  // A non-finite cell must be rejected at entry, naming the cell, before
  // any O(n^3) work (it would otherwise surface as NaN eigenpairs).
  for (size_t n : {4u, 200u}) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      Matrix a = Matrix::Identity(n);
      a.at(n - 1, 2) = bad;
      const auto t0 = std::chrono::steady_clock::now();
      auto r = EigenSymmetric(a);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
      const std::string expected =
          std::string("EigenSymmetric: non-finite value (") +
          (std::isnan(bad) ? "NaN" : "Inf") + ") at row " +
          std::to_string(n - 1) + ", column 2";
      EXPECT_EQ(r.status().message(), expected);
      EXPECT_LT(ms, 50.0) << "n=" << n;
    }
  }
}

TEST(RobustnessTest, EigenOverflowIsAnError) {
  // Finite but so large that the reduction overflows: an error, not
  // NaN eigenpairs.
  const Matrix a(3, 3, 1e308);
  auto r = EigenSymmetric(a);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
}

TEST(RobustnessTest, SvdOnZeroMatrix) {
  auto r = ComputeSvd(Matrix(3, 2));
  ASSERT_TRUE(r.ok());
  for (double s : r->sigma) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(RobustnessTest, SvdOnRankDeficientMatrix) {
  // Rank 1: one positive singular value, rest ~0, reconstruction exact.
  Matrix m(4, 3);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      m.at(i, j) = static_cast<double>((i + 1)) * static_cast<double>(j + 1);
    }
  }
  auto r = ComputeSvd(m);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->sigma[0], 1.0);
  EXPECT_LT(r->sigma[1], 1e-9);
  Matrix us = r->u;
  for (size_t j = 0; j < r->sigma.size(); ++j) {
    for (size_t i = 0; i < us.rows(); ++i) us.at(i, j) *= r->sigma[j];
  }
  EXPECT_LT((us * r->v.Transpose()).MaxAbsDiff(m), 1e-9);
}

TEST(RobustnessTest, MetricsOnAllNoiseLabelings) {
  const std::vector<int> noise(10, -1);
  const std::vector<int> labels = {0, 0, 1, 1, 2, 2, 0, 1, 2, 0};
  // All comparison measures must handle an empty effective intersection.
  EXPECT_TRUE(RandIndex(noise, labels).ok());
  EXPECT_TRUE(AdjustedRandIndex(noise, labels).ok());
  EXPECT_TRUE(NormalizedMutualInformation(noise, labels).ok());
  EXPECT_TRUE(VariationOfInformation(noise, labels).ok());
  EXPECT_TRUE(BestMatchAccuracy(noise, labels).ok());
}

TEST(RobustnessTest, OscluOnEmptyCandidates) {
  OscluOptions opts;
  auto r = RunOsclu(SubspaceClustering(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->clusters.empty());
}

TEST(RobustnessTest, DuplicatedRowsDoNotBreakAnything) {
  // 50% exact duplicates.
  auto base = MakeBlobs({{{0, 0}, 0.5, 30}, {{8, 8}, 0.5, 30}}, 9);
  Matrix data(120, 2);
  for (size_t i = 0; i < 60; ++i) {
    data.SetRow(i, base->data().Row(i));
    data.SetRow(60 + i, base->data().Row(i));
  }
  KMeansOptions km;
  km.k = 2;
  km.seed = 9;
  auto c = RunKMeans(data, km);
  ASSERT_TRUE(c.ok());
  // Duplicates must land in the same cluster as their originals.
  for (size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(c->labels[i], c->labels[60 + i]);
  }
  DbscanOptions db;
  db.eps = 1.0;
  db.min_pts = 4;
  auto d = RunDbscan(data, db);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumClusters(), 2u);
}

// ---- NaN/Inf input rejection ---------------------------------------------
// Every public Run* entry point must reject non-finite input at the boundary
// with kInvalidArgument naming the offending cell (DESIGN.md "Failure model
// & guarantees"), instead of hanging, crashing, or emitting garbage labels.

Matrix SmallClean(uint64_t seed = 11) {
  auto ds = MakeBlobs({{{0, 0, 0}, 0.5, 10}, {{5, 5, 5}, 0.5, 10}}, seed);
  return ds->data();
}

// Runs `run` on the clean data with one cell poisoned, once with NaN and
// once with +Inf, and expects a kInvalidArgument mentioning "non-finite".
template <typename Fn>
void ExpectRejectsNonFinite(Fn&& run) {
  const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()};
  for (double bad : bads) {
    Matrix data = SmallClean();
    data.at(3, 1) = bad;
    auto r = run(data);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("non-finite"), std::string::npos)
        << r.status().message();
  }
}

TEST(NonFiniteInputTest, BaseClusterers) {
  ExpectRejectsNonFinite([](const Matrix& m) {
    KMeansOptions o;
    o.k = 2;
    return RunKMeans(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    GmmOptions o;
    o.k = 2;
    return RunGmm(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    DbscanOptions o;
    o.eps = 1.0;
    o.min_pts = 3;
    return RunDbscan(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    AgglomerativeOptions o;
    o.k = 2;
    return RunAgglomerative(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    SpectralOptions o;
    o.k = 2;
    return RunSpectral(m, o);
  });
}

TEST(NonFiniteInputTest, AltspaceAlgorithms) {
  ExpectRejectsNonFinite([](const Matrix& m) {
    DecKMeansOptions o;
    o.ks = {2, 2};
    o.restarts = 1;
    return RunDecorrelatedKMeans(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    CoalaOptions o;
    o.k = 2;
    return RunCoala(m, std::vector<int>(m.rows(), 0), o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    MinCEntropyOptions o;
    o.k = 2;
    return RunMinCEntropy(m, {std::vector<int>(m.rows(), 0)}, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    CamiOptions o;
    o.restarts = 1;
    return RunCami(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    DisparateOptions o;
    o.restarts = 1;
    return RunDisparateClustering(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    CibOptions o;
    o.restarts = 1;
    return RunCib(m, std::vector<int>(m.rows(), 0), o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    ConditionalEnsembleOptions o;
    o.ensemble_size = 3;
    return RunConditionalEnsemble(m, std::vector<int>(m.rows(), 0), o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    MetaClusteringOptions o;
    o.num_base = 4;
    o.k = 2;
    o.meta_k = 2;
    return RunMetaClustering(m, o);
  });
}

TEST(NonFiniteInputTest, OrthogonalAlgorithms) {
  KMeansOptions km;
  km.k = 2;
  km.seed = 3;
  ExpectRejectsNonFinite([&](const Matrix& m) {
    KMeansClusterer c(km);
    return RunAltTransform(m, std::vector<int>(m.rows(), 0), &c);
  });
  ExpectRejectsNonFinite([&](const Matrix& m) {
    KMeansClusterer c(km);
    return RunResidualTransform(m, std::vector<int>(m.rows(), 0), &c);
  });
  ExpectRejectsNonFinite([&](const Matrix& m) {
    KMeansClusterer c(km);
    OrthoProjectionOptions o;
    o.max_views = 2;
    return RunOrthoProjection(m, &c, o);
  });
}

TEST(NonFiniteInputTest, SubspaceAlgorithms) {
  ExpectRejectsNonFinite([](const Matrix& m) {
    CliqueOptions o;
    o.xi = 4;
    o.tau = 0.1;
    return RunClique(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    SubcluOptions o;
    o.eps = 1.0;
    o.min_pts = 3;
    return RunSubclu(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    SchismOptions o;
    o.xi = 4;
    return RunSchism(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    DocOptions o;
    o.outer_trials = 2;
    o.inner_trials = 2;
    return RunDoc(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    return RunP3c(m, P3cOptions());
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    PredeconOptions o;
    o.min_pts = 3;
    return RunPredecon(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    return RunStatpc(m, SubspaceClustering(), StatpcOptions());
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    OrclusOptions o;
    o.k = 2;
    o.l = 2;
    o.restarts = 1;
    return RunOrclus(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    ProclusOptions o;
    o.k = 2;
    return RunProclus(m, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    MscOptions o;
    o.num_views = 2;
    o.k = 2;
    return RunMultipleSpectralViews(m, o);
  });
}

TEST(NonFiniteInputTest, MultiviewAlgorithms) {
  const Matrix clean = SmallClean(13);
  ExpectRejectsNonFinite([&](const Matrix& m) {
    CoEmOptions o;
    o.k = 2;
    return RunCoEm(m, clean, o);
  });
  // The second view is validated too, not just the first.
  ExpectRejectsNonFinite([&](const Matrix& m) {
    CoEmOptions o;
    o.k = 2;
    return RunCoEm(clean, m, o);
  });
  ExpectRejectsNonFinite([&](const Matrix& m) {
    MvDbscanOptions o;
    o.eps = {1.0, 1.0};
    o.min_pts = 3;
    return RunMvDbscan({clean, m}, o);
  });
  ExpectRejectsNonFinite([&](const Matrix& m) {
    MvSpectralOptions o;
    o.k = 2;
    return RunMvSpectral({m, clean}, o);
  });
  ExpectRejectsNonFinite([](const Matrix& m) {
    ConsensusOptions o;
    o.ensemble_size = 3;
    return RunEnsembleConsensus(m, o);
  });
}

TEST(NonFiniteInputTest, DiscoveryPipelineRejectsBeforeFallback) {
  // kInvalidArgument must propagate directly — the fallback chain is for
  // recoverable computation errors, not for rejected inputs.
  ExpectRejectsNonFinite([](const Matrix& m) {
    DiscoveryOptions o;
    o.k = 2;
    return DiscoverMultipleClusterings(m, o);
  });
}

}  // namespace
}  // namespace multiclust
