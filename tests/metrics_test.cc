#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/profile.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "metrics/clustering_quality.h"
#include "metrics/multi_solution.h"
#include "metrics/partition_similarity.h"
#include "support/quality_ref.h"

namespace multiclust {
namespace {

const std::vector<int> kA = {0, 0, 0, 1, 1, 1};
const std::vector<int> kSame = {2, 2, 2, 5, 5, 5};      // kA relabeled
const std::vector<int> kCrossed = {0, 1, 0, 1, 0, 1};   // independent-ish

TEST(RandIndexTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(RandIndex(kA, kA).value(), 1.0);
  EXPECT_DOUBLE_EQ(RandIndex(kA, kSame).value(), 1.0);
}

TEST(RandIndexTest, KnownValue) {
  // a = {0,0,1,1}, b = {0,1,1,1}: pairs: (01):same-a diff-b, (23),(13),(12):
  // b same; agreements: (23) same-same, (02),(03) diff-diff => R = 3/6.
  EXPECT_NEAR(RandIndex({0, 0, 1, 1}, {0, 1, 1, 1}).value(), 0.5, 1e-12);
}

TEST(AdjustedRandTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(kA, kSame).value(), 1.0);
}

TEST(AdjustedRandTest, CrossedNearZero) {
  EXPECT_NEAR(AdjustedRandIndex(kA, kCrossed).value(), 0.0, 0.2);
}

TEST(AdjustedRandTest, LargeRandomIndependentNearZero) {
  Rng rng(1);
  std::vector<int> a(600), b(600);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int>(rng.NextIndex(3));
    b[i] = static_cast<int>(rng.NextIndex(4));
  }
  EXPECT_NEAR(AdjustedRandIndex(a, b).value(), 0.0, 0.05);
}

TEST(JaccardTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(JaccardIndex(kA, kSame).value(), 1.0);
}

TEST(JaccardTest, BoundedByRand) {
  // Jaccard ignores the same_neither pairs, so it's <= Rand here.
  EXPECT_LE(JaccardIndex(kA, kCrossed).value(),
            RandIndex(kA, kCrossed).value());
}

TEST(FowlkesMallowsTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(FowlkesMallows(kA, kSame).value(), 1.0);
}

TEST(PairF1Test, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(PairF1(kA, kSame).value(), 1.0);
}

TEST(NmiTest, IdenticalIsOne) {
  for (NmiNorm norm : {NmiNorm::kMax, NmiNorm::kMin, NmiNorm::kSqrt,
                       NmiNorm::kSum}) {
    EXPECT_NEAR(NormalizedMutualInformation(kA, kSame, norm).value(), 1.0,
                1e-12);
  }
}

TEST(NmiTest, IndependentIsZero) {
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(NormalizedMutualInformation(a, b).value(), 0.0, 1e-12);
}

TEST(NmiTest, TrivialPartitionConvention) {
  const std::vector<int> one_cluster = {0, 0, 0, 0};
  // One trivial, one informative: NMI 0.
  EXPECT_DOUBLE_EQ(
      NormalizedMutualInformation(one_cluster, {0, 1, 0, 1}).value(), 0.0);
  // Both trivial: identical by convention.
  EXPECT_DOUBLE_EQ(
      NormalizedMutualInformation(one_cluster, one_cluster).value(), 1.0);
}

TEST(ViTest, ZeroForIdentical) {
  EXPECT_NEAR(VariationOfInformation(kA, kSame).value(), 0.0, 1e-12);
}

TEST(ViTest, SymmetricAndPositive) {
  const double ab = VariationOfInformation(kA, kCrossed).value();
  const double ba = VariationOfInformation(kCrossed, kA).value();
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GT(ab, 0.0);
}

TEST(ViTest, TriangleInequality) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const std::vector<int> b = {0, 1, 1, 2, 2, 0};
  const std::vector<int> c = {1, 1, 0, 0, 2, 2};
  const double ab = VariationOfInformation(a, b).value();
  const double bc = VariationOfInformation(b, c).value();
  const double ac = VariationOfInformation(a, c).value();
  EXPECT_LE(ac, ab + bc + 1e-12);
}

TEST(DissimilarityTest, ZeroForIdenticalOneForIndependent) {
  EXPECT_NEAR(ClusteringDissimilarity(kA, kSame).value(), 0.0, 1e-12);
  EXPECT_NEAR(
      ClusteringDissimilarity({0, 0, 1, 1}, {0, 1, 0, 1}).value(), 1.0,
      1e-12);
}

class LabelPermutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelPermutationTest, MeasuresInvariantUnderRelabeling) {
  Rng rng(GetParam());
  const size_t n = 60;
  std::vector<int> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int>(rng.NextIndex(4));
    b[i] = static_cast<int>(rng.NextIndex(3));
  }
  // Permute the label names of a.
  const std::vector<int> rename = {3, 0, 2, 1};
  std::vector<int> a_renamed(n);
  for (size_t i = 0; i < n; ++i) a_renamed[i] = rename[a[i]];

  EXPECT_NEAR(RandIndex(a, b).value(), RandIndex(a_renamed, b).value(),
              1e-12);
  EXPECT_NEAR(AdjustedRandIndex(a, b).value(),
              AdjustedRandIndex(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(NormalizedMutualInformation(a, b).value(),
              NormalizedMutualInformation(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(VariationOfInformation(a, b).value(),
              VariationOfInformation(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(BestMatchAccuracy(a, b).value(),
              BestMatchAccuracy(a_renamed, b).value(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelPermutationTest,
                         ::testing::Values(11, 22, 33, 44, 55));

class MeasureRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeasureRangeTest, AllMeasuresInRange) {
  Rng rng(GetParam());
  const size_t n = 40;
  std::vector<int> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int>(rng.NextIndex(5));
    b[i] = static_cast<int>(rng.NextIndex(2));
  }
  const double rand = RandIndex(a, b).value();
  EXPECT_GE(rand, 0.0);
  EXPECT_LE(rand, 1.0);
  const double jac = JaccardIndex(a, b).value();
  EXPECT_GE(jac, 0.0);
  EXPECT_LE(jac, 1.0);
  const double nmi = NormalizedMutualInformation(a, b).value();
  EXPECT_GE(nmi, 0.0);
  EXPECT_LE(nmi, 1.0);
  const double ari = AdjustedRandIndex(a, b).value();
  EXPECT_GE(ari, -1.0);
  EXPECT_LE(ari, 1.0);
  const double acc = BestMatchAccuracy(a, b).value();
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  const double f1 = PairF1(a, b).value();
  EXPECT_GE(f1, 0.0);
  EXPECT_LE(f1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasureRangeTest,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(HungarianTest, SolvesKnownAssignment) {
  const std::vector<std::vector<double>> cost = {
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const std::vector<int> assign = HungarianAssign(cost);
  // Optimal: row0->col1 (1), row1->col0 (2), row2->col2 (2): total 5.
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
  EXPECT_EQ(assign[2], 2);
}

TEST(HungarianTest, RectangularPadded) {
  const std::vector<std::vector<double>> cost = {{5, 1}, {1, 5}, {2, 2}};
  const std::vector<int> assign = HungarianAssign(cost);
  // Only two columns; one row stays unassigned (-1).
  int unassigned = 0;
  for (int a : assign) unassigned += (a < 0);
  EXPECT_EQ(unassigned, 1);
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
}

TEST(BestMatchAccuracyTest, PerfectAndPermuted) {
  EXPECT_DOUBLE_EQ(BestMatchAccuracy(kA, kA).value(), 1.0);
  EXPECT_DOUBLE_EQ(BestMatchAccuracy(kA, kSame).value(), 1.0);
}

TEST(BestMatchAccuracyTest, KnownFraction) {
  // Truth {0,0,0,1,1,1}, predicted flips one object.
  EXPECT_NEAR(BestMatchAccuracy(kA, {0, 0, 1, 1, 1, 1}).value(), 5.0 / 6.0,
              1e-12);
}

TEST(SseTest, ZeroForCoincidentPoints) {
  const Matrix data = Matrix::FromRows({{1, 1}, {1, 1}, {5, 5}});
  EXPECT_NEAR(SumSquaredError(data, {0, 0, 1}).value(), 0.0, 1e-12);
}

TEST(SseTest, KnownValue) {
  const Matrix data = Matrix::FromRows({{0.0}, {2.0}});
  // Mean 1, SSE = 1 + 1 = 2.
  EXPECT_NEAR(SumSquaredError(data, {0, 0}).value(), 2.0, 1e-12);
}

TEST(SseTest, NoiseExcluded) {
  const Matrix data = Matrix::FromRows({{0.0}, {2.0}, {100.0}});
  EXPECT_NEAR(SumSquaredError(data, {0, 0, -1}).value(), 2.0, 1e-12);
}

TEST(SilhouetteTest, WellSeparatedNearOne) {
  const Matrix data = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}});
  const std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_GT(Silhouette(data, labels).value(), 0.9);
}

TEST(SilhouetteTest, BadPartitionLower) {
  const Matrix data = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}});
  const std::vector<int> good = {0, 0, 0, 1, 1, 1};
  const std::vector<int> bad = {0, 1, 0, 1, 0, 1};
  EXPECT_GT(Silhouette(data, good).value(), Silhouette(data, bad).value());
}

TEST(SilhouetteTest, RequiresTwoClusters) {
  const Matrix data = Matrix::FromRows({{0.0}, {1.0}});
  EXPECT_FALSE(Silhouette(data, {0, 0}).ok());
}

TEST(DunnTest, SeparationRaisesDunn) {
  const Matrix tight = Matrix::FromRows({{0, 0}, {1, 0}, {10, 0}, {11, 0}});
  const Matrix loose = Matrix::FromRows({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_GT(DunnIndex(tight, labels).value(),
            DunnIndex(loose, labels).value());
}

// --- The parallel distance-row pass against the serial oracle ----------
//
// Silhouette and DunnIndex must equal the serial double loops in
// support/quality_ref.h bit for bit at every thread count, so these
// compare doubles with EXPECT_EQ on purpose.

// Three blobs in 5 dimensions; 301 objects, so the last row block and the
// last parallel chunk are both partial.
Matrix OracleData() {
  Rng rng(11);
  Matrix data(301, 5);
  for (size_t i = 0; i < data.rows(); ++i) {
    const double shift = 4.0 * static_cast<double>(i % 3);
    for (size_t c = 0; c < data.cols(); ++c) {
      data.at(i, c) = rng.Gaussian(c == 0 ? shift : 0.0, 1.0);
    }
  }
  return data;
}

// Labelings covering the special cases: plain, noise (-1), a singleton
// cluster, non-contiguous label ids and an unstructured random labeling.
std::vector<std::vector<int>> OracleLabelings(size_t n) {
  Rng rng(12);
  std::vector<int> plain(n), noisy(n), singleton(n), sparse_ids(n), random(n);
  for (size_t i = 0; i < n; ++i) {
    plain[i] = static_cast<int>(i % 3);
    noisy[i] = i % 7 == 0 ? -1 : plain[i];
    singleton[i] = i == 150 ? 3 : plain[i];
    sparse_ids[i] = plain[i] == 0 ? 42 : (plain[i] == 1 ? 5 : 17);
    random[i] = static_cast<int>(rng.NextIndex(4));
  }
  return {plain, noisy, singleton, sparse_ids, random};
}

void ExpectSameResult(const Result<double>& got, const Result<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what << ": " << got.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << what;
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
  }
}

TEST(SilhouetteOracleTest, BitIdenticalToSerialAtEveryThreadCount) {
  const Matrix data = OracleData();
  const std::vector<std::vector<int>> labelings =
      OracleLabelings(data.rows());
  for (const size_t threads : {1u, 2u, 4u}) {
    SetThreadCount(threads);
    for (size_t b = 0; b < labelings.size(); ++b) {
      ExpectSameResult(Silhouette(data, labelings[b]),
                       test::RefSilhouette(data, labelings[b]),
                       "labeling " + std::to_string(b) + " threads " +
                           std::to_string(threads));
    }
  }
  SetThreadCount(0);
}

TEST(SilhouetteOracleTest, ErrorsMatchSerial) {
  const Matrix data = OracleData();
  const std::vector<int> one_cluster(data.rows(), 4);
  const std::vector<int> short_labels(data.rows() - 1, 0);
  const std::vector<int> all_noise(data.rows(), -1);
  // Two clusters, both singletons: every object is skipped.
  const Matrix pair = Matrix::FromRows({{0.0}, {1.0}});
  const std::vector<std::pair<const Matrix*, std::vector<int>>> cases = {
      {&data, one_cluster},
      {&data, short_labels},
      {&data, all_noise},
      {&pair, {0, 1}},
  };
  for (size_t t = 0; t < cases.size(); ++t) {
    const Result<double> got = Silhouette(*cases[t].first, cases[t].second);
    EXPECT_FALSE(got.ok()) << "case " << t;
    ExpectSameResult(got,
                     test::RefSilhouette(*cases[t].first, cases[t].second),
                     "case " + std::to_string(t));
  }
  EXPECT_EQ(Silhouette(data, short_labels).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Silhouette(pair, {0, 1}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SilhouetteOracleTest, BatchEqualsPerLabelingCalls) {
  const Matrix data = OracleData();
  std::vector<std::vector<int>> labelings = OracleLabelings(data.rows());
  // Errors ride along per entry without disturbing the others.
  labelings.insert(labelings.begin() + 2, std::vector<int>(data.rows(), 0));
  labelings.push_back(std::vector<int>(3, 0));
  for (const size_t threads : {1u, 4u}) {
    SetThreadCount(threads);
    const std::vector<Result<double>> batch = SilhouetteBatch(data, labelings);
    ASSERT_EQ(batch.size(), labelings.size());
    for (size_t b = 0; b < labelings.size(); ++b) {
      ExpectSameResult(batch[b], Silhouette(data, labelings[b]),
                       "entry " + std::to_string(b));
    }
  }
  SetThreadCount(0);
  EXPECT_TRUE(SilhouetteBatch(data, {}).empty());
}

TEST(SilhouetteOracleTest, TalliesOneDistancePassPerBatch) {
  if (!telemetry::kProfileCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const Matrix data = OracleData();
  const std::vector<std::vector<int>> labelings =
      OracleLabelings(data.rows());
  const uint64_t n = data.rows(), d = data.cols();
  telemetry::ResourceScope scope;
  (void)SilhouetteBatch(data, labelings);
  EXPECT_EQ(scope.Snapshot().flops, n * n * (3 * d + 1));
}

TEST(DunnOracleTest, BitIdenticalToSerialAtEveryThreadCount) {
  const Matrix data = OracleData();
  const std::vector<std::vector<int>> labelings =
      OracleLabelings(data.rows());
  for (const size_t threads : {1u, 2u, 4u}) {
    SetThreadCount(threads);
    for (size_t b = 0; b < labelings.size(); ++b) {
      ExpectSameResult(DunnIndex(data, labelings[b]),
                       test::RefDunnIndex(data, labelings[b]),
                       "labeling " + std::to_string(b) + " threads " +
                           std::to_string(threads));
    }
  }
  SetThreadCount(0);
  ExpectSameResult(DunnIndex(data, std::vector<int>(data.rows(), 1)),
                   test::RefDunnIndex(data, std::vector<int>(data.rows(), 1)),
                   "one cluster");
  EXPECT_FALSE(DunnIndex(data, {0, 1}).ok());
}

TEST(ClusterMeansTest, ComputesMeans) {
  const Matrix data = Matrix::FromRows({{0, 0}, {2, 2}, {10, 10}});
  auto means = ClusterMeans(data, {0, 0, 1});
  ASSERT_TRUE(means.ok());
  EXPECT_DOUBLE_EQ(means->at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(means->at(1, 1), 10.0);
}

TEST(NoiseFractionTest, Basic) {
  EXPECT_DOUBLE_EQ(NoiseFraction({0, -1, 1, -1}), 0.5);
  EXPECT_DOUBLE_EQ(NoiseFraction({}), 0.0);
  EXPECT_EQ(NumClusters({0, -1, 1, 5}), 3u);
}

TEST(MultiSolutionTest, MeanAndMinPairwise) {
  const std::vector<std::vector<int>> sols = {
      {0, 0, 1, 1}, {2, 2, 3, 3}, {0, 1, 0, 1}};
  // Pairs: (0,1) identical -> 0; (0,2) independent -> 1; (1,2) -> 1.
  EXPECT_NEAR(MeanPairwiseDissimilarity(sols).value(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(MinPairwiseDissimilarity(sols).value(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(MeanPairwiseDissimilarity({{0, 1}}).value(), 0.0);
}

TEST(MultiSolutionTest, MatchSolutionsToTruths) {
  const std::vector<std::vector<int>> truths = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> found = {{1, 0, 1, 0}, {1, 1, 0, 0}};
  auto match = MatchSolutionsToTruths(truths, found);
  ASSERT_TRUE(match.ok());
  // Truth 0 == found 1 (relabeled), truth 1 == found 0 (relabeled).
  EXPECT_EQ(match->assignment[0], 1);
  EXPECT_EQ(match->assignment[1], 0);
  EXPECT_NEAR(match->mean_recovery, 1.0, 1e-9);
}

TEST(MultiSolutionTest, FewerSolutionsThanTruths) {
  const std::vector<std::vector<int>> truths = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> found = {{0, 0, 1, 1}};
  auto match = MatchSolutionsToTruths(truths, found);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->assignment[0], 0);
  EXPECT_EQ(match->assignment[1], -1);
  EXPECT_NEAR(match->mean_recovery, 0.5, 1e-9);
}

TEST(MultiSolutionTest, CombinedObjectiveRewardsDiversity) {
  const std::vector<std::vector<int>> diverse = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> redundant = {{0, 0, 1, 1},
                                                   {0, 0, 1, 1}};
  const std::vector<double> q = {1.0, 1.0};
  EXPECT_GT(CombinedObjective(diverse, q, 1.0).value(),
            CombinedObjective(redundant, q, 1.0).value());
}

}  // namespace
}  // namespace multiclust
