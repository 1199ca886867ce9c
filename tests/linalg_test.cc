#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/rng.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "stats/hsic.h"
#include "support/eigen_ref.h"

namespace multiclust {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.at(i, j) = rng.Gaussian(0.0, 1.0);
  }
  return m;
}

Matrix RandomSpd(size_t n, uint64_t seed) {
  const Matrix a = RandomMatrix(n + 2, n, seed);
  Matrix spd = a.Transpose() * a;
  for (size_t i = 0; i < n; ++i) spd.at(i, i) += 0.5;
  return spd;
}

TEST(MatrixTest, FromRowsAndAccess) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  EXPECT_EQ(m.Row(0), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(m.Col(1), (std::vector<double>{2, 5}));
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i.at(0, 1), 0.0);
  const Matrix d = Matrix::Diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix m = RandomMatrix(4, 7, 1);
  EXPECT_DOUBLE_EQ(m.Transpose().Transpose().MaxAbsDiff(m), 0.0);
}

TEST(MatrixTest, MultiplyKnown) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  const Matrix m = RandomMatrix(5, 5, 2);
  EXPECT_LT((m * Matrix::Identity(5)).MaxAbsDiff(m), 1e-12);
  EXPECT_LT((Matrix::Identity(5) * m).MaxAbsDiff(m), 1e-12);
}

TEST(MatrixTest, CheckedMultiplyRejectsMismatch) {
  const Matrix a(2, 3), b(4, 2);
  EXPECT_FALSE(Matrix::Multiply(a, b).ok());
  EXPECT_TRUE(Matrix::Multiply(a, Matrix(3, 2)).ok());
}

TEST(MatrixTest, ApplyMatchesMultiply) {
  const Matrix m = RandomMatrix(3, 4, 3);
  const std::vector<double> v = {1, -2, 0.5, 3};
  const std::vector<double> got = m.Apply(v);
  for (size_t i = 0; i < 3; ++i) {
    double expect = 0;
    for (size_t j = 0; j < 4; ++j) expect += m.at(i, j) * v[j];
    EXPECT_NEAR(got[i], expect, 1e-12);
  }
}

TEST(MatrixTest, SelectColumnsAndRows) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  const Matrix cols = m.SelectColumns({2, 0});
  EXPECT_DOUBLE_EQ(cols.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(cols.at(0, 1), 1.0);
  const Matrix rows = m.SelectRows({1});
  EXPECT_EQ(rows.rows(), 1u);
  EXPECT_DOUBLE_EQ(rows.at(0, 1), 5.0);
}

TEST(VectorOpsTest, Basics) {
  EXPECT_DOUBLE_EQ(Dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(VectorNorm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_EQ(Add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(Subtract({1, 2}, {3, 4}), (std::vector<double>{-2, -2}));
  EXPECT_EQ(Scale({1, 2}, 3), (std::vector<double>{3, 6}));
}

TEST(VectorOpsTest, NormalizedUnitNorm) {
  const std::vector<double> v = Normalized({3, 4});
  EXPECT_NEAR(VectorNorm(v), 1.0, 1e-12);
  // Zero vector is returned unchanged.
  EXPECT_EQ(Normalized({0, 0}), (std::vector<double>{0, 0}));
}

TEST(VectorOpsTest, RowMeanAndCovariance) {
  const Matrix m = Matrix::FromRows({{1, 10}, {3, 20}});
  const std::vector<double> mean = RowMean(m);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 15.0);
  const Matrix cov = Covariance(m);
  EXPECT_DOUBLE_EQ(cov.at(0, 0), 2.0);   // var of {1,3} with n-1
  EXPECT_DOUBLE_EQ(cov.at(1, 1), 50.0);  // var of {10,20}
  EXPECT_DOUBLE_EQ(cov.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(cov.at(0, 1), cov.at(1, 0));
}

TEST(EigenTest, DiagonalMatrix) {
  const Matrix d = Matrix::Diagonal({3, 1, 2});
  auto r = EigenSymmetric(d);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->values[0], 3.0, 1e-10);
  EXPECT_NEAR(r->values[1], 2.0, 1e-10);
  EXPECT_NEAR(r->values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  auto r = EigenSymmetric(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->values[0], 3.0, 1e-10);
  EXPECT_NEAR(r->values[1], 1.0, 1e-10);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(EigenSymmetric(Matrix(2, 3)).ok());
}

class EigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthonormality) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 100 + n);
  auto r = EigenSymmetric(a);
  ASSERT_TRUE(r.ok());
  // Reconstruction A = V diag V^T.
  Matrix scaled = r->vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled.at(i, j) *= r->values[j];
  }
  const Matrix rec = scaled * r->vectors.Transpose();
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-8 * (1.0 + a.FrobeniusNorm()));
  // V orthonormal.
  const Matrix vtv = r->vectors.Transpose() * r->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(n)), 1e-9);
  // Sorted descending.
  for (size_t i = 1; i < n; ++i) {
    EXPECT_GE(r->values[i - 1], r->values[i] - 1e-12);
  }
  // SPD => all eigenvalues positive.
  EXPECT_GT(r->values[n - 1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 33, 200));

// Symmetric and indefinite: (B + B^T) / 2 for Gaussian B.
Matrix RandomSymmetric(size_t n, uint64_t seed) {
  const Matrix b = RandomMatrix(n, n, seed);
  return (b + b.Transpose()) * 0.5;
}

// Projector V_3 V_3^T onto the span of the first 3 eigenvector columns.
Matrix Top3Projector(const Matrix& vectors) {
  const Matrix v3 = vectors.SelectColumns({0, 1, 2});
  return v3 * v3.Transpose();
}

class EigenOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenOracleTest, MatchesJacobiOracle) {
  const size_t n = GetParam();
  const Matrix a = RandomSymmetric(n, 300 + n);
  auto r = EigenSymmetric(a);
  auto ref = test::RefEigenJacobi(a);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(ref.ok());
  const double scale = 1.0 + a.FrobeniusNorm();
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(r->values[j], ref->values[j], 1e-10 * scale) << "j=" << j;
  }
  // Eigenvectors are unique up to sign only where the eigenvalue is
  // separated from its neighbours.
  size_t compared = 0;
  for (size_t j = 0; j < n; ++j) {
    double gap = 1e300;
    if (j > 0) gap = std::min(gap, ref->values[j - 1] - ref->values[j]);
    if (j + 1 < n) gap = std::min(gap, ref->values[j] - ref->values[j + 1]);
    if (gap < 1e-6 * scale) continue;
    double dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot += r->vectors.at(i, j) * ref->vectors.at(i, j);
    }
    EXPECT_GE(std::fabs(dot), 1.0 - 1e-10) << "j=" << j;
    ++compared;
  }
  EXPECT_GT(compared, n / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenOracleTest,
                         ::testing::Values(2, 3, 8, 33, 100));

// D^{-1/2} W D^{-1/2} for an affinity W with a zero diagonal.
Matrix NormaliseAffinity(const Matrix& w) {
  const size_t n = w.rows();
  std::vector<double> inv_sqrt_deg(n);
  for (size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (size_t j = 0; j < n; ++j) deg += w.at(i, j);
    inv_sqrt_deg[i] = 1.0 / std::sqrt(deg);
  }
  Matrix norm(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      norm.at(i, j) = inv_sqrt_deg[i] * w.at(i, j) * inv_sqrt_deg[j];
    }
  }
  return norm;
}

// Normalised affinity of disconnected blocks of 1-d Gaussian points: its
// eigenvalue 1 repeats once per block, the spectral-clustering case.
Matrix BlockAffinity(const std::vector<size_t>& blocks) {
  size_t n = 0;
  for (size_t b : blocks) n += b;
  Rng rng(77);
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian(0, 1);
  Matrix w(n, n);
  size_t lo = 0;
  for (size_t b : blocks) {
    for (size_t i = lo; i < lo + b; ++i) {
      for (size_t j = lo; j < lo + b; ++j) {
        if (i != j) w.at(i, j) = std::exp(-(x[i] - x[j]) * (x[i] - x[j]));
      }
    }
    lo += b;
  }
  return NormaliseAffinity(w);
}

TEST(EigenOracleTest, RepeatedTopEigenvalueProjector) {
  // Three disconnected blocks: the normalised affinity has eigenvalue 1
  // three times. Only the top-3 eigenspace is defined, so compare
  // projectors.
  const Matrix norm = BlockAffinity({7, 11, 14});
  auto r = EigenSymmetric(norm);
  auto ref = test::RefEigenJacobi(norm);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(ref.ok());
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(r->values[j], 1.0, 1e-10);
  EXPECT_LT(r->values[3], 1.0 - 1e-3);
  EXPECT_LT(Top3Projector(r->vectors).MaxAbsDiff(Top3Projector(ref->vectors)),
            1e-8);
}

TEST(EigenEdgeTest, ZeroAndIdentity) {
  for (double fill : {0.0, 1.0}) {
    const Matrix a = Matrix::Identity(6) * fill;
    auto r = EigenSymmetric(a);
    ASSERT_TRUE(r.ok());
    for (double v : r->values) EXPECT_EQ(v, fill);
    EXPECT_EQ(r->vectors.MaxAbsDiff(Matrix::Identity(6)), 0.0);
  }
}

TEST(EigenEdgeTest, DiagonalIsExact) {
  const Matrix d = Matrix::Diagonal({3, -1, 2, 0, 5});
  auto r = EigenSymmetric(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->values, (std::vector<double>{5, 3, 2, 0, -1}));
  // Eigenvectors are the unit axes, permuted by the sort.
  const std::vector<size_t> axis = {4, 0, 2, 3, 1};
  for (size_t j = 0; j < 5; ++j) {
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(std::fabs(r->vectors.at(i, j)), i == axis[j] ? 1.0 : 0.0);
    }
  }
}

TEST(EigenEdgeTest, TridiagonalLaplacian) {
  // Path-graph Laplacian-like tridiagonal: 2 on the diagonal, -1 beside it;
  // eigenvalues 2 - 2 cos(k pi / (n + 1)), k = 1..n.
  const size_t n = 9;
  Matrix t(n, n);
  for (size_t i = 0; i < n; ++i) {
    t.at(i, i) = 2.0;
    if (i + 1 < n) t.at(i, i + 1) = t.at(i + 1, i) = -1.0;
  }
  auto r = EigenSymmetric(t);
  ASSERT_TRUE(r.ok());
  const double pi = std::acos(-1.0);
  for (size_t j = 0; j < n; ++j) {
    const double k = static_cast<double>(n - j);
    EXPECT_NEAR(r->values[j],
                2.0 - 2.0 * std::cos(k * pi / static_cast<double>(n + 1)),
                1e-12);
  }
  Matrix scaled = r->vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled.at(i, j) *= r->values[j];
  }
  EXPECT_LT((scaled * r->vectors.Transpose()).MaxAbsDiff(t), 1e-12);
}

TEST(EigenOracleTest, SpectralLabelsMatchJacobiEmbedding) {
  auto ds = MakeCustomerScenario(200, 3);
  ASSERT_TRUE(ds.ok());
  SpectralOptions opts;
  opts.k = 3;
  opts.seed = 5;
  auto c = RunSpectral(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  auto embed =
      test::RefSpectralEmbedding(GaussianKernelMatrix(ds->data()), opts.k);
  ASSERT_TRUE(embed.ok());
  KMeansOptions km;
  km.k = opts.k;
  km.restarts = opts.kmeans_restarts;
  km.seed = opts.seed;
  auto ref = RunKMeans(*embed, km);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(c->labels, ref->labels);
}

// ||A||_1, the maximum absolute column sum.
double OneNorm(const Matrix& a) {
  double norm = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) {
    double col = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) col += std::fabs(a.at(i, j));
    norm = std::max(norm, col);
  }
  return norm;
}

// Projector V V^T onto the span of the first k columns of `vectors`.
Matrix TopProjector(const Matrix& vectors, size_t k) {
  std::vector<size_t> cols(k);
  for (size_t j = 0; j < k; ++j) cols[j] = j;
  const Matrix v = vectors.SelectColumns(cols);
  return v * v.Transpose();
}

// TopEigenpairs(a, k) against the QL oracle: the eigenvalues equal
// EigenSymmetric's first k bit for bit, every pair has a residual within
// 1e-12 ||A||_1, the vectors are orthonormal within 1e-12, and where the
// top-k eigenspace is defined (a gap after the k-th eigenvalue) it matches
// QL's and, for n <= 40, the Jacobi oracle's.
void ExpectTopEigenpairsMatchOracles(const Matrix& a, size_t k) {
  SCOPED_TRACE("n=" + std::to_string(a.rows()) + " k=" + std::to_string(k));
  const size_t n = a.rows();
  auto top = TopEigenpairs(a, k);
  auto full = EigenSymmetric(a);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(top->values.size(), k);
  ASSERT_EQ(top->vectors.rows(), n);
  ASSERT_EQ(top->vectors.cols(), k);
  for (size_t j = 0; j < k; ++j) {
    EXPECT_EQ(top->values[j], full->values[j]) << "j=" << j;
  }
  const double a_norm = OneNorm(a);
  const Matrix av = a * top->vectors;
  for (size_t j = 0; j < k; ++j) {
    double residual = 0.0;
    for (size_t i = 0; i < n; ++i) {
      residual = std::max(residual, std::fabs(av.at(i, j) -
                                              top->values[j] *
                                                  top->vectors.at(i, j)));
    }
    EXPECT_LE(residual, 1e-12 * a_norm) << "j=" << j;
  }
  const Matrix vtv = top->vectors.Transpose() * top->vectors;
  EXPECT_LE(vtv.MaxAbsDiff(Matrix::Identity(k)), 1e-12);

  const double scale = 1.0 + a_norm;
  if (k < n && full->values[k - 1] - full->values[k] < 1e-6 * scale) return;
  EXPECT_LE(TopProjector(top->vectors, k)
                .MaxAbsDiff(TopProjector(full->vectors, k)),
            1e-9);
  if (n > 40) return;
  auto jacobi = test::RefTopEigenJacobi(a, k);
  ASSERT_TRUE(jacobi.ok());
  for (size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(top->values[j], jacobi->values[j], 1e-10 * scale);
  }
  EXPECT_LE(TopProjector(top->vectors, k)
                .MaxAbsDiff(TopProjector(jacobi->vectors, k)),
            1e-8);
}

class TopEigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TopEigenPropertyTest, MatchesQlAndJacobi) {
  const size_t n = GetParam();
  for (const size_t k : {size_t{1}, std::min<size_t>(3, n), n}) {
    ExpectTopEigenpairsMatchOracles(RandomSpd(n, 100 + n), k);
    ExpectTopEigenpairsMatchOracles(RandomSymmetric(n, 300 + n), k);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopEigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 33, 200));

TEST(TopEigenTest, NjwAffinities) {
  // The matrices SpectralEmbedding decomposes: a planted multi-view
  // scenario and the customer scenario, at the k the pipeline uses.
  std::vector<ViewSpec> views(2);
  views[0] = {2, 3, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  const Matrix multi =
      GaussianKernelMatrix(MakeMultiView(150, views, 1, 33)->data(), 0.0);
  const Matrix customer =
      GaussianKernelMatrix(MakeCustomerScenario(120, 3)->data());
  for (const Matrix* w : {&multi, &customer}) {
    Matrix zero_diag = *w;
    for (size_t i = 0; i < zero_diag.rows(); ++i) zero_diag.at(i, i) = 0.0;
    const Matrix norm = NormaliseAffinity(zero_diag);
    for (const size_t k : {1, 2, 3, 5}) {
      ExpectTopEigenpairsMatchOracles(norm, k);
    }
  }
}

TEST(TopEigenTest, ZeroAndIdentity) {
  for (double fill : {0.0, 1.0}) {
    const Matrix a = Matrix::Identity(6) * fill;
    for (size_t k = 1; k <= 6; ++k) {
      auto r = TopEigenpairs(a, k);
      ASSERT_TRUE(r.ok()) << "fill=" << fill << " k=" << k << " "
                          << r.status().ToString();
      for (double v : r->values) EXPECT_EQ(v, fill);
      ExpectTopEigenpairsMatchOracles(a, k);
    }
  }
}

TEST(TopEigenTest, RepeatedTopEigenvalue) {
  // Eigenvalue 1 three times: only the top-3 eigenspace is defined.
  const Matrix norm = BlockAffinity({7, 11, 14});
  for (const size_t k : {1, 2, 3, 4}) ExpectTopEigenpairsMatchOracles(norm, k);
}

TEST(TopEigenTest, DuplicatedDiagonalBlocks) {
  // diag(B, B): every eigenvalue is exactly repeated, and the reduction
  // leaves a zero coupling between the blocks.
  const Matrix b = RandomSymmetric(6, 41);
  Matrix a(12, 12);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      a.at(i, j) = b.at(i, j);
      a.at(i + 6, j + 6) = b.at(i, j);
    }
  }
  for (const size_t k : {1, 2, 3, 4, 12}) ExpectTopEigenpairsMatchOracles(a, k);
}

TEST(TopEigenTest, SignIsDeterministic) {
  auto r = TopEigenpairs(RandomSymmetric(20, 5), 4);
  ASSERT_TRUE(r.ok());
  for (size_t j = 0; j < 4; ++j) {
    size_t top = 0;
    for (size_t i = 1; i < 20; ++i) {
      if (std::fabs(r->vectors.at(i, j)) > std::fabs(r->vectors.at(top, j))) {
        top = i;
      }
    }
    EXPECT_GT(r->vectors.at(top, j), 0.0) << "j=" << j;
  }
}

TEST(TopEigenTest, RejectsBadArguments) {
  const Matrix a = RandomSymmetric(4, 9);
  EXPECT_EQ(TopEigenpairs(a, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TopEigenpairs(a, 5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TopEigenpairs(Matrix(3, 4), 1).status().code(),
            StatusCode::kInvalidArgument);
  Matrix bad = a;
  bad.at(1, 2) = std::nan("");
  EXPECT_EQ(TopEigenpairs(bad, 2).status().code(),
            StatusCode::kComputationError);
  bad.at(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(TopEigenpairs(bad, 2).status().code(),
            StatusCode::kComputationError);
}

class SvdPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SvdPropertyTest, ReconstructionAndOrthonormality) {
  const auto [m, n] = GetParam();
  const Matrix a = RandomMatrix(m, n, 7 * m + n);
  auto r = ComputeSvd(a);
  ASSERT_TRUE(r.ok());
  const size_t rank = std::min(m, n);
  ASSERT_EQ(r->sigma.size(), rank);
  // Non-negative, sorted descending.
  for (size_t i = 0; i < rank; ++i) {
    EXPECT_GE(r->sigma[i], 0.0);
    if (i > 0) {
      EXPECT_GE(r->sigma[i - 1], r->sigma[i] - 1e-12);
    }
  }
  // Reconstruction.
  Matrix us = r->u;
  for (size_t j = 0; j < rank; ++j) {
    for (size_t i = 0; i < us.rows(); ++i) us.at(i, j) *= r->sigma[j];
  }
  const Matrix rec = us * r->v.Transpose();
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-8 * (1.0 + a.FrobeniusNorm()));
  // U^T U = I (columns with nonzero sigma).
  const Matrix utu = r->u.Transpose() * r->u;
  for (size_t i = 0; i < rank; ++i) {
    if (r->sigma[i] > 1e-9) {
      EXPECT_NEAR(utu.at(i, i), 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdPropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(3, 3),
                      std::make_pair<size_t, size_t>(5, 2),
                      std::make_pair<size_t, size_t>(2, 5),
                      std::make_pair<size_t, size_t>(8, 8),
                      std::make_pair<size_t, size_t>(10, 4),
                      std::make_pair<size_t, size_t>(4, 10)));

TEST(CholeskyTest, ReconstructsSpd) {
  const Matrix a = RandomSpd(5, 5);
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_LT((l.value() * l->Transpose()).MaxAbsDiff(a), 1e-9);
  // Lower triangular.
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(l->at(i, j), 0.0);
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix m = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(m).ok());
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  const Matrix a = Matrix::FromRows({{4, 1}, {1, 3}});
  auto x = SolveSpd(a, {1, 2});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(4 * (*x)[0] + (*x)[1], 1.0, 1e-12);
  EXPECT_NEAR((*x)[0] + 3 * (*x)[1], 2.0, 1e-12);
}

TEST(SolveSpdTest, RandomRoundTrip) {
  const Matrix a = RandomSpd(6, 17);
  Rng rng(9);
  std::vector<double> x_true(6);
  for (double& v : x_true) v = rng.Gaussian(0, 1);
  const std::vector<double> b = a.Apply(x_true);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
}

TEST(InverseTest, RandomRoundTrip) {
  const Matrix a = RandomSpd(5, 23);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_LT((a * inv.value()).MaxAbsDiff(Matrix::Identity(5)), 1e-8);
}

TEST(InverseTest, RejectsSingular) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;
  EXPECT_FALSE(Inverse(m).ok());
}

TEST(SqrtSymmetricTest, SquaresBack) {
  const Matrix a = RandomSpd(4, 31);
  auto s = SqrtSymmetric(a);
  ASSERT_TRUE(s.ok());
  EXPECT_LT((s.value() * s.value()).MaxAbsDiff(a), 1e-8);
}

TEST(InverseSqrtSymmetricTest, WhitensCovariance) {
  const Matrix a = RandomSpd(4, 37);
  auto w = InverseSqrtSymmetric(a);
  ASSERT_TRUE(w.ok());
  // W * A * W = I.
  const Matrix id = w.value() * a * w.value();
  EXPECT_LT(id.MaxAbsDiff(Matrix::Identity(4)), 1e-7);
}

TEST(QrTest, ReconstructionAndTriangularity) {
  const Matrix a = RandomMatrix(7, 4, 41);
  auto qr = ComputeQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT((qr->q * qr->r).MaxAbsDiff(a), 1e-9);
  const Matrix qtq = qr->q.Transpose() * qr->q;
  EXPECT_LT(qtq.MaxAbsDiff(Matrix::Identity(4)), 1e-9);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(qr->r.at(i, j), 0.0);
  }
}

TEST(QrTest, RejectsWide) { EXPECT_FALSE(ComputeQr(Matrix(2, 5)).ok()); }

TEST(PcaTest, RecoversDominantAxis) {
  // Data stretched along (1, 1)/sqrt(2).
  Rng rng(43);
  Matrix data(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const double t = rng.Gaussian(0, 5);
    const double s = rng.Gaussian(0, 0.5);
    data.at(i, 0) = t + s;
    data.at(i, 1) = t - s;
  }
  auto pca = FitPca(data);
  ASSERT_TRUE(pca.ok());
  EXPECT_GT(pca->eigenvalues[0], pca->eigenvalues[1]);
  const double c0 = std::fabs(pca->components.at(0, 0));
  const double c1 = std::fabs(pca->components.at(1, 0));
  EXPECT_NEAR(c0, 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_NEAR(c1, 1.0 / std::sqrt(2.0), 0.05);
}

TEST(PcaTest, ComponentsForVariance) {
  PcaModel model;
  model.eigenvalues = {8, 1, 1};
  EXPECT_EQ(model.ComponentsForVariance(0.75), 1u);
  EXPECT_EQ(model.ComponentsForVariance(0.95), 3u);
  EXPECT_EQ(model.ComponentsForVariance(0.9), 2u);
}

TEST(PcaTest, ProjectionCentersData) {
  const Matrix data = Matrix::FromRows({{1, 1}, {3, 3}});
  auto pca = FitPca(data);
  ASSERT_TRUE(pca.ok());
  const std::vector<double> p = pca->Project({2, 2}, 2);
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(PcaTest, RejectsEmpty) { EXPECT_FALSE(FitPca(Matrix()).ok()); }

}  // namespace
}  // namespace multiclust
