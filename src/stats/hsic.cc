#include "stats/hsic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

double MedianSquaredDistance(const Matrix& data) {
  const size_t n = data.rows();
  if (n < 2) return 1.0;
  std::vector<double> dists(n * (n - 1) / 2);
  // Pair (i, j), j > i, lands at a closed-form offset, so rows fill
  // disjoint slices in parallel and the vector matches the serial fill.
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      size_t idx = i * (n - 1) - i * (i - 1) / 2;
      for (size_t j = i + 1; j < n; ++j) {
        dists[idx++] = kernels::SquaredDistance(data.row_data(i),
                                                data.row_data(j), data.cols());
      }
    }
  });
  if (dists.empty()) return 1.0;
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  const double med = dists[dists.size() / 2];
  return med > 1e-12 ? med : 1.0;
}

}  // namespace

Matrix GaussianKernelMatrix(const Matrix& data, double gamma) {
  MULTICLUST_TRACE_SPAN("stats.hsic.kernel");
  const size_t n = data.rows();
  if (gamma <= 0.0) gamma = 1.0 / MedianSquaredDistance(data);
  Matrix k(n, n);
  // Upper triangle in parallel (each row owned by one chunk), then a
  // mirror pass for the lower triangle. Every entry is computed by the
  // same expression as the serial loop, so the matrix is bit-identical
  // for any thread count.
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      k.at(i, i) = 1.0;
      if (i + 1 >= n) continue;
      // Fused exp-row kernel over the contiguous tail rows i+1..n-1:
      // vectorized distances, scalar libm exp, no temporaries.
      kernels::GaussianRow(data.row_data(i), data.row_data(i + 1), n - i - 1,
                           data.cols(), gamma, &k.at(i, i + 1));
    }
  });
  ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < i; ++j) k.at(i, j) = k.at(j, i);
    }
  });
  return k;
}

Matrix CentredGaussianKernel(const Matrix& data, double gamma) {
  Matrix k = GaussianKernelMatrix(data, gamma);
  const size_t n = k.rows();
  // Kc = H K H: subtract row and column means, add back the grand mean.
  // Row means are complete before any row is rewritten, so the centring
  // runs in place.
  std::vector<double> row_mean(n, 0.0);
  ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      row_mean[i] = kernels::Sum(k.row_data(i), n) / static_cast<double>(n);
    }
  });
  const double total =
      kernels::Sum(row_mean.data(), n) / static_cast<double>(n);
  ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      kernels::CenterRow(k.row_data(i), row_mean[i], row_mean.data(), total,
                         k.row_data(i), n);
    }
  });
  return k;
}

Result<double> HsicFromCentred(const Matrix& kc, const Matrix& lc) {
  const size_t n = kc.rows();
  if (kc.cols() != n || lc.rows() != n || lc.cols() != n) {
    return Status::InvalidArgument(
        "Hsic: centred kernels must be square and paired");
  }
  if (n < 2) return Status::InvalidArgument("Hsic: need at least 2 rows");
  // Lc is symmetric (up to centring round-off), so the trace contracts
  // row-against-row: sum_i <Kc_i, Lc_i> — contiguous dots instead of the
  // strided column walk lc.at(j, i).
  const double trace = ParallelReduce(
      0, n, 256, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          s += kernels::Dot(kc.row_data(i), lc.row_data(i), n);
        }
        return s;
      },
      [](double a, double b) { return a + b; });
  const double denom = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  return trace / denom;
}

Result<double> Hsic(const Matrix& x, const Matrix& y, double gamma_x,
                    double gamma_y) {
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument("Hsic: samples must be paired (same rows)");
  }
  return HsicFromCentred(CentredGaussianKernel(x, gamma_x),
                         CentredGaussianKernel(y, gamma_y));
}

}  // namespace multiclust
