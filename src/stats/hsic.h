#ifndef MULTICLUST_STATS_HSIC_H_
#define MULTICLUST_STATS_HSIC_H_

#include "common/result.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Gaussian (RBF) kernel matrix of the rows of `data`. `gamma <= 0` selects
/// the median-heuristic bandwidth (gamma = 1 / median squared distance).
Matrix GaussianKernelMatrix(const Matrix& data, double gamma = 0.0);

/// Double-centred Gaussian kernel H K H (H = I - 11^T / n) of the rows of
/// `data`, with `gamma` as in GaussianKernelMatrix. One factor of Hsic:
/// a caller pairing one sample with many others centres it once.
Matrix CentredGaussianKernel(const Matrix& data, double gamma = 0.0);

/// HSIC from two centred kernels of paired samples (both n x n, n >= 2):
/// tr(Kc Lc) / (n-1)^2.
Result<double> HsicFromCentred(const Matrix& kc, const Matrix& lc);

/// Biased empirical Hilbert-Schmidt Independence Criterion between two
/// multivariate samples with paired rows (Gretton et al. 2005; used by
/// mSC, tutorial slide 90, to steer subspace search towards statistically
/// independent subspaces). Returns HSIC = tr(K H L H) / (n-1)^2, which is
/// ~0 for independent views and grows with dependence. Equal, bit for bit,
/// to HsicFromCentred of the two CentredGaussianKernels.
Result<double> Hsic(const Matrix& x, const Matrix& y, double gamma_x = 0.0,
                    double gamma_y = 0.0);

}  // namespace multiclust

#endif  // MULTICLUST_STATS_HSIC_H_
