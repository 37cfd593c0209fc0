#ifndef LEVA_LA_DECOMP_H_
#define LEVA_LA_DECOMP_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace leva {

/// Thin QR via modified Gram-Schmidt with re-orthogonalization.
/// Returns Q (m x k) with orthonormal columns spanning range(A); rank-null
/// columns are replaced by zero columns.
Matrix GramSchmidtQ(const Matrix& a);

/// Eigendecomposition of a symmetric matrix via cyclic Jacobi rotations.
/// Eigenvalues are returned in descending order with matching eigenvector
/// columns.
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // columns are eigenvectors
};
Result<EigenResult> SymmetricEigen(const Matrix& a, size_t max_sweeps = 30,
                                   double tol = 1e-12);

/// Thin SVD of a (possibly tall) dense matrix computed from the
/// eigendecomposition of AᵀA. Suitable when cols is small (<= a few hundred).
struct SvdResult {
  Matrix u;                         // m x k
  std::vector<double> singular_values;  // descending
  Matrix v;                         // n x k
};
Result<SvdResult> ThinSVD(const Matrix& a, size_t threads = 1);

/// Randomized truncated SVD of a sparse matrix (Halko, Martinsson, Tropp
/// 2010): range finding with a Gaussian sketch, `power_iterations` rounds of
/// subspace iteration, then an exact SVD in the reduced space. O(d²N) given
/// nnz = O(N).
struct RandomizedSvdOptions {
  size_t rank = 100;
  size_t oversample = 10;
  size_t power_iterations = 2;
  /// Worker threads for the sketch/power-iteration matmuls. Results are
  /// bit-identical at every thread count (see la/sparse.h).
  size_t threads = 1;
};
Result<SvdResult> RandomizedSVD(const SparseMatrix& a,
                                const RandomizedSvdOptions& options, Rng* rng);

/// PCA fitted on rows of X. Used by the embedding dimension-reduction study
/// (Table 7) and as a deployment-time option (Section 4.4).
class PCA {
 public:
  /// Fits `components` principal directions on the rows of `x`. `threads`
  /// parallelizes the covariance matmul; deterministic at any thread count.
  static Result<PCA> Fit(const Matrix& x, size_t components,
                         size_t threads = 1);

  /// Projects rows of `x` onto the fitted components.
  Matrix Transform(const Matrix& x) const;

  size_t components() const { return basis_.cols(); }
  const std::vector<double>& mean() const { return mean_; }
  const Matrix& basis() const { return basis_; }  ///< d x k
  const std::vector<double>& explained_variance() const { return variance_; }

 private:
  std::vector<double> mean_;
  Matrix basis_;  // d x k, columns are components
  std::vector<double> variance_;
};

}  // namespace leva

#endif  // LEVA_LA_DECOMP_H_
