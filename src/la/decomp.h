#ifndef LEVA_LA_DECOMP_H_
#define LEVA_LA_DECOMP_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace leva {

/// Thin QR factor by block classical Gram-Schmidt with reorthogonalization
/// (BCGS2): 16-column blocks, left to right; each block is projected twice
/// against all earlier columns as level-3 products, with modified
/// Gram-Schmidt inside the block. Returns Q (m x k) with orthonormal columns
/// spanning range(A), column j of Q spanning what column j of A adds to
/// columns 0..j-1; a column whose residual norm is at most 1e-12 is rank-null
/// and comes back as a zero column. Works in place on `a` (pass an rvalue to
/// avoid the copy) and holds only O(16 m) of scratch besides.
Matrix GramSchmidtQ(Matrix a);

/// Eigendecomposition of a symmetric matrix (only its upper triangle is
/// read) by Householder tridiagonalization plus implicit QL (EISPACK
/// tred2/tql2). Eigenvalues are returned in descending order with matching
/// eigenvector columns, each signed so that its largest-magnitude entry (the
/// lowest-index one on a tie) is positive. Fails if the QL iteration does not
/// converge.
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // columns are eigenvectors
};
Result<EigenResult> SymmetricEigen(const Matrix& a);

/// The left factor and singular values of a truncated SVD. The right factor
/// is not formed (MF Fit embeds with U and σ alone); where it is wanted it is
/// Aᵀ U Σ⁻¹.
struct SvdResult {
  Matrix u;                             // m x k
  std::vector<double> singular_values;  // descending
};

/// Randomized truncated SVD of a sparse matrix (Halko, Martinsson, Tropp
/// 2010): range finding with a Gaussian sketch, `power_iterations` rounds of
/// subspace iteration, then an exact factorization in the reduced space: the
/// eigendecomposition of BBᵀ (B = QᵀA), whose eigenvectors rotate Q into U.
/// Each column of U is signed as SymmetricEigen signs its eigenvectors.
/// O(d²N) given nnz = O(N).
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
