// Dense-LA oracles for the MF Fit path (la/decomp.h, la/matrix.h,
// la/sparse.h), of two kinds.
//
// Bitwise oracles (Reference*): column-wise block Gram-Schmidt on the
// row-major Q, tred2/tql2 on a plainly indexed Vᵀ, and the scalar matmul /
// CSR loops. Each is the plain loop form the production kernels must
// reproduce bit for bit — the production code runs the same IEEE operations
// in the same order on a different memory layout and on explicit SIMD lanes.
// Single-threaded: the production kernels' results do not depend on their
// thread count.
//
// Quality oracles: two-pass modified Gram-Schmidt one column at a time and
// cyclic Jacobi, the factorizations MF Fit used before the block
// algorithms. Tests compare production with them by tolerance (span,
// zeroed columns, eigenvalues), never by bits.
//
// Never used outside tests.
#ifndef LEVA_TESTS_REFERENCE_LA_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_LA_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "la/decomp.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace leva {

/// Plain helpers the tests build and check matrices with.
Matrix IdentityMatrix(size_t n);
Matrix Transposed(const Matrix& m);
double FrobeniusNorm(const Matrix& m);
/// Entry (r, c) of a CSR matrix, 0 when absent.
double SparseAt(const SparseMatrix& m, size_t r, size_t c);

/// What GramSchmidtQ must return.
Matrix ReferenceGramSchmidtQ(const Matrix& a);

/// What SymmetricEigen must return.
Result<EigenResult> ReferenceSymmetricEigen(const Matrix& a);

/// Quality oracle: two-pass modified Gram-Schmidt, one column at a time
/// against every earlier column; a residual norm at most 1e-12 zeroes the
/// column.
Matrix MgsGramSchmidtQ(const Matrix& a);

/// Quality oracle: cyclic Jacobi eigendecomposition, eigenvalues descending,
/// eigenvectors signed as SymmetricEigen signs them.
Result<EigenResult> JacobiSymmetricEigen(const Matrix& a,
                                         size_t max_sweeps = 30,
                                         double tol = 1e-12);

/// What MatMul / MatTMul must return at any thread count.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b);
Matrix ReferenceMatTMul(const Matrix& a, const Matrix& b);

/// What SparseMatrix::Multiply / TransposeMultiply must return at any thread
/// count. The transpose product keeps the production chunk layout: all
/// chunk partials are scattered first, then merged in chunk order.
Matrix ReferenceSparseMultiply(const SparseMatrix& a, const Matrix& x);
Matrix ReferenceSparseTransposeMultiply(const SparseMatrix& a,
                                        const Matrix& x);

/// Thin SVD of a (possibly tall) dense matrix from the eigendecomposition
/// of AᵀA = V Σ² Vᵀ, with U = A V Σ⁻¹ (a column whose σ is at most 1e-12
/// stays zero): all three factors, for the reconstruction tests.
struct ThinSvdResult {
  Matrix u;                             // m x n
  std::vector<double> singular_values;  // descending
  Matrix v;                             // n x n
};

/// ThinSVD composed from the production kernels (MatTMul, SymmetricEigen,
/// MatMul at `threads`), and the same composed from the oracle kernels above.
Result<ThinSvdResult> ThinSVD(const Matrix& a, size_t threads = 1);
Result<ThinSvdResult> ReferenceThinSVD(const Matrix& a);

/// RandomizedSVD composed from the oracle kernels above.
Result<SvdResult> ReferenceRandomizedSVD(const SparseMatrix& a,
                                         const RandomizedSvdOptions& options,
                                         Rng* rng);

/// PCA::Fit composed from the oracle kernels: the fitted column means, the
/// d x components basis and the explained variances.
struct ReferencePca {
  std::vector<double> mean;
  Matrix basis;
  std::vector<double> variance;
};
Result<ReferencePca> ReferencePcaFit(const Matrix& x, size_t components);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_LA_REFERENCE_H_
