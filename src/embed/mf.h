#ifndef LEVA_EMBED_MF_H_
#define LEVA_EMBED_MF_H_

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace leva {

/// Matrix-factorization embedding parameters (Section 4.2.1).
struct MfOptions {
  size_t dim = 100;
  size_t oversample = 10;
  size_t power_iterations = 2;
  /// Negative-sampling ratio in the proximity matrix (Section 4.2, tau).
  double tau = 1e-3;
  /// Proximity window T: the matrix is built from the averaged multi-step
  /// transition sum (P + ... + P^T)/T, the NetMF-style generalization the
  /// paper's Section 4.2.1 points to via [35, 41]. T = 1 is the plain
  /// edge-level proximity; T >= 2 lets multi-hop join paths (base row -> key
  /// token -> foreign row -> attribute token) reach the factorization.
  size_t window = 2;
  /// Keep at most this many entries per row of the windowed transition
  /// matrix (largest first); bounds the density of P^t.
  size_t max_row_entries = 128;
  /// Apply ProNE-style spectral propagation after factorization.
  bool spectral_propagation = true;
  size_t chebyshev_order = 8;
  /// Band-pass filter center / sharpness (ProNE's mu, theta).
  double mu = 0.2;
  double theta = 0.5;
  /// Worker threads for the SVD / propagation matmuls (0 = hardware).
  /// Embeddings are bit-identical at every thread count.
  size_t threads = 1;
};

/// Builds the shifted-PMI proximity matrix of Section 4.2:
///   M_ij = max(0, log W_ij - log(tau * P_{D,j})),
/// where W is the window-averaged transition matrix (P + ... + P^T)/T and
/// P_{D,j} node j's share of total edge weight. With window = 1 this is the
/// plain edge-level proximity; the value-node construction keeps the base
/// transition matrix at nnz = O(MN) and `max_row_entries` bounds the density
/// of the higher powers.
SparseMatrix BuildProximityMatrix(const LevaGraph& graph, double tau,
                                  size_t window = 1,
                                  size_t max_row_entries = 128);

/// Symmetric normalized adjacency D^{-1/2} A D^{-1/2}.
SparseMatrix NormalizedAdjacency(const LevaGraph& graph);

/// ProNE-style spectral propagation: applies a Chebyshev-expanded band-pass
/// filter of the (rescaled) graph Laplacian to the embedding, amplifying the
/// informative spectral band. (Zhang et al., IJCAI 2019.) Takes the
/// embedding by value and recurs in its buffer: the recurrence holds three
/// n x d matrices (T_{k-1}, T_k and the filtered sum), and a caller that
/// moves the embedding in pays no copy. Bit-identical at every thread count.
Result<Matrix> SpectralPropagate(const LevaGraph& graph, Matrix embedding,
                                 size_t order, double mu, double theta,
                                 size_t threads = 1);

/// Full MF pipeline: proximity matrix -> randomized SVD -> E = U_d Σ_d^{1/2}
/// -> optional spectral propagation. Returns an N x dim matrix whose rows
/// align with graph node ids.
Result<Matrix> MatrixFactorizationEmbed(const LevaGraph& graph,
                                        const MfOptions& options, Rng* rng);

/// Peak working-set bytes of MatrixFactorizationEmbed for N nodes / E edges
/// at `options` (dim, oversample, window, max_row_entries): the larger of
/// the SVD's and the propagation's peaks (see DESIGN.md "MF working set"),
/// a bound at every thread count that does not read `options.threads`.
/// Drives the automatic MF-vs-RW selection (Section 4.2).
size_t EstimateMfMemoryBytes(size_t nodes, size_t edges,
                             const MfOptions& options);
/// Estimated bytes for the RW path (alias tables + corpus).
size_t EstimateRwMemoryBytes(size_t nodes, size_t edges, size_t walk_length,
                             size_t epochs, bool weighted);

}  // namespace leva

#endif  // LEVA_EMBED_MF_H_
