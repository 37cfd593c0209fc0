#include "embed/mf.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "la/decomp.h"

namespace leva {

SparseMatrix BuildProximityMatrix(const LevaGraph& graph, double tau,
                                  size_t window, size_t max_row_entries) {
  const size_t n = graph.NumNodes();
  if (window == 0) window = 1;
  // Weighted degrees and total weight.
  std::vector<double> degree(n, 0.0);
  double total = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    for (const float w : graph.Weights(i)) {
      degree[i] += w;
      total += w;
    }
  }

  // Row i of the window-averaged transition matrix W = (P + .. + P^T)/T,
  // computed with a sparse accumulator and per-row top-k pruning so the
  // higher powers cannot densify.
  std::vector<double> acc(n, 0.0);       // persistent accumulator, reset lazily
  std::vector<NodeId> touched;
  std::vector<double> frontier_val;      // current P^t row (sparse)
  std::vector<NodeId> frontier_idx;

  // The CSR is emitted row by row, each row sorted by column: the layout
  // FromTriplets would build, without a triplet list beside it.
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<uint32_t> cols;
  std::vector<double> values;
  std::vector<std::pair<NodeId, double>> row;
  for (NodeId i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i];
    if (degree[i] <= 0) continue;
    // t = 1 frontier.
    frontier_idx.clear();
    frontier_val.clear();
    const auto nbrs = graph.Neighbors(i);
    const auto weights = graph.Weights(i);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      frontier_idx.push_back(nbrs[k]);
      frontier_val.push_back(weights[k] / degree[i]);
    }
    touched.clear();
    for (size_t k = 0; k < frontier_idx.size(); ++k) {
      if (acc[frontier_idx[k]] == 0.0) touched.push_back(frontier_idx[k]);
      acc[frontier_idx[k]] += frontier_val[k];
    }
    // Higher steps.
    std::vector<NodeId> next_idx;
    std::vector<double> next_val;
    for (size_t t = 2; t <= window; ++t) {
      next_idx.clear();
      next_val.clear();
      // One step of the transition from the current frontier, using a local
      // sparse accumulator keyed off `acc` sign-free trick: accumulate into a
      // scratch map replaced by (index, value) merging after sort.
      static thread_local std::vector<double> step_acc;
      static thread_local std::vector<NodeId> step_touched;
      step_acc.resize(n, 0.0);
      step_touched.clear();
      for (size_t k = 0; k < frontier_idx.size(); ++k) {
        const NodeId u = frontier_idx[k];
        if (degree[u] <= 0) continue;
        const double scale = frontier_val[k] / degree[u];
        const auto unbrs = graph.Neighbors(u);
        const auto uweights = graph.Weights(u);
        for (size_t m = 0; m < unbrs.size(); ++m) {
          const NodeId v = unbrs[m];
          if (step_acc[v] == 0.0) step_touched.push_back(v);
          step_acc[v] += scale * uweights[m];
        }
      }
      // Prune the frontier to the largest entries.
      if (step_touched.size() > max_row_entries) {
        std::nth_element(step_touched.begin(),
                         step_touched.begin() + static_cast<ptrdiff_t>(max_row_entries),
                         step_touched.end(), [&](NodeId a, NodeId b) {
                           return step_acc[a] > step_acc[b];
                         });
        for (size_t k = max_row_entries; k < step_touched.size(); ++k) {
          step_acc[step_touched[k]] = 0.0;
        }
        step_touched.resize(max_row_entries);
      }
      for (const NodeId v : step_touched) {
        next_idx.push_back(v);
        next_val.push_back(step_acc[v]);
        if (acc[v] == 0.0) touched.push_back(v);
        acc[v] += step_acc[v];
        step_acc[v] = 0.0;
      }
      frontier_idx = next_idx;
      frontier_val = next_val;
    }

    // Emit the shifted-PMI entries for this row and reset the accumulator.
    const double inv_window = 1.0 / static_cast<double>(window);
    row.clear();
    for (const NodeId j : touched) {
      const double wij = acc[j] * inv_window;
      acc[j] = 0.0;
      if (wij <= 0 || degree[j] <= 0) continue;
      const double pdj = degree[j] / total;
      const double m = std::log(wij) - std::log(tau * pdj);
      if (m > 0) row.emplace_back(j, m);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [j, m] : row) {
      cols.push_back(j);
      values.push_back(m);
    }
    offsets[i + 1] = cols.size();
  }
  // The matrix lives through the SVD, the stage's peak: drop the growth
  // slack.
  cols.shrink_to_fit();
  values.shrink_to_fit();
  return SparseMatrix::FromCsr(n, n, std::move(offsets), std::move(cols),
                               std::move(values));
}

SparseMatrix NormalizedAdjacency(const LevaGraph& graph) {
  const size_t n = graph.NumNodes();
  std::vector<double> degree(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    for (const float w : graph.Weights(i)) degree[i] += w;
  }
  std::vector<Triplet> triplets;
  triplets.reserve(2 * graph.NumEdges());
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = graph.Neighbors(i);
    const auto weights = graph.Weights(i);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId j = nbrs[k];
      if (degree[i] <= 0 || degree[j] <= 0) continue;
      triplets.push_back(
          {i, j, weights[k] / std::sqrt(degree[i] * degree[j])});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

namespace {

constexpr size_t kRowGrain = 64;

// Rows [r0, r1) of one Chebyshev step on Ltilde = -Anorm:
//   T_{k+1} = 2 Ltilde T_k - T_{k-1},  filtered += coeff * T_{k+1},
// with row r of T_{k+1} written over row r of T_{k-1}, the only row of
// T_{k-1} it reads. Each row is formed in a zeroed scratch row as
// Anorm.Multiply forms it, then scaled by -2 and added -1 times T_{k-1}'s
// row: the expressions, in the order, of Multiply, Scale(-2.0) and
// AddScaled(t_prev, -1.0) on whole matrices.
LEVA_TARGET_CLONES
void ChebyshevStepRows(const SparseMatrix& anorm, const Matrix& t_cur,
                       double coeff, Matrix* t_prev, Matrix* filtered,
                       size_t r0, size_t r1) {
  const size_t d = t_cur.cols();
  const size_t* offsets = anorm.offsets().data();
  const uint32_t* cols = anorm.col_indices().data();
  const double* values = anorm.values().data();
  std::vector<double> row(d);
  for (size_t r = r0; r < r1; ++r) {
    std::fill(row.begin(), row.end(), 0.0);
    for (size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      simd::GatherAdd(row.data(), t_cur.RowPtr(cols[i]), values[i], d);
    }
    simd::Scale(row.data(), -2.0, d);
    double* prev = t_prev->RowPtr(r);
    simd::GatherAdd(row.data(), prev, -1.0, d);
    std::copy(row.begin(), row.end(), prev);
    simd::GatherAdd(filtered->RowPtr(r), row.data(), coeff, d);
  }
}

}  // namespace

Result<Matrix> SpectralPropagate(const LevaGraph& graph, Matrix embedding,
                                 size_t order, double mu, double theta,
                                 size_t threads) {
  if (embedding.rows() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "embedding row count does not match graph node count");
  }
  if (order < 2) return embedding;

  // Rescaled Laplacian: with lambda_max ~= 2 for a normalized Laplacian,
  // Ltilde = L - I = -Anorm, whose spectrum lies in [-1, 1].
  const SparseMatrix anorm = NormalizedAdjacency(graph);

  // Chebyshev coefficients of the ProNE band-pass kernel
  //   g(lambda) = exp(-theta/2 * ((lambda - mu)^2 - 1))
  // via Gauss-Chebyshev quadrature.
  const size_t quad = std::max<size_t>(order + 1, 16);
  std::vector<double> coeff(order, 0.0);
  for (size_t k = 0; k < order; ++k) {
    double sum = 0;
    for (size_t j = 0; j < quad; ++j) {
      const double angle = M_PI * (static_cast<double>(j) + 0.5) /
                           static_cast<double>(quad);
      const double x = std::cos(angle);
      const double g = std::exp(-0.5 * theta * ((x - mu) * (x - mu) - 1.0));
      sum += g * std::cos(static_cast<double>(k) * angle);
    }
    coeff[k] = (k == 0 ? 1.0 : 2.0) * sum / static_cast<double>(quad);
  }

  // Chebyshev recurrence on Ltilde = -Anorm in three n x d buffers: the
  // embedding itself is T0, and each step overwrites T_{k-1} with T_{k+1}.
  Matrix t_prev = std::move(embedding);               // T0 E
  Matrix t_cur = anorm.Multiply(t_prev, threads);     // Anorm E
  t_cur.Scale(-1.0);                                  // T1 E = Ltilde E
  Matrix filtered = t_prev;
  filtered.Scale(coeff[0]);
  filtered.AddScaled(t_cur, coeff[1]);
  for (size_t k = 2; k < order; ++k) {
    ParallelFor(threads, 0, t_prev.rows(), kRowGrain,
                [&](size_t r0, size_t r1) {
                  ChebyshevStepRows(anorm, t_cur, coeff[k], &t_prev,
                                    &filtered, r0, r1);
                });
    std::swap(t_prev, t_cur);  // t_cur = T_{k+1}, t_prev = T_k
  }
  t_prev = Matrix();
  t_cur = Matrix();

  // Final smoothing through the normalized adjacency, as in ProNE's
  // propagation step.
  return anorm.Multiply(filtered, threads);
}

Result<Matrix> MatrixFactorizationEmbed(const LevaGraph& graph,
                                        const MfOptions& options, Rng* rng) {
  if (graph.NumNodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  const size_t threads = ResolveThreads(options.threads);
  SvdResult svd;
  {
    // Scoped: the proximity matrix is freed as soon as the SVD returns.
    const SparseMatrix m = BuildProximityMatrix(
        graph, options.tau, options.window, options.max_row_entries);
    RandomizedSvdOptions svd_options;
    svd_options.rank = options.dim;
    svd_options.oversample = options.oversample;
    svd_options.power_iterations = options.power_iterations;
    svd_options.threads = threads;
    LEVA_ASSIGN_OR_RETURN(svd, RandomizedSVD(m, svd_options, rng));
  }

  // E = U_d Σ_d^{1/2}, formed in place in U.
  const size_t rank = svd.singular_values.size();
  std::vector<double> root(rank);
  for (size_t j = 0; j < rank; ++j) {
    root[j] = std::sqrt(std::max(0.0, svd.singular_values[j]));
  }
  for (size_t i = 0; i < svd.u.rows(); ++i) {
    double* row = svd.u.RowPtr(i);
    for (size_t j = 0; j < rank; ++j) row[j] = row[j] * root[j];
  }
  if (options.spectral_propagation) {
    return SpectralPropagate(graph, std::move(svd.u), options.chebyshev_order,
                             options.mu, options.theta, threads);
  }
  return std::move(svd.u);
}

size_t EstimateMfMemoryBytes(size_t nodes, size_t edges,
                             const MfOptions& options) {
  constexpr size_t kEntry = sizeof(double) + sizeof(uint32_t);  // CSR entry
  const size_t offsets = (nodes + 1) * sizeof(size_t);
  const size_t k = std::min(options.dim + options.oversample, nodes);
  const size_t d = std::min(options.dim, k);
  // The proximity CSR: row i holds node i's neighbours plus at most
  // max_row_entries entries for each further step of the window, and never
  // more than n entries.
  const size_t steps = std::max<size_t>(options.window, 1) - 1;
  const size_t proximity_nnz = std::min(
      nodes * nodes, 2 * edges + nodes * steps * options.max_row_entries);
  const size_t proximity = proximity_nnz * kEntry + offsets;
  // RandomizedSVD peaks in a transposed product AᵀX: the proximity CSR, the
  // n x k operand and product, and the product's zeroed n x k partials. A
  // product holds at most one partial per chunk after the first, however
  // many workers run it, so neither the estimate nor the MF-vs-RW choice it
  // drives depends on the thread count.
  const size_t partials = SparseMatrix::TransposeChunks(nodes) - 1;
  const size_t svd = proximity + (2 + partials) * nodes * k * sizeof(double);
  // SpectralPropagate: the normalized adjacency (2E entries) and three
  // n x d buffers, T_{k-1}, T_k and the filtered sum.
  const size_t propagate =
      2 * edges * kEntry + offsets + 3 * nodes * d * sizeof(double);
  return std::max(svd, propagate);
}

size_t EstimateRwMemoryBytes(size_t nodes, size_t edges, size_t walk_length,
                             size_t epochs, bool weighted) {
  // Corpus (epochs walks per node, `walk_length` ids each) + alias tables.
  size_t bytes = nodes * epochs * walk_length * sizeof(NodeId);
  if (weighted) {
    bytes += 2 * edges * (sizeof(double) + sizeof(uint32_t));
  }
  return bytes;
}

}  // namespace leva
