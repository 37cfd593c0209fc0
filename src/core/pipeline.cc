#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/token_resolver.h"
#include "embed/walks_batched.h"

namespace leva {
namespace {

// Rows per ParallelFor chunk in the batched gather. Small enough to balance
// across workers on modest tables and to keep a chunk's output rows
// cache-resident through the column passes, large enough to amortize
// dispatch.
constexpr size_t kFeaturizeGrain = 64;

// Distinct tokens the serving resolver cache may hold before it is evicted
// wholesale (entry + key + slot is ~70 bytes, so this is a few hundred MB at
// the cap — far beyond any fitted vocabulary that fits in the store anyway).
constexpr size_t kResolverCacheCap = size_t{1} << 22;

// How many occurrences ahead the gather prefetches embedding rows. The
// resolved arrays are padded by this much so the loop needs no bounds check.
constexpr size_t kPrefetchDist = 4;

// Resolved occurrences of one textified column over a batch of rows:
// (embedding row pointer, weight) per token — null for unseen tokens — with
// offsets local to the batch. Resolving down to raw row pointers in phase 1
// turns the phase-2 gather into a flat array walk whose loads software
// prefetch can cover. The pointer is typed by the store's tier (fp64, bf16,
// or int8 row — the gather dispatches once per chunk, not per token); for
// int8 rows `scale` carries the per-row dequantization factor so the hot
// loop never touches the scales array.
struct ResolvedColumn {
  struct Occ {
    const void* vec;
    double weight;
    double scale;
  };
  std::vector<Occ> occ;
  std::vector<size_t> offsets;
};

// Weighted-mean gather over one chunk of rows [begin, end): accumulate every
// resolved token of every column into a chunk-local row buffer, divide by the
// accumulated weight, and store the scaled vector into the value slot (column
// offset `off`) of its row in the row-major matrix `x` (row stride `width`).
// Accumulating in the L1-resident buffer instead of the matrix row turns ~one
// read-modify-write pass per column plus a division pass into a single store
// per output element. Per row the accumulation order is untouched — columns
// in schema order, tokens in cell order, then one division — so the bits
// match a row-at-a-time weighted mean (tests/reference/featurize_reference.h)
// that does the separately-rounded mul+add and a final per-element division
// (not a multiply by the reciprocal). Rows of `x` must be zero on entry
// (freshly allocated dataset rows are): a row with no resolved tokens is left
// untouched. One clone
// dispatch covers the whole chunk, so no per-token indirect calls.
// When `dup_to_row` is set (held-out rows under Row+Value), the scaled
// vector is stored to the row half in the same pass instead of a separate
// copy loop — same values, one less sweep over the matrix.
//
// The accumulate step is tier-templated: quantized stores (bf16/int8) fuse
// element-wise dequantization into the same pass via the simd.h kernels, so
// a quantized row costs one load of its compressed bytes — no fp64 row is
// ever materialized. The dequantize-then-weight rounding order matches what
// a per-token Embedding::Get sees, keeping the gather bit-identical to the
// row-at-a-time oracle at every tier. Each LEVA_TARGET_CLONES wrapper
// below instantiates one tier, dispatched once per chunk.
template <StorageTier kTier>
LEVA_ALWAYS_INLINE void GatherChunkImpl(const ResolvedColumn* cols,
                                        size_t num_cols, size_t dim, double* x,
                                        size_t width, size_t off, size_t b0,
                                        size_t begin, size_t end,
                                        bool dup_to_row) {
  std::vector<double> acc(dim);  // zero-initialized; re-zeroed after each row
  double* a = acc.data();
  for (size_t r = begin; r < end; ++r) {
    double total_weight = 0.0;
    bool touched = false;
    for (size_t c = 0; c < num_cols; ++c) {
      const ResolvedColumn& col = cols[c];
      const size_t cell_end = col.offsets[r - b0 + 1];
      for (size_t t = col.offsets[r - b0]; t < cell_end; ++t) {
        const ResolvedColumn::Occ& o = col.occ[t];
        // Occurrences are walked in order, so pull the row a few tokens
        // ahead into cache (the padded tail makes the unguarded look-ahead
        // safe; prefetching null never faults).
        LEVA_PREFETCH(col.occ[t + kPrefetchDist].vec);
        if (o.vec == nullptr) continue;
        const double w = o.weight;
        total_weight += w;
        touched = true;
        if constexpr (kTier == StorageTier::kBf16) {
          simd::GatherAddBf16(a, static_cast<const uint16_t*>(o.vec), w, dim);
        } else if constexpr (kTier == StorageTier::kInt8) {
          simd::DequantGatherAdd(a, static_cast<const int8_t*>(o.vec), o.scale,
                                 w, dim);
        } else {
          simd::GatherAdd(a, static_cast<const double*>(o.vec), w, dim);
        }
      }
    }
    // total_weight == 0 leaves the (already zero) matrix row untouched,
    // exactly like the row-at-a-time path skipping its division.
    if (total_weight > 0) {
      simd::MeanStore(a, total_weight, x + r * width + off,
                      dup_to_row ? x + r * width : nullptr, dim);
    } else if (touched) {
      // Accumulated but zero total weight: reset the buffer for the next row.
      std::fill(acc.begin(), acc.end(), 0.0);
    }
  }
}

// One multi-versioned outer function per tier (the clones recompile the
// inlined kernels with their ISA — see simd.h), plus the per-chunk dispatch.
LEVA_TARGET_CLONES
void GatherChunkF64(const ResolvedColumn* cols, size_t num_cols, size_t dim,
                    double* x, size_t width, size_t off, size_t b0,
                    size_t begin, size_t end, bool dup_to_row) {
  GatherChunkImpl<StorageTier::kFp64>(cols, num_cols, dim, x, width, off, b0,
                                      begin, end, dup_to_row);
}

LEVA_TARGET_CLONES
void GatherChunkBf16(const ResolvedColumn* cols, size_t num_cols, size_t dim,
                     double* x, size_t width, size_t off, size_t b0,
                     size_t begin, size_t end, bool dup_to_row) {
  GatherChunkImpl<StorageTier::kBf16>(cols, num_cols, dim, x, width, off, b0,
                                      begin, end, dup_to_row);
}

LEVA_TARGET_CLONES
void GatherChunkI8(const ResolvedColumn* cols, size_t num_cols, size_t dim,
                   double* x, size_t width, size_t off, size_t b0,
                   size_t begin, size_t end, bool dup_to_row) {
  GatherChunkImpl<StorageTier::kInt8>(cols, num_cols, dim, x, width, off, b0,
                                      begin, end, dup_to_row);
}

void GatherChunk(StorageTier tier, const ResolvedColumn* cols, size_t num_cols,
                 size_t dim, double* x, size_t width, size_t off, size_t b0,
                 size_t begin, size_t end, bool dup_to_row) {
  switch (tier) {
    case StorageTier::kBf16:
      GatherChunkBf16(cols, num_cols, dim, x, width, off, b0, begin, end,
                      dup_to_row);
      return;
    case StorageTier::kInt8:
      GatherChunkI8(cols, num_cols, dim, x, width, off, b0, begin, end,
                    dup_to_row);
      return;
    case StorageTier::kFp64:
      break;
  }
  GatherChunkF64(cols, num_cols, dim, x, width, off, b0, begin, end,
                 dup_to_row);
}

}  // namespace

const LevaPipeline::ServingState& LevaPipeline::state_or_empty() const {
  static const ServingState kEmpty;
  const std::shared_ptr<const ServingState> s =
      serving_.load();
  // The reference stays valid because `serving_` keeps its own reference
  // until the next publish — callers must not hold it across a reload.
  return s == nullptr ? kEmpty : *s;
}

Status LevaPipeline::Fit(const Database& db) {
  metrics::Span fit_span(&metrics_.fit);
  Rng rng(config_.seed);
  const size_t threads = ResolveThreads(config_.threads);
  LEVA_LOG(kDebug, "pipeline threads: %zu (requested %zu)", threads,
           config_.threads);

  // The whole model is assembled in a shadow state and only published at the
  // end, so a failed Fit never leaves a half-built model serving.
  auto state = std::make_shared<ServingState>();
  state->config = config_;

  // Stage 1: input & textification.
  std::vector<TextifiedTable> textified;
  {
    metrics::Span span(&metrics_.textify);
    state->textifier = Textifier(config_.textify);
    LEVA_RETURN_IF_ERROR(state->textifier.Fit(db));
    textified.reserve(db.tables().size());
    for (const Table& t : db.tables()) {
      LEVA_ASSIGN_OR_RETURN(TextifiedTable tt, state->textifier.Transform(t));
      textified.push_back(std::move(tt));
    }
  }

  // Stages 2-3: graph construction & refinement (Algorithm 1).
  {
    metrics::Span span(&metrics_.graph);
    LEVA_ASSIGN_OR_RETURN(
        state->graph,
        BuildGraph(textified, state->textifier.NumAttributes(), config_.graph));
  }
  const LevaGraph& graph = state->graph;

  // Method selection: MF when the estimated memory fits the budget
  // (Section 4.2 "Why Two Methods?").
  EmbeddingMethod chosen = config_.method;
  if (chosen == EmbeddingMethod::kAuto) {
    const size_t mf_bytes = EstimateMfMemoryBytes(
        graph.NumNodes(), graph.NumEdges(), config_.embedding_dim);
    chosen = mf_bytes <= config_.memory_budget_bytes
                 ? EmbeddingMethod::kMatrixFactorization
                 : EmbeddingMethod::kRandomWalk;
    LEVA_LOG(kDebug, "auto method: MF estimate %zu bytes -> %s", mf_bytes,
             chosen == EmbeddingMethod::kMatrixFactorization ? "MF" : "RW");
  }
  state->chosen = chosen;

  // Stage 4: embedding construction, stored keyed by node label.
  LEVA_ASSIGN_OR_RETURN(const Matrix node_vectors,
                        EmbedGraph(graph, config_, chosen,
                                   config_.embedding_dim, threads, &rng,
                                   &metrics_));
  {
    metrics::Span span(&metrics_.deploy_index);
    LEVA_ASSIGN_OR_RETURN(state->embedding,
                          Embedding::FromNodeVectors(graph, node_vectors));
  }
  state->Finish();
  serving_.store(std::move(state));
  return Status::OK();
}

Result<Matrix> LevaPipeline::EmbedGraph(const LevaGraph& graph,
                                        const LevaConfig& config,
                                        EmbeddingMethod method, size_t dim,
                                        size_t threads, Rng* rng,
                                        PipelineMetrics* metrics) {
  const auto stage = [metrics](metrics::Histogram PipelineMetrics::*h) {
    return metrics == nullptr ? nullptr : &(metrics->*h);
  };
  if (method == EmbeddingMethod::kMatrixFactorization) {
    metrics::Span span(stage(&PipelineMetrics::factorization));
    MfOptions mf = config.mf;
    mf.dim = dim;
    mf.threads = threads;
    return MatrixFactorizationEmbed(graph, mf, rng);
  }
  if (method == EmbeddingMethod::kLine) {
    metrics::Span span(stage(&PipelineMetrics::edge_sampling));
    LineOptions line = config.line;
    line.dim = dim;
    return LineEmbed(graph, line, rng);
  }
  const auto [walk_options, w2v] = RandomWalkOptions(config, dim, threads);
  FlatCorpus corpus;
  {
    metrics::Span span(stage(&PipelineMetrics::walk_generation));
    BatchedWalkGenerator generator(&graph, walk_options);
    LEVA_ASSIGN_OR_RETURN(corpus, generator.Generate(rng));
  }
  metrics::Span span(stage(&PipelineMetrics::embedding_training));
  Word2Vec model(w2v);
  LEVA_RETURN_IF_ERROR(model.Train(corpus, graph.NumNodes(), rng));
  return model.node_vectors();
}

std::pair<WalkOptions, Word2VecOptions> LevaPipeline::RandomWalkOptions(
    const LevaConfig& config, size_t dim, size_t threads) {
  WalkOptions walks = config.walks;
  walks.weighted = config.graph.weighted && walks.weighted;
  walks.threads = threads;
  Word2VecOptions w2v = config.word2vec;
  w2v.dim = dim;
  w2v.threads = threads;
  return {std::move(walks), std::move(w2v)};
}

void LevaPipeline::ServingState::Finish() {
  resolver = TokenResolver(&embedding, &graph, config.graph.weighted);
  const size_t dim = embedding.dim();
  for (size_t j = 0; j < dim; ++j) {
    feature_names.push_back("emb" + std::to_string(j));
  }
  if (config.featurization == Featurization::kRowPlusValue) {
    for (size_t j = 0; j < dim; ++j) {
      feature_names.push_back("val" + std::to_string(j));
    }
  }
}

Result<MLDataset> LevaPipeline::Featurize(const Table& table,
                                          const std::string& target_column,
                                          const TargetEncoder& encoder,
                                          bool rows_in_graph) const {
  // Pin the model this call runs against: a concurrent ReloadSnapshot swaps
  // the pipeline's pointer but cannot touch this state, so the whole call
  // sees one consistent model (and keeps its backing mapping alive).
  const std::shared_ptr<const ServingState> state =
      serving_.load();
  if (state == nullptr) {
    return Status::FailedPrecondition("pipeline is not fitted");
  }
  const ServingState& s = *state;
  metrics::Span call_span(&metrics_.featurize);
  LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                        TargetColumnIndex(table, target_column));

  const size_t dim = s.embedding.dim();
  const bool row_plus_value =
      s.config.featurization == Featurization::kRowPlusValue;
  const size_t width = row_plus_value ? 2 * dim : dim;
  const size_t num_rows = table.NumRows();
  const size_t threads =
      ResolveThreads(serving_threads_.load(std::memory_order_relaxed));
  const size_t batch_opt = serving_batch_.load(std::memory_order_relaxed);
  const size_t batch = batch_opt == 0 ? num_rows : batch_opt;

  MLDataset ds;
  ds.classification = encoder.classification();
  ds.num_classes = encoder.classification() ? encoder.num_classes() : 2;
  ds.x = Matrix(num_rows, width);
  ds.y.resize(num_rows);
  ds.feature_names = s.feature_names;

  // Hoisted row-node resolution: one table-name hash for the whole call.
  // Row node ids are contiguous, and the embedding built by Fit stores node
  // vectors in node-id order, so when that alignment holds (verified once on
  // the first row's label) row r's vector is store row `first + r` — no
  // per-row "<table>:<row>" string is ever built. The label-based fallback
  // looks each row node up by that label for any non-aligned store.
  const auto [first_row_node, row_node_count] = s.graph.TableRows(table.name());
  const bool aligned = rows_in_graph && first_row_node != kInvalidNode &&
                       row_node_count >= num_rows &&
                       s.embedding.size() >= s.graph.NumNodes() &&
                       num_rows > 0 &&
                       s.embedding.IdOf(s.graph.label(first_row_node)) ==
                           first_row_node;

  std::vector<size_t> row_ids(rows_in_graph ? num_rows : 0);
  for (size_t r = 0; r < num_rows; ++r) {
    if (rows_in_graph) {
      if (aligned) {
        row_ids[r] = first_row_node + r;
      } else {
        const std::string label = table.name() + ":" + std::to_string(r);
        row_ids[r] = s.embedding.IdOf(label);
        if (row_ids[r] == Embedding::kInvalidId) {
          return Status::NotFound("row node missing for '" + label + "'");
        }
      }
    }
    if (target_idx < table.NumColumns()) {
      LEVA_ASSIGN_OR_RETURN(ds.y[r], encoder.Encode(table.at(r, target_idx)));
    }
  }

  // Hoisted tier dispatch: the store's precision is fixed for the life of
  // this pinned state, so phase 1 resolves to tier-typed row pointers and
  // phase 2 picks the matching gather clone once per chunk.
  const StorageTier tier = s.embedding.tier();

  // Row-only featurization of in-graph rows never consults the tokens.
  const bool need_tokens = row_plus_value || !rows_in_graph;
  std::vector<const Column*> token_cols;
  if (need_tokens) {
    token_cols.reserve(table.NumColumns());
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c != target_idx) token_cols.push_back(&table.column(c));
    }
  }

  for (size_t b0 = 0; b0 < num_rows; b0 += batch) {
    const size_t b1 = std::min(num_rows, b0 + batch);

    // Phase 1 (serialized per model): column-wise textify + per-distinct-
    // token resolution straight down to (embedding row pointer, weight)
    // pairs. The resolver cache persists across calls — resolution is a pure
    // function of the fitted stores — so a warm cache turns repeat serving
    // over the same vocabulary into pure id arithmetic. Interning mutates
    // the cache, hence the model-level mutex; the heavy gather below runs
    // outside it.
    std::vector<ResolvedColumn> cols(token_cols.size());
    {
      std::lock_guard<std::mutex> lock(s.resolver_mu);
      TokenResolver& resolver = s.resolver;
      resolver.EvictIfAbove(kResolverCacheCap);
      const TokenResolver::Stats before = resolver.stats();
      uint64_t occurrences = 0;
      for (size_t i = 0; i < token_cols.size(); ++i) {
        LEVA_ASSIGN_OR_RETURN(
            TextifiedColumn tc,
            s.textifier.TransformColumn(table.name(), *token_cols[i], b0, b1));
        cols[i].offsets = std::move(tc.offsets);
        cols[i].occ.reserve(tc.tokens.size() + kPrefetchDist);
        occurrences += tc.tokens.size();
        const auto resolved = [&](uint32_t id) -> ResolvedColumn::Occ {
          const TokenResolver::Entry& e = resolver.entry(id);
          if (e.embedding_id == Embedding::kInvalidId) {
            return {nullptr, e.weight, 0.0};
          }
          switch (tier) {
            case StorageTier::kBf16:
              return {s.embedding.Bf16RowPtr(e.embedding_id), e.weight, 0.0};
            case StorageTier::kInt8:
              return {s.embedding.Int8RowPtr(e.embedding_id), e.weight,
                      static_cast<double>(s.embedding.RowScale(e.embedding_id))};
            case StorageTier::kFp64:
              break;
          }
          return {s.embedding.RowPtr(e.embedding_id), e.weight, 0.0};
        };
        if (!tc.dict_ids.empty()) {
          // Dictionary-encoded (binned) column: resolve each distinct dict
          // entry once, then map occurrences by array index — no hashing.
          std::vector<ResolvedColumn::Occ> dict_occ(tc.dict.size());
          for (size_t d = 0; d < tc.dict.size(); ++d) {
            dict_occ[d] = resolved(resolver.Intern(tc.dict[d]));
          }
          for (const uint32_t d : tc.dict_ids) {
            cols[i].occ.push_back(dict_occ[d]);
          }
        } else {
          for (const std::string_view token : tc.tokens) {
            cols[i].occ.push_back(resolved(resolver.Intern(token)));
          }
        }
        // Pad so the gather's look-ahead prefetch never needs a bounds check.
        cols[i].occ.resize(cols[i].occ.size() + kPrefetchDist,
                           ResolvedColumn::Occ{nullptr, 0.0, 0.0});
      }
      // Deltas of the cache's monotonic lifetime totals, taken under the
      // lock: they count this batch alone, even across evictions.
      const TokenResolver::Stats& after = resolver.stats();
      constexpr auto kRelaxed = std::memory_order_relaxed;
      metrics_.featurize_rows.fetch_add(b1 - b0, kRelaxed);
      metrics_.featurize_batches.fetch_add(1, kRelaxed);
      metrics_.token_occurrences.fetch_add(occurrences, kRelaxed);
      metrics_.distinct_tokens.fetch_add(after.distinct - before.distinct,
                                         kRelaxed);
    }

    // Phase 2 (parallel): blocked gather straight into the dataset matrix.
    // Each row writes only its own matrix row; the resolver and stores are
    // read-only here, so the result is bit-identical at any thread count.
    ParallelFor(threads, b0, b1, kFeaturizeGrain, [&](size_t begin,
                                                      size_t end) {
      if (need_tokens) {
        // The composed vector lands in the value slot; under kRowOnly for
        // held-out rows the row half *is* the value slot. Held-out rows
        // under Row+Value duplicate the composed vector into the row half.
        const size_t off = row_plus_value ? dim : 0;
        GatherChunk(tier, cols.data(), cols.size(), dim, ds.x.RowPtr(0), width,
                    off, b0, begin, end,
                    /*dup_to_row=*/!rows_in_graph && row_plus_value);
      }
      if (rows_in_graph) {
        if (tier == StorageTier::kFp64) {
          for (size_t r = begin; r < end; ++r) {
            const double* src = s.embedding.RowPtr(row_ids[r]);
            std::copy(src, src + dim, ds.x.RowPtr(r));
          }
        } else {
          // Quantized row halves: materialize each row once, with the same
          // per-element rounding Embedding::Get gives.
          for (size_t r = begin; r < end; ++r) {
            s.embedding.DequantizeRow(row_ids[r], ds.x.RowPtr(r));
          }
        }
      }
    });
  }
  return ds;
}

}  // namespace leva
