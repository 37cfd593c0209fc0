// Crash-safe streaming updates: LevaPipeline::Update / RecoverFromLog.
//
// The durability contract is write-ahead: a batch is appended to the
// UpdateLog (fsync'ed, the acknowledgment point) BEFORE any in-memory state
// moves, and the successor model is assembled entirely off to the side and
// published with the same atomic swap ReloadSnapshot uses. A crash therefore
// leaves one of exactly two observable worlds — the batch durable-but-
// unapplied (recovery replays it) or durable-and-applied (the next snapshot
// records the advanced WAL offset, so recovery skips it). Concurrent
// Featurize calls pin whichever complete model is current; there is no
// intermediate state to expose.
//
// Incrementality: the graph grows through its delta segments (the base CSR —
// possibly an mmap view of a snapshot — is never touched), and under the
// random-walk method the embedding refresh is warm: walks seeded only at the
// new/touched nodes continue SGNS training from the served vectors, and only
// those nodes' rows are rewritten. MF/LINE have no incremental form, so they
// compact and re-embed (UpdateResult::full_refit).
//
// Approximations, by design (repaired at compaction / full refit):
//   - Edge weights of a value node that gains edges are recomputed for the
//     *new* edges (1/deg over the post-batch degree); the node's pre-existing
//     edges keep their stored weight until Compacted(reweight) runs. Only
//     weighted walk transition probabilities see the stale values — the
//     resolver's 1/deg composition weights read Degree() live.
//   - New tokens become value nodes only when shared by >= 2 rows of the
//     batch or already present in the graph (the Algorithm 1 "unshared"
//     refinement applied batch-locally; the theta votes are not re-run).
#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/update_log.h"
#include "embed/walks_batched.h"

namespace leva {
namespace {

// Delta slots may grow to this fraction of the base CSR's directed slots
// before Update folds them in (Compacted). Keeps the two-segment walk/degree
// overhead bounded without compacting — an O(edges) copy — on every batch.
constexpr double kCompactDeltaRatio = 0.25;

// Decorrelates per-record refresh seeds from the fitting seed. The seed is a
// pure function of (config seed, record index), never of wall clock or
// address space, so replaying a log reproduces the exact published model.
uint64_t UpdateSeed(uint64_t config_seed, uint64_t record_index) {
  return config_seed ^ (0x9E3779B97F4A7C15ull * (record_index + 1));
}

// True when embedding row id n holds the vector of graph node n — the layout
// Fit and every snapshot load produce. The warm-start path depends on it (it
// hands Word2Vec the store as a node-indexed matrix); a store that ever
// diverged falls back to the full-refit path below.
bool NodeAligned(const Embedding& emb, const LevaGraph& graph) {
  const size_t n = graph.NumNodes();
  if (n == 0 || emb.size() != n) return false;
  return emb.IdOf(graph.label(0)) == 0 &&
         emb.IdOf(graph.label(static_cast<NodeId>(n - 1))) == n - 1;
}

}  // namespace

Result<std::shared_ptr<const LevaPipeline::ServingState>>
LevaPipeline::ApplyUpdateBatch(const ServingState& s, const Table& new_rows,
                               uint64_t wal_offset, uint64_t wal_records,
                               UpdateResult* result) const {
  const std::string& table = new_rows.name();
  const auto [base_first, base_count] = s.graph.TableRows(table);
  if (base_first == kInvalidNode) {
    return Status::InvalidArgument("cannot update table '" + table +
                                   "': the fitted model has no row nodes for "
                                   "it");
  }
  const size_t num_rows = new_rows.NumRows();
  const size_t dim = s.embedding.dim();

  // The successor starts as a full (cheap) copy: the big arrays are
  // OwnedOrMapped views whose copies share any backing snapshot region, so
  // this never duplicates a mapped model's bulk bytes.
  auto next = std::make_shared<ServingState>();
  next->config = s.config;
  next->textifier = s.textifier;
  next->graph = s.graph;
  next->embedding = s.embedding;
  next->chosen = s.chosen;
  next->region = s.region;
  next->bulk_pages = s.bulk_pages;
  next->wal_offset = wal_offset;
  next->wal_records = wal_records;

  result->rows_applied = num_rows;
  result->wal_offset = wal_offset;

  // 1. Textify the batch with the FROZEN textifier: bins, types, and
  // attribute ids are exactly the fitted ones, so tokens land in the same
  // vocabulary space the graph was built from (the paper's unseen-data
  // handling, Section 2.4).
  LEVA_ASSIGN_OR_RETURN(TextifiedTable textified,
                        s.textifier.Transform(new_rows));

  // 2. Stage the graph delta. Per row: one row node plus edges to the value
  // node of every distinct token. A token without a value node earns one
  // only when >= 2 rows of this batch share it.
  const size_t global_first_row = s.graph.TableRowCount(table);
  const NodeId first_new_node = static_cast<NodeId>(s.graph.NumNodes());

  std::vector<std::vector<std::string>> row_tokens(num_rows);
  std::unordered_map<std::string, size_t> rows_with_token;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<std::string>& toks = row_tokens[r];
    toks.reserve(textified.rows[r].size());
    for (const TextToken& t : textified.rows[r]) toks.push_back(t.token);
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    for (const std::string& t : toks) ++rows_with_token[t];
  }

  std::vector<NodeKind> kinds(num_rows, NodeKind::kRow);
  std::vector<std::string> labels;
  labels.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    labels.push_back(table + ":" + std::to_string(global_first_row + r));
  }

  // New value nodes in sorted token order: node ids (hence the published
  // model) become a pure function of the batch, independent of hash-map
  // iteration order.
  std::vector<std::string> fresh_tokens;
  std::unordered_map<std::string, NodeId> token_node;
  for (const auto& [tok, cnt] : rows_with_token) {
    const NodeId vn = s.graph.ValueNode(tok);
    if (vn != kInvalidNode) {
      token_node.emplace(tok, vn);
    } else if (cnt >= 2) {
      fresh_tokens.push_back(tok);
    }
  }
  std::sort(fresh_tokens.begin(), fresh_tokens.end());
  for (const std::string& tok : fresh_tokens) {
    token_node.emplace(
        tok, static_cast<NodeId>(first_new_node + kinds.size()));
    kinds.push_back(NodeKind::kValue);
    labels.push_back(tok);
  }

  std::vector<GraphDeltaEdge> edges;
  std::vector<std::string> touched_tokens = fresh_tokens;
  std::vector<NodeId> touched_values;  // existing value nodes gaining edges
  for (size_t r = 0; r < num_rows; ++r) {
    const NodeId row_node = static_cast<NodeId>(first_new_node + r);
    for (const std::string& tok : row_tokens[r]) {
      const auto it = token_node.find(tok);
      if (it == token_node.end()) continue;  // unshared fresh token: dropped
      const NodeId vn = it->second;
      float w = 1.0f;
      if (s.config.graph.weighted) {
        // Post-batch degree of the value endpoint: existing degree plus the
        // one edge per batch row sharing the token.
        const size_t deg =
            (vn < first_new_node ? s.graph.Degree(vn) : 0) +
            rows_with_token.at(tok);
        w = 1.0f / static_cast<float>(deg);
      }
      edges.push_back({row_node, vn, w});
      if (vn < first_new_node) touched_values.push_back(vn);
    }
  }
  std::sort(touched_values.begin(), touched_values.end());
  touched_values.erase(
      std::unique(touched_values.begin(), touched_values.end()),
      touched_values.end());
  for (const NodeId vn : touched_values) {
    touched_tokens.push_back(s.graph.label(vn));
  }

  LEVA_RETURN_IF_ERROR(next->graph.ApplyDelta(kinds, labels, edges));
  next->graph.RegisterExtraTableRows(table, global_first_row, first_new_node,
                                     num_rows);
  result->new_row_nodes = num_rows;
  result->new_value_nodes = fresh_tokens.size();
  result->new_edges = edges.size();

  // 3. Embedding refresh.
  const size_t threads = ResolveThreads(s.config.threads);
  Rng rng(UpdateSeed(s.config.seed, wal_records));
  const bool warm_capable =
      s.chosen == EmbeddingMethod::kRandomWalk &&
      NodeAligned(s.embedding, s.graph);
  if (warm_capable) {
    // Seed walks at every new node and every existing value node whose
    // neighborhood changed; walks roam the whole graph from there, so the
    // SGNS continuation sees fresh context without re-walking every node.
    std::vector<NodeId> starts;
    starts.reserve(kinds.size() + touched_values.size());
    for (size_t i = 0; i < kinds.size(); ++i) {
      starts.push_back(static_cast<NodeId>(first_new_node + i));
    }
    starts.insert(starts.end(), touched_values.begin(), touched_values.end());

    auto [walk_options, w2v] = RandomWalkOptions(s.config, dim, threads);
    walk_options.start_nodes = starts;

    BatchedWalkGenerator generator(&next->graph, walk_options);
    LEVA_ASSIGN_OR_RETURN(const FlatCorpus corpus, generator.Generate(&rng));

    Word2Vec model(w2v);
    // Continue from the served vectors: row id == node id (checked above),
    // quantized tiers dequantize to exactly the values they serve.
    Matrix warm(s.embedding.size(), dim);
    for (size_t id = 0; id < s.embedding.size(); ++id) {
      s.embedding.DequantizeRow(id, warm.RowPtr(id));
    }
    model.WarmStart(std::move(warm));
    LEVA_RETURN_IF_ERROR(model.Train(corpus, next->graph.NumNodes(), &rng));

    // Write back only the refreshed rows: new nodes plus touched existing
    // ones. Untouched vectors keep their served bits, bounding the
    // perturbation a single batch can cause. Put encodes each row at the
    // served tier (a mapped store detaches to an owned copy at that tier),
    // so an update never changes the tier a model serves.
    for (const NodeId n : starts) {
      LEVA_RETURN_IF_ERROR(next->embedding.Put(
          next->graph.label(n), {model.node_vectors().RowPtr(n), dim}));
    }
    result->refreshed_vectors = starts.size();

    if (next->graph.DeltaSlots() >
        kCompactDeltaRatio *
            static_cast<double>(next->graph.targets().size())) {
      LEVA_ASSIGN_OR_RETURN(LevaGraph compacted,
                            next->graph.Compacted(s.config.graph.weighted));
      next->graph = std::move(compacted);
      result->compacted = true;
    }
  } else {
    // MF/LINE (or a store whose row ids diverged from node ids): no
    // incremental form. Compact the delta into a base CSR — the spectral
    // paths consume base adjacency only — and re-embed everything through
    // Fit's own embedding stage.
    LEVA_ASSIGN_OR_RETURN(LevaGraph compacted,
                          next->graph.Compacted(s.config.graph.weighted));
    next->graph = std::move(compacted);
    result->compacted = true;
    result->full_refit = true;

    // The served dim, not the config's: MF may have fitted fewer columns.
    // The refit store is re-encoded at the served tier.
    LEVA_ASSIGN_OR_RETURN(Matrix node_vectors,
                          EmbedGraph(next->graph, s.config, s.chosen, dim,
                                     threads, &rng, /*metrics=*/nullptr));
    LEVA_ASSIGN_OR_RETURN(
        next->embedding,
        Embedding::FromNodeVectors(next->graph, std::move(node_vectors)));
    if (s.embedding.tier() != StorageTier::kFp64) {
      next->embedding = next->embedding.WithTier(s.embedding.tier());
    }
    result->refreshed_vectors = next->graph.NumNodes();
  }

  // 4. Serving cache: carry the warm entries over, re-resolving only the
  // tokens this batch embedded for the first time or whose degree changed.
  // After a full refit every id was reassigned, so re-intern the keys into
  // the fresh cache instead (Load re-resolves each one against the new
  // stores).
  next->Finish();
  {
    std::lock_guard<std::mutex> lock(s.resolver_mu);
    if (result->full_refit) {
      BufferWriter keys;
      s.resolver.Save(&keys);
      BufferReader in(keys.data());
      LEVA_RETURN_IF_ERROR(next->resolver.Load(&in));
    } else {
      next->resolver = s.resolver;
    }
  }
  if (!result->full_refit) {
    next->resolver.Rebind(&next->embedding, &next->graph, touched_tokens);
  }
  return std::shared_ptr<const ServingState>(std::move(next));
}

Result<UpdateResult> LevaPipeline::Update(const Table& new_rows,
                                          UpdateLog* log) {
  const std::shared_ptr<const ServingState> cur = serving_.load();
  if (cur == nullptr) {
    return Status::FailedPrecondition("pipeline is not fitted");
  }
  UpdateResult result;
  result.wal_offset = cur->wal_offset;
  if (new_rows.NumRows() == 0) return result;  // nothing to log or apply

  // Durability first: once Append returns, the batch survives any crash —
  // recovery replays it through this same apply path. Only then does any
  // in-memory state move.
  uint64_t ack_offset = cur->wal_offset;
  uint64_t ack_records = cur->wal_records;
  if (log != nullptr) {
    UpdateRecord record;
    record.table = new_rows.name();
    record.columns.reserve(new_rows.NumColumns());
    for (const Column& col : new_rows.columns()) {
      record.columns.push_back(col.name);
    }
    record.rows.reserve(new_rows.NumRows());
    for (size_t r = 0; r < new_rows.NumRows(); ++r) {
      record.rows.push_back(new_rows.Row(r));
    }
    LEVA_RETURN_IF_ERROR(log->Append(record));
    ack_offset = log->end_offset();
    ack_records = log->record_count();
  } else {
    // Logless updates still advance the record index so successive batches
    // draw distinct refresh seeds.
    ++ack_records;
  }

  LEVA_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingState> next,
      ApplyUpdateBatch(*cur, new_rows, ack_offset, ack_records, &result));
  serving_.store(std::move(next));
  return result;
}

Result<size_t> LevaPipeline::RecoverFromLog(const std::string& wal_path,
                                            Env* env) {
  if (env == nullptr) env = Env::Default();
  const std::shared_ptr<const ServingState> cur = serving_.load();
  if (cur == nullptr) {
    return Status::FailedPrecondition(
        "pipeline is not fitted — load the snapshot before replaying its "
        "log");
  }
  const uint64_t from =
      std::max<uint64_t>(cur->wal_offset, UpdateLog::kHeaderSize);
  LEVA_ASSIGN_OR_RETURN(UpdateLog::ReplayResult replay,
                        UpdateLog::Read(wal_path, from, env));
  if (replay.records.empty()) return size_t{0};

  // Apply the whole tail off to the side and publish once: a crash during
  // replay leaves the pre-recovery model serving and the log intact, so
  // recovery simply reruns (idempotent — it reads from the same offset).
  std::shared_ptr<const ServingState> state = cur;
  uint64_t records_applied = cur->wal_records;
  size_t applied = 0;
  for (const UpdateRecord& rec : replay.records) {
    Table batch(rec.table);
    for (const std::string& name : rec.columns) {
      Column col;
      col.name = name;
      LEVA_RETURN_IF_ERROR(batch.AddColumn(std::move(col)));
    }
    for (const std::vector<Value>& row : rec.rows) {
      LEVA_RETURN_IF_ERROR(batch.AddRow(row));
    }
    ++records_applied;
    UpdateResult result;
    LEVA_ASSIGN_OR_RETURN(
        state, ApplyUpdateBatch(*state, batch, replay.end_offset,
                                records_applied, &result));
    ++applied;
  }
  serving_.store(std::move(state));
  return applied;
}

}  // namespace leva
