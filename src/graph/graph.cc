#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace leva {
namespace {

// Per-token accumulator used during the voting pass.
struct TokenAgg {
  // (row node, attr id) occurrences, deduplicated lazily.
  std::vector<std::pair<NodeId, uint32_t>> occurrences;
  // attr id -> votes
  std::unordered_map<uint32_t, size_t> votes;
};

}  // namespace

NodeId LevaGraph::RowNode(const std::string& table, size_t row) const {
  const auto it = row_index_.find(table);
  if (it != row_index_.end() && row < it->second.second) {
    return it->second.first + static_cast<NodeId>(row);
  }
  const auto ex = extra_rows_.find(table);
  if (ex != extra_rows_.end()) {
    for (const ExtraRowSegment& seg : ex->second) {
      if (row >= seg.first_row && row - seg.first_row < seg.count) {
        return seg.first_node + static_cast<NodeId>(row - seg.first_row);
      }
    }
  }
  return kInvalidNode;
}

std::pair<NodeId, size_t> LevaGraph::TableRows(const std::string& table) const {
  const auto it = row_index_.find(table);
  if (it == row_index_.end()) return {kInvalidNode, 0};
  return it->second;
}

size_t LevaGraph::TableRowCount(const std::string& table) const {
  size_t count = 0;
  const auto it = row_index_.find(table);
  if (it != row_index_.end()) count = it->second.second;
  const auto ex = extra_rows_.find(table);
  if (ex != extra_rows_.end()) {
    for (const ExtraRowSegment& seg : ex->second) count += seg.count;
  }
  return count;
}

NodeId LevaGraph::ValueNode(std::string_view token) const {
  const auto it = value_index_.find(token);
  return it == value_index_.end() ? kInvalidNode : it->second;
}

Status LevaGraph::ApplyDelta(const std::vector<NodeKind>& kinds,
                             const std::vector<std::string>& labels,
                             const std::vector<GraphDeltaEdge>& edges) {
  if (kinds.size() != labels.size()) {
    return Status::InvalidArgument("delta kinds/labels length mismatch");
  }
  const size_t old_n = NumNodes();
  const size_t n = old_n + kinds.size();
  if (n >= kInvalidNode) {
    return Status::InvalidArgument("delta node count overflows NodeId");
  }
  // Validate everything before mutating anything: a failed delta must leave
  // the graph exactly as it was.
  for (const GraphDeltaEdge& e : edges) {
    if (e.u >= n || e.v >= n) {
      return Status::OutOfRange("delta edge endpoint out of range");
    }
    if (!(e.weight > 0.0f) || !std::isfinite(e.weight)) {
      return Status::InvalidArgument("delta edge weight must be finite > 0");
    }
  }
  {
    std::unordered_set<std::string_view> batch_values;
    for (size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] != NodeKind::kValue) continue;
      if (value_index_.find(labels[i]) != value_index_.end() ||
          !batch_values.insert(labels[i]).second) {
        return Status::AlreadyExists("delta value node '" + labels[i] +
                                     "' already exists");
      }
    }
  }

  for (size_t i = 0; i < kinds.size(); ++i) {
    const NodeId id = static_cast<NodeId>(old_n + i);
    kinds_.push_back(kinds[i]);
    labels_.push_back(labels[i]);
    if (kinds[i] == NodeKind::kValue) {
      value_index_.emplace(labels_.back(), id);
      ++stats_.value_nodes;
    } else {
      ++stats_.row_nodes;
    }
  }

  // Per-node lists of newly arriving (target, weight) pairs, kept sorted so
  // merged delta adjacency stays binary-searchable.
  std::vector<std::vector<std::pair<NodeId, float>>> adds(n);
  for (const GraphDeltaEdge& e : edges) {
    adds[e.u].emplace_back(e.v, e.weight);
    adds[e.v].emplace_back(e.u, e.weight);
  }

  // The existing delta arrays cover only the pre-append node count; nodes at
  // or past that bound have no old delta adjacency by construction.
  const size_t old_delta_nodes =
      delta_offsets_.empty() ? 0 : delta_offsets_.size() - 1;
  const auto old_delta_span = [&](size_t i) -> std::pair<size_t, size_t> {
    if (i >= old_delta_nodes) return {0, 0};
    return {delta_offsets_[i], delta_offsets_[i + 1]};
  };

  std::vector<uint64_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] = old_delta_span(i);
    offsets[i + 1] = offsets[i] + (hi - lo) + adds[i].size();
  }
  std::vector<NodeId> targets(offsets[n]);
  std::vector<float> weights(offsets[n]);
  for (size_t i = 0; i < n; ++i) {
    std::sort(adds[i].begin(), adds[i].end());
    const auto [lo, hi] = old_delta_span(i);
    const std::span<const NodeId> old_nbrs{delta_targets_.data() + lo,
                                           hi - lo};
    const std::span<const float> old_w{delta_weights_.data() + lo, hi - lo};
    size_t a = 0, b = 0, out = offsets[i];
    while (a < old_nbrs.size() || b < adds[i].size()) {
      const bool take_old =
          b >= adds[i].size() ||
          (a < old_nbrs.size() && old_nbrs[a] <= adds[i][b].first);
      if (take_old) {
        targets[out] = old_nbrs[a];
        weights[out] = old_w[a];
        ++a;
      } else {
        targets[out] = adds[i][b].first;
        weights[out] = adds[i][b].second;
        ++b;
      }
      ++out;
    }
  }
  delta_offsets_ = std::move(offsets);
  delta_targets_ = std::move(targets);
  delta_weights_ = std::move(weights);
  stats_.edges += edges.size();
  return Status::OK();
}

void LevaGraph::RegisterExtraTableRows(const std::string& table,
                                       size_t first_row, NodeId first_node,
                                       size_t count) {
  extra_rows_[table].push_back(ExtraRowSegment{first_row, first_node, count});
}

Result<LevaGraph> LevaGraph::Compacted(bool reweight) const {
  const size_t n = NumNodes();
  LevaGraph g;
  g.kinds_ = kinds_;
  g.labels_ = labels_;
  g.value_index_ = value_index_;
  g.row_index_ = row_index_;
  g.extra_rows_ = extra_rows_;
  g.stats_ = stats_;

  g.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    g.offsets_[i + 1] = g.offsets_[i] + Degree(static_cast<NodeId>(i));
  }
  const uint64_t total = g.offsets_[n];
  g.targets_.assign(total, 0);
  g.weights_.assign(total, 0.f);
  for (size_t i = 0; i < n; ++i) {
    const NodeId node = static_cast<NodeId>(i);
    const auto bn = Neighbors(node);
    const auto bw = Weights(node);
    const auto dn = DeltaNeighbors(node);
    const auto dw = DeltaWeights(node);
    size_t a = 0, b = 0, out = g.offsets_[i];
    while (a < bn.size() || b < dn.size()) {
      const bool take_base =
          b >= dn.size() || (a < bn.size() && bn[a] <= dn[b]);
      if (take_base) {
        g.targets_[out] = bn[a];
        g.weights_[out] = bw[a];
        ++a;
      } else {
        g.targets_[out] = dn[b];
        g.weights_[out] = dw[b];
        ++b;
      }
      ++out;
    }
  }
  if (reweight) {
    // Repair weights staled by appended edges: every edge reverts to the
    // Section 3.2 weighting 1/deg(value endpoint), with degrees read off the
    // freshly merged offsets.
    const uint64_t* off = g.offsets_.data();
    for (size_t u = 0; u < n; ++u) {
      for (uint64_t k = off[u]; k < off[u + 1]; ++k) {
        const NodeId vn = kinds_[u] == NodeKind::kValue
                              ? static_cast<NodeId>(u)
                              : g.targets_[k];
        g.weights_[k] = 1.0f / static_cast<float>(off[vn + 1] - off[vn]);
      }
    }
  }
  g.stats_.edges = total / 2;
  return g;
}

void LevaGraph::Save(BufferWriter* out) const {
  const size_t n = kinds_.size();
  out->PutU64(n);
  for (const NodeKind k : kinds_) out->PutU8(static_cast<uint8_t>(k));
  for (const std::string& l : labels_) out->PutString(l);
  // The CSR arrays themselves ride in separate bulk sections; the metadata
  // records their expected lengths so a mismatched bulk payload is rejected.
  out->PutU64(targets_.size());

  std::vector<std::pair<std::string, std::pair<NodeId, size_t>>> rows(
      row_index_.begin(), row_index_.end());
  std::sort(rows.begin(), rows.end());
  out->PutU64(rows.size());
  for (const auto& [table, range] : rows) {
    out->PutString(table);
    out->PutU32(range.first);
    out->PutU64(range.second);
  }

  // Extra (appended) row segments, sorted by table for byte determinism.
  // Note Save covers the base CSR only — a graph with live delta segments is
  // compacted by the snapshot writer before it gets here.
  std::vector<std::pair<std::string, const std::vector<ExtraRowSegment>*>>
      extras;
  extras.reserve(extra_rows_.size());
  for (const auto& [table, segs] : extra_rows_) extras.emplace_back(table, &segs);
  std::sort(extras.begin(), extras.end());
  out->PutU64(extras.size());
  for (const auto& [table, segs] : extras) {
    out->PutString(table);
    out->PutU64(segs->size());
    for (const ExtraRowSegment& seg : *segs) {
      out->PutU64(seg.first_row);
      out->PutU32(seg.first_node);
      out->PutU64(seg.count);
    }
  }

  out->PutU64(stats_.row_nodes);
  out->PutU64(stats_.value_nodes);
  out->PutU64(stats_.edges);
  out->PutU64(stats_.tokens_seen);
  out->PutU64(stats_.tokens_removed_missing);
  out->PutU64(stats_.tokens_removed_unshared);
  out->PutU64(stats_.votes_dropped_lowevidence);
}

Status LevaGraph::Load(BufferReader* in, OwnedOrMapped<uint64_t> offsets,
                       OwnedOrMapped<NodeId> targets,
                       OwnedOrMapped<float> weights, bool validate_structure) {
  *this = LevaGraph();
  LevaGraph g;
  uint64_t n = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&n));
  if (n >= kInvalidNode) {
    return Status::InvalidArgument("corrupt graph: node count " +
                                   std::to_string(n) + " overflows NodeId");
  }
  {
    // One kind byte per node; grab the block in one call and validate over
    // the raw view instead of paying a bounds check per node.
    std::string_view raw;
    LEVA_RETURN_IF_ERROR(in->GetBytes(n, &raw));
    for (uint64_t i = 0; i < n; ++i) {
      if (static_cast<uint8_t>(raw[i]) >
          static_cast<uint8_t>(NodeKind::kValue)) {
        return Status::InvalidArgument(
            "corrupt graph: bad node kind " +
            std::to_string(static_cast<uint8_t>(raw[i])));
      }
    }
    g.kinds_.resize(n);
    std::memcpy(g.kinds_.data(), raw.data(), n);
  }
  g.labels_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string l;
    LEVA_RETURN_IF_ERROR(in->GetString(&l));
    g.labels_.push_back(std::move(l));
  }
  uint64_t num_targets = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&num_targets));
  if (offsets.size() != n + 1) {
    return Status::InvalidArgument(
        "corrupt graph: offsets array holds " + std::to_string(offsets.size()) +
        " entries, expected " + std::to_string(n + 1));
  }
  if (targets.size() != num_targets || weights.size() != num_targets ||
      num_targets % 2 != 0) {
    return Status::InvalidArgument(
        "corrupt graph: adjacency arrays hold " +
        std::to_string(targets.size()) + "/" + std::to_string(weights.size()) +
        " entries, expected " + std::to_string(num_targets));
  }
  if (validate_structure) {
    // O(edges) invariant walk: every page of the arrays is touched, which
    // the eager load paths want (they verify checksums anyway) and the lazy
    // mmap path skips — the per-page CRCs written at save time carry the
    // integrity guarantee there.
    // Read through const views: the non-const operator[] of OwnedOrMapped
    // detaches mapped storage into a heap copy, which would silently defeat
    // the zero-copy load.
    const uint64_t* off = offsets.data();
    const NodeId* tgt = targets.data();
    uint64_t prev = 0;
    for (uint64_t i = 0; i <= n; ++i) {
      const uint64_t o = off[i];
      if ((i == 0 && o != 0) || o < prev) {
        return Status::InvalidArgument(
            "corrupt graph: adjacency offsets not monotone at node " +
            std::to_string(i));
      }
      prev = o;
    }
    if (offsets.back() != num_targets) {
      return Status::InvalidArgument(
          "corrupt graph: " + std::to_string(num_targets) +
          " adjacency entries but offsets end at " +
          std::to_string(offsets.back()));
    }
    for (uint64_t i = 0; i < num_targets; ++i) {
      if (tgt[i] >= n) {
        return Status::InvalidArgument("corrupt graph: edge target " +
                                       std::to_string(tgt[i]) +
                                       " out of range " + std::to_string(n));
      }
    }
  } else if (offsets.back() != num_targets) {
    // Even the lazy path checks the one invariant Neighbors() depends on
    // globally — it costs a single page touch.
    return Status::InvalidArgument(
        "corrupt graph: " + std::to_string(num_targets) +
        " adjacency entries but offsets end at " +
        std::to_string(offsets.back()));
  }
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);

  uint64_t num_tables = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&num_tables));
  for (uint64_t i = 0; i < num_tables; ++i) {
    std::string table;
    NodeId first = 0;
    uint64_t count = 0;
    LEVA_RETURN_IF_ERROR(in->GetString(&table));
    LEVA_RETURN_IF_ERROR(in->GetU32(&first));
    LEVA_RETURN_IF_ERROR(in->GetU64(&count));
    if (count > n || first > n - count) {
      return Status::InvalidArgument("corrupt graph: row range for '" + table +
                                     "' out of bounds");
    }
    if (!g.row_index_.emplace(std::move(table), std::make_pair(first, count))
             .second) {
      return Status::InvalidArgument("corrupt graph: duplicate table range");
    }
  }

  uint64_t num_extra_tables = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&num_extra_tables));
  for (uint64_t i = 0; i < num_extra_tables; ++i) {
    std::string table;
    uint64_t num_segs = 0;
    LEVA_RETURN_IF_ERROR(in->GetString(&table));
    LEVA_RETURN_IF_ERROR(in->GetU64(&num_segs));
    std::vector<ExtraRowSegment> segs;
    segs.reserve(num_segs);
    for (uint64_t s = 0; s < num_segs; ++s) {
      uint64_t first_row = 0, count = 0;
      NodeId first_node = 0;
      LEVA_RETURN_IF_ERROR(in->GetU64(&first_row));
      LEVA_RETURN_IF_ERROR(in->GetU32(&first_node));
      LEVA_RETURN_IF_ERROR(in->GetU64(&count));
      if (count > n || first_node > n - count) {
        return Status::InvalidArgument(
            "corrupt graph: extra row segment for '" + table +
            "' out of bounds");
      }
      segs.push_back(ExtraRowSegment{static_cast<size_t>(first_row),
                                     first_node,
                                     static_cast<size_t>(count)});
    }
    if (!g.extra_rows_.emplace(std::move(table), std::move(segs)).second) {
      return Status::InvalidArgument(
          "corrupt graph: duplicate extra row segment table");
    }
  }

  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.row_nodes));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.value_nodes));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.edges));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.tokens_seen));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.tokens_removed_missing));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.tokens_removed_unshared));
  LEVA_RETURN_IF_ERROR(in->GetU64(&g.stats_.votes_dropped_lowevidence));

  // The value-node index is a pure function of kinds/labels: rebuild it.
  g.value_index_.reserve(g.stats_.value_nodes);
  for (NodeId i = 0; i < g.kinds_.size(); ++i) {
    if (g.kinds_[i] == NodeKind::kValue) g.value_index_.emplace(g.labels_[i], i);
  }
  *this = std::move(g);
  return Status::OK();
}

NodeId GraphBuilder::AddNode(NodeKind kind, std::string label) {
  const NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  labels_.push_back(std::move(label));
  return id;
}

Status GraphBuilder::AddEdge(NodeId a, NodeId b, float w) {
  if (a >= kinds_.size() || b >= kinds_.size()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  edges_.emplace_back(a, b);
  edge_weights_.push_back(w);
  return Status::OK();
}

void GraphBuilder::RegisterTableRows(const std::string& table, NodeId first,
                                     size_t count) {
  row_index_[table] = {first, count};
}

LevaGraph GraphBuilder::Build() && {
  LevaGraph g;
  const size_t n = kinds_.size();
  g.kinds_ = std::move(kinds_);
  g.labels_ = std::move(labels_);
  g.row_index_ = std::move(row_index_);
  for (NodeId i = 0; i < n; ++i) {
    if (g.kinds_[i] == NodeKind::kValue) g.value_index_.emplace(g.labels_[i], i);
  }

  // Sort edge endpoints so neighbor lists come out ascending (the node2vec
  // transition relies on binary-searchable adjacency).
  std::vector<size_t> degree(n, 0);
  for (const auto& [a, b] : edges_) {
    ++degree[a];
    ++degree[b];
  }
  g.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) g.offsets_[i + 1] = g.offsets_[i] + degree[i];
  g.targets_.assign(g.offsets_[n], 0);
  g.weights_.assign(g.offsets_[n], 0.f);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // Insert edges in endpoint-sorted order per node: gather then sort ranges.
  for (size_t e = 0; e < edges_.size(); ++e) {
    const auto [a, b] = edges_[e];
    g.targets_[cursor[a]] = b;
    g.weights_[cursor[a]] = edge_weights_[e];
    ++cursor[a];
    g.targets_[cursor[b]] = a;
    g.weights_[cursor[b]] = edge_weights_[e];
    ++cursor[b];
  }
  for (NodeId i = 0; i < n; ++i) {
    const size_t begin = g.offsets_[i];
    const size_t end = g.offsets_[i + 1];
    // Sort (target, weight) pairs by target.
    std::vector<std::pair<NodeId, float>> pairs;
    pairs.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      pairs.emplace_back(g.targets_[k], g.weights_[k]);
    }
    std::sort(pairs.begin(), pairs.end());
    for (size_t k = begin; k < end; ++k) {
      g.targets_[k] = pairs[k - begin].first;
      g.weights_[k] = pairs[k - begin].second;
    }
  }
  g.stats_.row_nodes = 0;
  g.stats_.value_nodes = 0;
  for (NodeKind k : g.kinds_) {
    if (k == NodeKind::kRow) ++g.stats_.row_nodes;
    else ++g.stats_.value_nodes;
  }
  g.stats_.edges = edges_.size();
  return g;
}

Result<LevaGraph> GraphFromCsr(std::vector<NodeKind> kinds,
                               std::vector<std::string> labels,
                               std::vector<uint64_t> offsets,
                               std::vector<NodeId> targets,
                               std::vector<float> weights) {
  const size_t n = kinds.size();
  if (offsets.size() != n + 1) {
    return Status::InvalidArgument("offsets must have one entry per node + 1");
  }
  if (offsets.front() != 0 || offsets.back() != targets.size()) {
    return Status::InvalidArgument("offsets must span exactly the targets");
  }
  for (size_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument("offsets must be non-decreasing");
    }
  }
  for (const NodeId t : targets) {
    if (t >= n) return Status::OutOfRange("target node id out of range");
  }
  if (!labels.empty() && labels.size() != n) {
    return Status::InvalidArgument("labels must be empty or one per node");
  }
  if (!weights.empty() && weights.size() != targets.size()) {
    return Status::InvalidArgument(
        "weights must be empty or one per directed edge slot");
  }
  LevaGraph g;
  g.kinds_ = std::move(kinds);
  if (labels.empty()) labels.resize(n);
  g.labels_ = std::move(labels);
  for (NodeId i = 0; i < n; ++i) {
    if (g.kinds_[i] == NodeKind::kValue && !g.labels_[i].empty()) {
      g.value_index_.emplace(g.labels_[i], i);
    }
  }
  if (weights.empty()) weights.assign(targets.size(), 1.0f);
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);
  for (NodeKind k : g.kinds_) {
    if (k == NodeKind::kRow) ++g.stats_.row_nodes;
    else ++g.stats_.value_nodes;
  }
  g.stats_.edges = g.targets_.size() / 2;
  return g;
}

Result<LevaGraph> BuildGraph(const std::vector<TextifiedTable>& tables,
                             size_t total_attributes,
                             const GraphOptions& options) {
  if (options.theta_range <= 0 || options.theta_range > 1) {
    return Status::InvalidArgument("theta_range must be in (0, 1]");
  }
  if (options.theta_min < 0 || options.theta_min >= 1) {
    return Status::InvalidArgument("theta_min must be in [0, 1)");
  }

  LevaGraph g;

  // --- Row nodes (one per row of every table). ---
  for (const TextifiedTable& t : tables) {
    const NodeId first = static_cast<NodeId>(g.kinds_.size());
    if (g.row_index_.count(t.table_name) > 0) {
      return Status::InvalidArgument("duplicate table '" + t.table_name + "'");
    }
    g.row_index_.emplace(t.table_name, std::make_pair(first, t.rows.size()));
    for (size_t r = 0; r < t.rows.size(); ++r) {
      g.kinds_.push_back(NodeKind::kRow);
      g.labels_.push_back(t.table_name + ":" + std::to_string(r));
    }
  }

  // --- Token pass: collect occurrences and attribute votes (Alg. 1, l.4-10).
  std::unordered_map<std::string, TokenAgg> aggs;
  for (const TextifiedTable& t : tables) {
    const NodeId first = g.row_index_.at(t.table_name).first;
    for (size_t r = 0; r < t.rows.size(); ++r) {
      const NodeId row_node = first + static_cast<NodeId>(r);
      for (const TextToken& tok : t.rows[r]) {
        TokenAgg& agg = aggs[tok.token];
        agg.occurrences.emplace_back(row_node, tok.attr_id);
        ++agg.votes[tok.attr_id];
      }
    }
  }
  g.stats_.tokens_seen = aggs.size();

  // --- Refinement (Alg. 1, l.11-12) and value-node creation. ---
  // Edge lists per row node; value nodes appended after row nodes.
  struct PendingValue {
    const std::string* token;
    std::vector<NodeId> rows;  // deduplicated row endpoints
  };
  std::vector<PendingValue> pending;
  // A token seen under a single attribute can never be "missing data", so
  // the removal threshold is at least one attribute regardless of theta_range
  // (matters for tiny schemas).
  const double max_attrs = std::max(
      1.0, options.theta_range * static_cast<double>(total_attributes));

  for (auto& [token, agg] : aggs) {
    // Missing-data detection: token voted under too many distinct attributes.
    if (static_cast<double>(agg.votes.size()) > max_attrs) {
      ++g.stats_.tokens_removed_missing;
      continue;
    }
    // Low-evidence attribute removal.
    size_t total_votes = 0;
    for (const auto& [attr, n] : agg.votes) total_votes += n;
    const double min_votes =
        options.theta_min * static_cast<double>(total_votes);
    std::vector<NodeId> rows;
    rows.reserve(agg.occurrences.size());
    for (const auto& [row_node, attr] : agg.occurrences) {
      if (static_cast<double>(agg.votes.at(attr)) < min_votes) {
        ++g.stats_.votes_dropped_lowevidence;
        continue;
      }
      rows.push_back(row_node);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    // Value nodes only for values shared between multiple rows (Section 3.1).
    if (rows.size() < 2) {
      ++g.stats_.tokens_removed_unshared;
      continue;
    }
    pending.push_back(PendingValue{&token, std::move(rows)});
  }

  // Deterministic node ordering regardless of hash-map iteration order.
  std::sort(pending.begin(), pending.end(),
            [](const PendingValue& a, const PendingValue& b) {
              return *a.token < *b.token;
            });

  const size_t num_rows = g.kinds_.size();
  size_t num_edges = 0;
  for (const PendingValue& pv : pending) num_edges += pv.rows.size();

  for (const PendingValue& pv : pending) {
    const NodeId vn = static_cast<NodeId>(g.kinds_.size());
    g.kinds_.push_back(NodeKind::kValue);
    g.labels_.push_back(*pv.token);
    g.value_index_.emplace(*pv.token, vn);
  }

  g.stats_.row_nodes = num_rows;
  g.stats_.value_nodes = pending.size();
  g.stats_.edges = num_edges;

  // --- CSR assembly with weighting (Alg. 1, l.13). ---
  const size_t n = g.kinds_.size();
  std::vector<size_t> degree(n, 0);
  for (size_t i = 0; i < pending.size(); ++i) {
    const NodeId vn = static_cast<NodeId>(num_rows + i);
    degree[vn] = pending[i].rows.size();
    for (const NodeId r : pending[i].rows) ++degree[r];
  }
  g.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) g.offsets_[i + 1] = g.offsets_[i] + degree[i];
  g.targets_.assign(g.offsets_[n], 0);
  g.weights_.assign(g.offsets_[n], 0.f);

  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (size_t i = 0; i < pending.size(); ++i) {
    const NodeId vn = static_cast<NodeId>(num_rows + i);
    // Edge weight inversely proportional to the value node's degree: value
    // nodes shared by many rows carry less inclusion-dependency signal.
    const float w = options.weighted
                        ? 1.0f / static_cast<float>(pending[i].rows.size())
                        : 1.0f;
    for (const NodeId r : pending[i].rows) {
      g.targets_[cursor[vn]] = r;
      g.weights_[cursor[vn]] = w;
      ++cursor[vn];
      g.targets_[cursor[r]] = vn;
      g.weights_[cursor[r]] = w;
      ++cursor[r];
    }
  }
  return g;
}

}  // namespace leva
