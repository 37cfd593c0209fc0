#ifndef LEVA_GRAPH_GRAPH_H_
#define LEVA_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "common/storage.h"
#include "common/string_util.h"
#include "text/textifier.h"

namespace leva {

/// Node identifier inside a LevaGraph.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class NodeKind : uint8_t {
  kRow,    ///< one node per input row ("<table>:<row>")
  kValue,  ///< one node per surviving shared token
};

/// Parameters of graph construction and refinement (Sections 3.1-3.2,
/// defaults from Table 2).
struct GraphOptions {
  /// Tokens voted under more than this fraction of all attributes are treated
  /// as missing-data representatives and removed.
  double theta_range = 0.5;
  /// For each value node, attributes receiving less than this fraction of the
  /// node's votes are dropped (accidental syntactic collisions).
  double theta_min = 0.05;
  /// Assign edge weights 1/deg(value node); otherwise all edges weigh 1.
  bool weighted = true;
};

/// Construction statistics, reported by the scalability benchmark and
/// inspected by tests.
struct GraphStats {
  size_t row_nodes = 0;
  size_t value_nodes = 0;
  size_t edges = 0;  // undirected edges
  size_t tokens_seen = 0;
  size_t tokens_removed_missing = 0;   // theta_range removals
  size_t tokens_removed_unshared = 0;  // appeared in a single row only
  size_t votes_dropped_lowevidence = 0;  // theta_min removals
};

/// An undirected edge staged into a graph's delta segment (ApplyDelta).
/// Endpoints may be base or freshly appended nodes.
struct GraphDeltaEdge {
  NodeId u;
  NodeId v;
  float weight = 1.0f;
};

/// The refined bipartite row/value-node graph of Section 3. Row nodes connect
/// only to value nodes and vice versa. Adjacency is CSR with per-edge weights.
///
/// Streaming updates append into *delta segments* — a second, owned CSR laid
/// over all nodes — instead of rebuilding the base arrays (which may be
/// borrowed mmap views of a snapshot). Base accessors (Neighbors/Weights)
/// stay base-only; Degree and the walk engines consult both segments.
/// Compacted() merges the segments back into a single base CSR without
/// renumbering any node.
class LevaGraph {
 public:
  size_t NumNodes() const { return kinds_.size(); }
  size_t NumEdges() const {
    return (targets_.size() + delta_targets_.size()) / 2;
  }

  /// Nodes covered by the base CSR. Ids at or past this count were appended
  /// by ApplyDelta and have only delta adjacency.
  size_t BaseNodes() const {
    return offsets_.size() == 0 ? 0 : offsets_.size() - 1;
  }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  /// "<table>:<row>" for row nodes; the token text for value nodes.
  const std::string& label(NodeId n) const { return labels_[n]; }

  /// Base-segment neighbors of `n` and matching edge weights (empty for
  /// nodes appended after the base CSR was built). Callers that must see
  /// appended edges combine these with DeltaNeighbors/DeltaWeights or demand
  /// a compacted graph.
  std::span<const NodeId> Neighbors(NodeId n) const {
    if (static_cast<size_t>(n) >= BaseNodes()) return {};
    return {targets_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }
  std::span<const float> Weights(NodeId n) const {
    if (static_cast<size_t>(n) >= BaseNodes()) return {};
    return {weights_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }
  /// Delta-segment adjacency of `n` (empty when no update touched it).
  /// Sorted by target, like the base lists.
  std::span<const NodeId> DeltaNeighbors(NodeId n) const {
    if (delta_offsets_.empty()) return {};
    return {delta_targets_.data() + delta_offsets_[n],
            delta_offsets_[n + 1] - delta_offsets_[n]};
  }
  std::span<const float> DeltaWeights(NodeId n) const {
    if (delta_offsets_.empty()) return {};
    return {delta_weights_.data() + delta_offsets_[n],
            delta_offsets_[n + 1] - delta_offsets_[n]};
  }

  size_t BaseDegree(NodeId n) const {
    if (static_cast<size_t>(n) >= BaseNodes()) return 0;
    return offsets_[n + 1] - offsets_[n];
  }
  size_t DeltaDegree(NodeId n) const {
    if (delta_offsets_.empty()) return 0;
    return delta_offsets_[n + 1] - delta_offsets_[n];
  }
  /// Combined (base + delta) degree — what every weighting/normalization
  /// consumer means by "degree".
  size_t Degree(NodeId n) const { return BaseDegree(n) + DeltaDegree(n); }

  /// Row node for row `row` of the table named `table`, or kInvalidNode.
  /// Covers appended rows: past the contiguous base block, the extra row
  /// segments registered by RegisterExtraTableRows are searched.
  NodeId RowNode(const std::string& table, size_t row) const;
  /// (first row node id, row count) registered for the *base block* of
  /// `table`, or {kInvalidNode, 0}. Row node ids in the block are contiguous
  /// — node for row r is first + r — so batch callers can resolve the table
  /// name hash once and address every row arithmetically instead of via
  /// per-row label strings. Rows appended by updates live in separate
  /// segments (TableRowCount > second here is the tell).
  std::pair<NodeId, size_t> TableRows(const std::string& table) const;
  /// Total rows of `table` across the base block and every appended segment.
  size_t TableRowCount(const std::string& table) const;
  /// Value node for `token`, or kInvalidNode.
  NodeId ValueNode(std::string_view token) const;

  // --- Streaming-update surface -------------------------------------------

  /// Appends `kinds`/`labels` as new nodes (ids continue from NumNodes())
  /// and lays `edges` into the delta segment. Fails without mutating on an
  /// out-of-range endpoint, a duplicate value-node label, or a weight that
  /// is not finite and positive. Value-node labels join the lookup index
  /// immediately. Delta adjacency is kept sorted by target so node2vec's
  /// binary-searched transitions stay valid.
  Status ApplyDelta(const std::vector<NodeKind>& kinds,
                    const std::vector<std::string>& labels,
                    const std::vector<GraphDeltaEdge>& edges);

  /// Registers `count` appended row nodes `first_node..` as logical rows
  /// `first_row..` of `table` (an extra, non-contiguous row segment).
  void RegisterExtraTableRows(const std::string& table, size_t first_row,
                              NodeId first_node, size_t count);

  /// True when any node or edge lives outside the base CSR — i.e. the graph
  /// must be compacted before Save (Save serializes the base arrays only).
  bool HasDelta() const {
    return NumNodes() > BaseNodes() || !delta_targets_.empty();
  }
  /// Directed delta adjacency slots (2x undirected delta edges).
  size_t DeltaSlots() const { return delta_targets_.size(); }
  /// Starting slot of `n`'s delta adjacency within the flat delta arrays (0
  /// when no delta exists) — the delta analogue of offsets()[n], used by the
  /// batched engine's combined flat alias layout.
  uint64_t DeltaSlotOffset(NodeId n) const {
    return delta_offsets_.empty() ? 0 : delta_offsets_[n];
  }

  /// A copy of this graph with the delta segments merged into one base CSR.
  /// Node ids are preserved exactly; per-node adjacency stays sorted. When
  /// `reweight` is set, every edge weight is recomputed as 1/deg(value
  /// endpoint) — the Section 3.2 weighting — so weights staled by appended
  /// edges are repaired in the same pass (pass the GraphOptions::weighted
  /// flag the graph was built with).
  Result<LevaGraph> Compacted(bool reweight) const;

  const GraphStats& stats() const { return stats_; }

  /// Serializes the graph *metadata* (nodes, labels, table row ranges,
  /// stats, CSR array lengths). Maps are written in sorted order so the
  /// bytes are a pure function of the graph. The three CSR arrays —
  /// offsets/targets/weights, see the accessors below — are framed
  /// separately by the snapshot layer as page-aligned bulk sections so a
  /// loader can map them instead of copying. The value-node index is
  /// derivable from kinds/labels and is rebuilt on Load rather than stored.
  void Save(BufferWriter* out) const;

  /// Restores state written by Save, adopting the three CSR arrays (owned
  /// heap bytes or borrowed mmap views). When `validate_structure` is true,
  /// every structural invariant (offset monotonicity, edge symmetry counts,
  /// id ranges) is checked so a corrupt buffer is rejected instead of
  /// producing out-of-bounds adjacency — an O(edges) walk that touches every
  /// page, so the lazy mmap load path may defer it to the per-page
  /// checksums. On error the graph is left empty, never partially loaded.
  Status Load(BufferReader* in, OwnedOrMapped<uint64_t> offsets,
              OwnedOrMapped<NodeId> targets, OwnedOrMapped<float> weights,
              bool validate_structure = true);

  /// Raw CSR arrays (views over owned or mapped storage), for the snapshot
  /// writer and the bulk-section framing.
  ArrayView<uint64_t> offsets() const { return offsets_.span(); }
  ArrayView<NodeId> targets() const { return targets_.span(); }
  ArrayView<float> edge_weights() const { return weights_.span(); }
  /// True when the CSR arrays are served straight from an mmap'ed snapshot.
  bool mapped() const { return targets_.mapped(); }

 private:
  friend class GraphBuilder;
  friend Result<LevaGraph> BuildGraph(const std::vector<TextifiedTable>&,
                                      size_t, const GraphOptions&);
  friend Result<LevaGraph> GraphFromCsr(std::vector<NodeKind>,
                                        std::vector<std::string>,
                                        std::vector<uint64_t>,
                                        std::vector<NodeId>,
                                        std::vector<float>);

  std::vector<NodeKind> kinds_;
  std::vector<std::string> labels_;
  // The big CSR arrays are views: owned heap vectors when built by Fit,
  // borrowed spans into an mmap'ed snapshot after a zero-copy load. The
  // on-disk layout is exactly the in-memory layout (little-endian,
  // fixed-width), so mapping is a pointer cast, not a parse.
  OwnedOrMapped<uint64_t> offsets_;  // size NumNodes()+1
  OwnedOrMapped<NodeId> targets_;
  OwnedOrMapped<float> weights_;
  // Delta segments: a second CSR over all nodes holding edges appended by
  // ApplyDelta. Owned heap vectors always (updates never mutate a mapped
  // base). Empty offsets_ vector <=> no delta applied yet.
  std::vector<uint64_t> delta_offsets_;  // size NumNodes()+1 when non-empty
  std::vector<NodeId> delta_targets_;
  std::vector<float> delta_weights_;
  std::unordered_map<std::string, NodeId, TransparentStringHash,
                     std::equal_to<>>
      value_index_;
  // table name -> (first row node id, row count)
  std::unordered_map<std::string, std::pair<NodeId, size_t>> row_index_;
  // Row nodes appended by updates are not contiguous with the base block:
  // each batch contributes one (first logical row, first node id, count)
  // segment per table, in logical-row order.
  struct ExtraRowSegment {
    size_t first_row;
    NodeId first_node;
    size_t count;
  };
  std::unordered_map<std::string, std::vector<ExtraRowSegment>> extra_rows_;
  GraphStats stats_;
};

/// Constructs arbitrary LevaGraphs edge by edge. BuildGraph (Algorithm 1) is
/// the production path; this builder backs baselines that use different graph
/// shapes (e.g. EmbDI's tripartite cell-row-column graph) and tests.
class GraphBuilder {
 public:
  /// Adds a node and returns its id. Labels must be unique per kind usage
  /// contract of the caller; value-node labels are indexed for lookup.
  NodeId AddNode(NodeKind kind, std::string label);

  /// Adds an undirected edge (both directions) with weight `w`.
  Status AddEdge(NodeId a, NodeId b, float w = 1.0f);

  /// Registers `first..first+count` as the row nodes of `table`.
  void RegisterTableRows(const std::string& table, NodeId first, size_t count);

  /// Finalizes into a CSR graph (neighbor lists sorted ascending).
  LevaGraph Build() &&;

 private:
  std::vector<NodeKind> kinds_;
  std::vector<std::string> labels_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<float> edge_weights_;
  std::unordered_map<std::string, std::pair<NodeId, size_t>> row_index_;
};

/// Bulk constructor adopting prebuilt CSR arrays without the edge-list
/// detour GraphBuilder takes (which materializes every edge twice before
/// sorting). This is the path for synthetic benchmark graphs in the 10M+
/// edge range, where the builder's per-node gather/sort would dominate.
///
/// `offsets` must have kinds.size() + 1 entries, start at 0, be
/// non-decreasing, and end at targets.size(); every target must be a valid
/// node id. `labels` may be empty (benchmark graphs have no textual
/// identity) — it is sized to the node count and the value-node index stays
/// empty. `weights` may be empty, meaning uniform 1.0 per directed slot.
/// Adjacency is adopted as given: neighbor lists are NOT re-sorted, which
/// uniform and weighted first-order walks never require (node2vec's
/// binary-searched adjacency does — build those graphs via GraphBuilder).
Result<LevaGraph> GraphFromCsr(std::vector<NodeKind> kinds,
                               std::vector<std::string> labels,
                               std::vector<uint64_t> offsets,
                               std::vector<NodeId> targets,
                               std::vector<float> weights);

/// Runs Algorithm 1: node/edge construction from textified tables, the
/// attribute-voting refinement, and edge weighting.
///
/// `total_attributes` is the number of attributes in the whole database
/// (Textifier::NumAttributes()), the denominator of theta_range.
Result<LevaGraph> BuildGraph(const std::vector<TextifiedTable>& tables,
                             size_t total_attributes,
                             const GraphOptions& options = {});

}  // namespace leva

#endif  // LEVA_GRAPH_GRAPH_H_
