#ifndef LEVA_EMBED_WALKS_BATCHED_H_
#define LEVA_EMBED_WALKS_BATCHED_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "embed/corpus.h"
#include "embed/walks.h"
#include "graph/graph.h"

namespace leva {

/// Bytes the walk sampling hot loop touches per step: CSR offsets + targets,
/// plus the flat alias slots (12 B per directed edge) and per-node empty
/// flags when `weighted`. Sizes the engine's vertex blocks.
size_t WalkWorkingSetBytes(const LevaGraph& graph, bool weighted);

/// The random-walk engine: uniform, weighted (alias tables),
/// balanced-restart, visit-limited and node2vec-biased second-order walks,
/// generated epoch-synchronously and cache-efficiently (the FlashMob idea,
/// SOSP'21). Instead of one walker pointer-chasing the CSR graph to
/// completion — a dependent random access per step, catastrophic once the
/// graph outgrows the last-level cache — ALL of an epoch's walkers advance
/// in lockstep. Before every step the frontier (a flat array of
/// (walker id, current vertex, RNG state) records) is counting-sorted by
/// vertex *block*, a contiguous id range whose CSR adjacency plus alias
/// slots fit a fixed cache budget. Walkers in the same block then sample
/// their transitions back to back, so the adjacency reads that were random
/// across a multi-hundred-MiB graph become near-sequential scans of one
/// cache-resident block. The sort itself is a streaming two-pass counting
/// sort — sequential reads, bucket-sequential writes — so the engine trades
/// latency-bound pointer chasing for bandwidth-bound passes.
///
/// Epoch schedule: normal epochs start one walk per walker in a shuffled
/// order, balanced-restart epochs re-target the worst-represented quartile,
/// and the visit-limit filter runs as a sequential pass at each epoch
/// barrier (trajectories never read the visit counters, so stepping stays
/// embarrassingly parallel while the global cap stays exact).
///
/// Node2vec (p or q != 1): a second-order step needs the previous vertex,
/// which is already in the epoch's trajectory slab one step back, so the
/// frontier record does not grow. The step is an O(deg) inverse-CDF draw
/// over bias * weight.
///
/// Determinism: every walker draws from its own counter-based RNG stream
/// (StreamRng(base_seed, kWalk, epoch * walkers + walker)), so the corpus
/// is a pure function of the caller's rng state and bit-identical at every
/// thread count — pinned against the slow per-walker oracle in
/// tests/reference/ by tests/walks_batched_test.cc.
class BatchedWalkGenerator {
 public:
  BatchedWalkGenerator(const LevaGraph* graph, WalkOptions options);

  /// Generates the full corpus. Deterministic given `rng`'s state — the base
  /// seed for all per-walk streams is drawn from it — and independent of
  /// `options.threads`.
  Result<FlatCorpus> Generate(Rng* rng);

  /// Visit counts from the last Generate call (per node).
  const std::vector<size_t>& visit_counts() const { return visits_; }

  /// Bytes of the flat alias layout (zero for unweighted walks); the
  /// weighted/unweighted memory tradeoff of Section 4.3.
  size_t AliasMemoryBytes() const;

  /// Vertex-block geometry chosen for this graph (for tests and benches):
  /// ids are bucketed as `vertex >> block_shift()` into `num_blocks()`
  /// buckets. Pure function of the graph and options.
  size_t block_shift() const { return block_shift_; }
  size_t num_blocks() const { return num_blocks_; }

 private:
  /// One frontier record. 40 bytes, moved wholesale by the counting sort so
  /// a walker's RNG state travels with it and every field access during
  /// sampling is a sequential read of the record just placed.
  struct Walker {
    NodeId id;   // index into the epoch's walk slots
    NodeId cur;  // current vertex, kInvalidNode once the walk ended
    Rng rng;
  };
  static_assert(sizeof(Walker) == 40, "frontier records should stay packed");

  /// Flat slot of `node`'s first combined (base + delta) adjacency entry in
  /// alias_prob_/alias_idx_; equals offsets()[node] on a delta-free graph.
  uint64_t SlotBase(NodeId node) const;
  void BuildFlatAlias();
  void ChooseBlockGeometry();
  /// First-order transition out of `cur`: an alias draw when weighted, a
  /// uniform neighbor otherwise.
  NodeId SampleNext(NodeId cur, Rng* rng) const;
  /// Node2vec second-order transition out of `cur`, having arrived from
  /// `prev`.
  NodeId SampleBiased(NodeId cur, NodeId prev, Rng* rng) const;
  /// Steps one epoch's walks: walker i writes its raw trajectory into
  /// traj[i * walk_length ...] and its length into traj_len[i]. `epoch` is
  /// the global epoch index (normal epochs first, then restart epochs) —
  /// per-walk RNG streams are keyed on it.
  void StepEpoch(uint64_t base_seed, size_t epoch,
                 const std::vector<NodeId>& starts, NodeId* traj,
                 uint32_t* traj_len);
  /// Stable counting sort of the first `m` frontier records by vertex
  /// block, dropping finished records; returns the surviving count.
  /// Deterministic: bucket layout depends on fixed chunk grain and the
  /// block map, never on the thread count.
  size_t BucketFrontier(size_t m);

  const LevaGraph* graph_;
  WalkOptions options_;
  size_t threads_ = 1;
  bool biased_ = false;  // node2vec: p or q != 1

  // Flat alias layout, indexed by CSR slot (weighted only): the same values
  // AliasTable would hold, laid out adjacent to the adjacency they sample.
  std::vector<double> alias_prob_;
  std::vector<uint32_t> alias_idx_;
  // Per node: degree > 0 but zero total weight — an "empty alias table",
  // which ends a first-order walk.
  std::vector<uint8_t> alias_empty_;

  size_t block_shift_ = 0;
  size_t num_blocks_ = 1;

  // Frontier double buffer (grow-only) and sort scratch.
  std::vector<Walker> front_;
  std::vector<Walker> back_;
  std::vector<uint64_t> bucket_offsets_;  // (block, chunk)-major cursors

  std::vector<size_t> visits_;
};

}  // namespace leva

#endif  // LEVA_EMBED_WALKS_BATCHED_H_
