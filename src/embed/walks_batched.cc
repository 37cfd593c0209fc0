#include "embed/walks_batched.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "graph/alias.h"

namespace leva {
namespace {

// Frontier records per counting-sort chunk. Chunk boundaries are part of the
// deterministic bucket layout (each chunk owns one cursor per block), so the
// value is fixed — never derived from the thread count.
constexpr size_t kSortChunk = 16384;

// Frontier records per sampling chunk. Records are independent (each owns
// its RNG and its walk slot), so this grain only balances dispatch overhead
// against load skew.
constexpr size_t kProcessGrain = 2048;

// Walkers per frontier-initialization chunk.
constexpr size_t kInitGrain = 4096;

// Nodes per chunk of the flat alias build. Each node is O(degree) work, so
// a larger grain than the walk sharding keeps dispatch overhead negligible.
constexpr size_t kAliasGrain = 256;

// Target bytes of CSR adjacency + alias slots per vertex block: the slice of
// the graph a bucket's walkers re-reference while they sample. Half the L2
// on typical parts, leaving the other half for the frontier and trajectory
// streams flowing through it.
constexpr size_t kBlockBudgetBytes = size_t{1} << 20;

}  // namespace

size_t WalkWorkingSetBytes(const LevaGraph& graph, bool weighted) {
  const size_t n = graph.NumNodes();
  // Directed edge entries, base CSR plus any streaming-update delta segment.
  const size_t slots = graph.targets().size() + graph.DeltaSlots();
  size_t bytes = (n + 1) * sizeof(uint64_t)     // CSR offsets
                 + slots * sizeof(NodeId);      // CSR targets
  if (weighted) {
    // Flat alias layout: prob (double) + alias (uint32) per slot, plus the
    // per-node empty flag.
    bytes += slots * (sizeof(double) + sizeof(uint32_t)) + n;
  }
  return bytes;
}

BatchedWalkGenerator::BatchedWalkGenerator(const LevaGraph* graph,
                                           WalkOptions options)
    : graph_(graph),
      options_(options),
      threads_(ResolveThreads(options.threads)),
      biased_(options.p != 1.0 || options.q != 1.0) {
  // Weighted node2vec still takes its first step (no previous vertex yet)
  // through the alias slots.
  if (options_.weighted) BuildFlatAlias();
  ChooseBlockGeometry();
}

size_t BatchedWalkGenerator::AliasMemoryBytes() const {
  return alias_prob_.capacity() * sizeof(double) +
         alias_idx_.capacity() * sizeof(uint32_t) + alias_empty_.capacity();
}

uint64_t BatchedWalkGenerator::SlotBase(NodeId node) const {
  // Flat slot of `node`'s first combined (base + delta) adjacency entry:
  // base slots first (nodes appended past the base CSR start at its end),
  // shifted up by every preceding node's delta slots. Collapses to
  // offsets()[node] on a delta-free graph.
  const uint64_t base = static_cast<size_t>(node) < graph_->BaseNodes()
                            ? graph_->offsets()[node]
                            : graph_->targets().size();
  return base + graph_->DeltaSlotOffset(node);
}

void BatchedWalkGenerator::BuildFlatAlias() {
  const size_t n = graph_->NumNodes();
  const size_t slots = graph_->targets().size() + graph_->DeltaSlots();
  alias_prob_.resize(slots);
  alias_idx_.resize(slots);
  alias_empty_.assign(n, 0);
  // The same BuildAliasSlots numerics as AliasTable, written into one
  // CSR-indexed layout so a vertex block's slots are contiguous with the
  // adjacency they sample. Weights are the base span followed by the delta
  // span, so the index a draw yields maps back through the same
  // concatenation. No RNG is involved: the result is trivially thread-count
  // invariant.
  ParallelFor(threads_, 0, n, kAliasGrain, [&](size_t b, size_t e) {
    AliasBuildScratch scratch;
    std::vector<double> w;
    for (NodeId node = static_cast<NodeId>(b); node < e; ++node) {
      const auto weights = graph_->Weights(node);
      const auto delta = graph_->DeltaWeights(node);
      w.assign(weights.begin(), weights.end());
      w.insert(w.end(), delta.begin(), delta.end());
      const uint64_t off = SlotBase(node);
      if (!BuildAliasSlots({w.data(), w.size()}, alias_prob_.data() + off,
                           alias_idx_.data() + off, &scratch)) {
        alias_empty_[node] = 1;
      }
    }
  });
}

void BatchedWalkGenerator::ChooseBlockGeometry() {
  const size_t n = graph_->NumNodes();
  if (n == 0) {
    block_shift_ = 0;
    num_blocks_ = 1;
    return;
  }
  const size_t total = WalkWorkingSetBytes(*graph_, options_.weighted);
  const size_t per_vertex = std::max<size_t>(1, total / n);
  // Power-of-two vertices per block so the bucket of a vertex is one shift.
  size_t block = std::max<size_t>(1, kBlockBudgetBytes / per_vertex);
  block_shift_ = 0;
  while ((size_t{2} << block_shift_) <= block) ++block_shift_;
  num_blocks_ = ((n - 1) >> block_shift_) + 1;
}

NodeId BatchedWalkGenerator::SampleNext(NodeId cur, Rng* rng) const {
  // Combined adjacency: the base span followed by the delta span (edges
  // appended by streaming updates). On a compacted graph the delta span is
  // empty and this is the base-only walk bit for bit.
  const auto nbrs = graph_->Neighbors(cur);
  const auto dnbrs = graph_->DeltaNeighbors(cur);
  const size_t deg = nbrs.size() + dnbrs.size();
  if (deg == 0) return kInvalidNode;
  const auto nbr_at = [&](size_t k) {
    return k < nbrs.size() ? nbrs[k] : dnbrs[k - nbrs.size()];
  };
  if (options_.weighted) {
    if (alias_empty_[cur]) return kInvalidNode;
    // Draw-for-draw the same stream consumption as AliasTable::Sample.
    const uint64_t off = SlotBase(cur);
    const uint32_t i = static_cast<uint32_t>(rng->UniformInt(deg));
    const uint32_t pick =
        rng->Uniform() < alias_prob_[off + i] ? i : alias_idx_[off + i];
    return nbr_at(pick);
  }
  return nbr_at(rng->UniformInt(deg));
}

NodeId BatchedWalkGenerator::SampleBiased(NodeId cur, NodeId prev,
                                          Rng* rng) const {
  const auto nbrs = graph_->Neighbors(cur);
  const auto dnbrs = graph_->DeltaNeighbors(cur);
  const size_t deg = nbrs.size() + dnbrs.size();
  if (deg == 0) return kInvalidNode;
  const auto nbr_at = [&](size_t k) {
    return k < nbrs.size() ? nbrs[k] : dnbrs[k - nbrs.size()];
  };
  // O(deg) per step: the graphs Leva builds are sparse, so no per-edge
  // alias tables are kept. Both neighbor spans of `prev` are sorted (delta
  // adjacency too), so "is a neighbor of prev" is a binary search. A
  // zero-weight row has total 0 and picks its first neighbor.
  const auto prev_nbrs = graph_->Neighbors(prev);
  const auto prev_dnbrs = graph_->DeltaNeighbors(prev);
  const auto weights = graph_->Weights(cur);
  const auto dweights = graph_->DeltaWeights(cur);
  thread_local std::vector<double> probs;
  probs.resize(deg);
  double total = 0;
  for (size_t i = 0; i < deg; ++i) {
    const NodeId nb = nbr_at(i);
    double bias;
    if (nb == prev) {
      bias = 1.0 / options_.p;
    } else if (std::binary_search(prev_nbrs.begin(), prev_nbrs.end(), nb) ||
               std::binary_search(prev_dnbrs.begin(), prev_dnbrs.end(), nb)) {
      bias = 1.0;
    } else {
      bias = 1.0 / options_.q;
    }
    const double w = options_.weighted
                         ? (i < weights.size() ? weights[i]
                                               : dweights[i - weights.size()])
                         : 1.0;
    probs[i] = bias * w;
    total += probs[i];
  }
  double r = rng->Uniform() * total;
  for (size_t i = 0; i < deg; ++i) {
    r -= probs[i];
    if (r <= 0) return nbr_at(i);
  }
  return nbr_at(deg - 1);
}

size_t BatchedWalkGenerator::BucketFrontier(size_t m) {
  const size_t chunks = (m + kSortChunk - 1) / kSortChunk;
  const size_t cells = num_blocks_ * chunks;
  bucket_offsets_.assign(cells, 0);
  Walker* fr = front_.data();
  Walker* bk = back_.data();
  const size_t shift = block_shift_;

  // Pass 1: per-chunk bucket histograms. Cell (block, chunk) is owned by
  // exactly one chunk, so the counting pass is race-free and the resulting
  // layout — block-major, then chunk, then record order — is a pure
  // function of (m, kSortChunk, block map): stable, and identical at every
  // thread count.
  ParallelFor(threads_, 0, chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t lo = c * kSortChunk;
      const size_t hi = std::min(m, lo + kSortChunk);
      for (size_t i = lo; i < hi; ++i) {
        if (fr[i].cur == kInvalidNode) continue;  // finished walker: drop
        ++bucket_offsets_[(static_cast<size_t>(fr[i].cur) >> shift) * chunks +
                          c];
      }
    }
  });

  uint64_t total = 0;
  for (size_t cell = 0; cell < cells; ++cell) {
    const uint64_t count = bucket_offsets_[cell];
    bucket_offsets_[cell] = total;
    total += count;
  }

  // Pass 2: placement. Sequential reads of the old frontier; writes advance
  // one cursor per destination block — a handful of forward streams, not
  // random scatter.
  ParallelFor(threads_, 0, chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t lo = c * kSortChunk;
      const size_t hi = std::min(m, lo + kSortChunk);
      for (size_t i = lo; i < hi; ++i) {
        const Walker& w = fr[i];
        if (w.cur == kInvalidNode) continue;
        bk[bucket_offsets_[(static_cast<size_t>(w.cur) >> shift) * chunks +
                           c]++] = w;
      }
    }
  });

  std::swap(front_, back_);
  return static_cast<size_t>(total);
}

void BatchedWalkGenerator::StepEpoch(uint64_t base_seed, size_t epoch,
                                     const std::vector<NodeId>& starts,
                                     NodeId* traj, uint32_t* traj_len) {
  const size_t walkers = starts.size();  // == NumNodes unless start_nodes set
  const size_t walk_length = options_.walk_length;
  // Walkers that survive every step emit walk_length tokens; early deaths
  // overwrite their slot below.
  std::fill(traj_len, traj_len + walkers,
            static_cast<uint32_t>(walk_length));
  if (walk_length == 0) return;

  if (front_.size() < walkers) {
    front_.resize(walkers);
    back_.resize(walkers);
  }
  Walker* fr = front_.data();
  ParallelFor(threads_, 0, walkers, kInitGrain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      fr[i].id = static_cast<NodeId>(i);
      fr[i].cur = starts[i];
      fr[i].rng = StreamRng(base_seed, rngdomain::kWalk,
                            static_cast<uint64_t>(epoch) * walkers + i);
    }
  });

  size_t m = walkers;
  for (size_t step = 0; step < walk_length; ++step) {
    // (a) Bucket/shuffle the frontier by vertex block — also compacts away
    // walkers that ended last step.
    m = BucketFrontier(m);
    if (m == 0) break;
    const bool last = step + 1 == walk_length;
    Walker* frontier = front_.data();
    // (b) Sample transitions block by block. Records are processed in
    // bucket order, so consecutive walkers hit the same cache-resident
    // slice of offsets/targets/alias slots; each record is independent
    // (own RNG, own walk slot), so the chunk grain is free to cut across
    // block boundaries. Node2vec's previous vertex is the walker's slab
    // entry one step back, written by the previous step's pass.
    const bool second_order = biased_ && step > 0;
    ParallelFor(threads_, 0, m, kProcessGrain, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        Walker& w = frontier[i];
        NodeId* slot = traj + static_cast<size_t>(w.id) * walk_length + step;
        *slot = w.cur;
        if (last) continue;  // final emission: no further draw is needed
        const NodeId next = second_order
                                ? SampleBiased(w.cur, slot[-1], &w.rng)
                                : SampleNext(w.cur, &w.rng);
        if (next == kInvalidNode) {
          // The token was emitted; the walk ends here.
          traj_len[w.id] = static_cast<uint32_t>(step + 1);
          w.cur = kInvalidNode;
        } else {
          w.cur = next;
        }
      }
    });
  }
}

Result<FlatCorpus> BatchedWalkGenerator::Generate(Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");
  const size_t n = graph_->NumNodes();
  visits_.assign(n, 0);
  if (n == 0 || options_.epochs == 0) return FlatCorpus();
  // All per-walk and per-epoch streams derive from this one draw, so the
  // corpus is a pure function of the caller's rng state and never of the
  // thread count.
  const uint64_t base_seed = rng->Next();

  // A non-empty start_nodes list narrows each epoch to one walk per entry
  // (the streaming-update refresh path); empty keeps the historical
  // one-walk-per-node schedule bit for bit.
  const bool subset = !options_.start_nodes.empty();
  const size_t walkers = subset ? options_.start_nodes.size() : n;
  for (const NodeId s : options_.start_nodes) {
    if (static_cast<size_t>(s) >= n) {
      return Status::InvalidArgument("walk start node " + std::to_string(s) +
                                     " out of range " + std::to_string(n));
    }
  }

  size_t normal_epochs = options_.epochs;
  size_t restart_epochs = 0;
  if (options_.balanced_restarts) {
    restart_epochs = std::min(options_.restart_epochs, options_.epochs);
    normal_epochs = options_.epochs - restart_epochs;
  }
  // Every epoch (normal and restart) emits up to one walk per walker; with
  // no visit limit every stepped token survives, so reserve the exact worst
  // case up front and the token buffer never reallocates.
  const size_t tokens_per_epoch = walkers * options_.walk_length;
  FlatCorpus corpus;
  corpus.Reserve(options_.epochs * walkers,
                 options_.visit_limit == 0 ? options_.epochs * tokens_per_epoch
                                           : tokens_per_epoch);

  // Per-epoch trajectory slab: walk i steps into slot [i * walk_length, ...).
  // Allocated once and reused by every epoch — no per-walk heap churn.
  std::vector<NodeId> traj(tokens_per_epoch);
  std::vector<uint32_t> traj_len(walkers);
  const auto run_epoch = [&](size_t epoch, const std::vector<NodeId>& starts) {
    StepEpoch(base_seed, epoch, starts, traj.data(), traj_len.data());
    // Epoch barrier: apply the visit-limit filter sequentially in walk order,
    // merging per-walk counts into the visit counters, so no node is emitted
    // more than `visit_limit` times. Surviving tokens are appended straight
    // into the corpus; empty walks are dropped.
    for (size_t i = 0; i < walkers; ++i) {
      const NodeId* walk = traj.data() + i * options_.walk_length;
      const size_t len = traj_len[i];
      if (options_.visit_limit == 0) {
        // No filter: bulk-append the whole trajectory (one memcpy into the
        // token buffer) instead of pushing token by token.
        corpus.AppendSentence({walk, len});
        for (size_t j = 0; j < len; ++j) ++visits_[walk[j]];
        continue;
      }
      for (size_t j = 0; j < len; ++j) {
        const NodeId cur = walk[j];
        if (visits_[cur] >= options_.visit_limit) continue;
        corpus.PushToken(cur);
        ++visits_[cur];
      }
      corpus.EndSentence();
    }
  };

  std::vector<NodeId> order;
  if (subset) {
    order = options_.start_nodes;
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }
  for (size_t e = 0; e < normal_epochs; ++e) {
    Rng shuffle_rng = StreamRng(base_seed, rngdomain::kWalkShuffle, e);
    shuffle_rng.Shuffle(&order);
    run_epoch(e, order);
  }

  // Balanced restarts: start from the worst-represented quartile by merged
  // visit count (Section 4.2.2), recomputed at every restart-epoch barrier
  // so each epoch re-targets the nodes that are worst *now*. Ties break by
  // node id so the start list is a pure function of the merged counts. With
  // a start subset, the candidates are the subset pool — balancing never
  // drags starts onto nodes the caller did not ask to seed.
  if (restart_epochs > 0) {
    std::vector<NodeId> by_visits(subset ? 0 : n);
    std::vector<NodeId> starts(walkers);
    const size_t worst = std::max<size_t>(1, walkers / 4);
    for (size_t e = 0; e < restart_epochs; ++e) {
      if (subset) {
        by_visits = options_.start_nodes;
      } else {
        std::iota(by_visits.begin(), by_visits.end(), 0);
      }
      std::sort(by_visits.begin(), by_visits.end(), [&](NodeId a, NodeId b) {
        return visits_[a] != visits_[b] ? visits_[a] < visits_[b] : a < b;
      });
      for (size_t i = 0; i < walkers; ++i) starts[i] = by_visits[i % worst];
      run_epoch(normal_epochs + e, starts);
    }
  }
  return corpus;
}

}  // namespace leva
