#ifndef LEVA_CORE_TOKEN_RESOLVER_H_
#define LEVA_CORE_TOKEN_RESOLVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "embed/embedding.h"
#include "graph/graph.h"

namespace leva {

/// Token interner for the batched featurization fast path. Each *distinct*
/// token pays the embedding-index hash lookup and (when weighted) the graph
/// value-node lookup plus degree read exactly once; every further occurrence
/// resolves through the interner's own open-addressing index to a dense id.
/// The resolved entry carries the contiguous-store row id and the
/// precomputed 1/deg(value node) aggregation weight, so the row-gather loop
/// is pure arithmetic over ids — no strings, no store hashes, no allocation.
///
/// Resolution is a pure function of the fitted embedding/graph, so entries
/// stay valid for the lifetime of those stores and the interner doubles as a
/// cross-call serving cache (see EvictIfAbove for the memory bound).
class TokenResolver {
 public:
  struct Entry {
    /// Row into the embedding store, or Embedding::kInvalidId when the token
    /// is unseen (it then contributes nothing to the composed vector).
    size_t embedding_id = Embedding::kInvalidId;
    /// Inverse-degree composition weight (1.0 when unweighted or the token
    /// has no value node), the edge weighting of Section 3.2.
    double weight = 1.0;
  };

  /// Hit counters proving the per-distinct-token (not per-occurrence) cost
  /// model: the stores are probed once per `distinct` token, never once per
  /// occurrence.
  struct Stats {
    size_t occurrences = 0;  // Intern() calls
    size_t distinct = 0;     // unique tokens resolved
  };

  /// `graph` may be null when `weighted` is false. Neither is owned; both
  /// must outlive any Intern call.
  TokenResolver(const Embedding* embedding, const LevaGraph* graph,
                bool weighted)
      : embedding_(embedding), graph_(graph), weighted_(weighted) {}

  /// Dense id of `token`, resolving against the stores on first sight. Takes
  /// a view so repeat occurrences (the common case) are hashed without ever
  /// materializing a string; the token is copied only on first sight.
  uint32_t Intern(std::string_view token);

  const Entry& entry(uint32_t id) const { return entries_[id]; }
  size_t NumDistinct() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

  /// The stores this resolver was built against (used by callers to detect a
  /// stale cache after a re-Fit, copy, or move).
  const Embedding* embedding() const { return embedding_; }
  const LevaGraph* graph() const { return graph_; }
  bool weighted() const { return weighted_; }

  /// Serializes the interned keys in id order. Entries are NOT stored: they
  /// are a pure function of the fitted stores, so Load re-resolves them —
  /// the snapshot stays valid even across store-layout changes and carries
  /// no redundant (hence corruptible) derived state.
  void Save(BufferWriter* out) const;

  /// Clears this resolver and re-interns the keys written by Save against
  /// the current stores, reproducing identical ids. Counts as interning in
  /// stats() (it resolves every key).
  Status Load(BufferReader* in);

  /// Rebinds the cache to successor stores after a streaming update,
  /// re-resolving only the `touched` tokens — the value labels the update
  /// embedded for the first time or whose node degree (hence 1/deg weight)
  /// it changed. Every other entry is carried over verbatim: resolution is a
  /// pure function of the stores, the update appends to them without
  /// renumbering, so untouched entries stay correct by construction. Tokens
  /// in `touched` that were never interned cost nothing (they resolve on
  /// first sight as usual).
  void Rebind(const Embedding* embedding, const LevaGraph* graph,
              const std::vector<std::string>& touched);

  /// Forgets every interned token. Stats persist so call totals survive.
  void Clear();

  /// Clear(), but only once more than `max_entries` tokens are cached —
  /// bounds a long-lived serving cache fed by a stream of fresh keys.
  void EvictIfAbove(size_t max_entries);

 private:
  // Open-addressing slot: `id_plus_1` == 0 marks an empty slot, so a stored
  // hash of 0 needs no special casing. Short keys — cell values are almost
  // always a handful of bytes — live inline so a warm probe compares within
  // the slot's own cache line instead of chasing the backing store; longer
  // keys (len == kOverflowLen) compare against `keys_[id]`.
  struct Slot {
    static constexpr size_t kInlineKey = 19;
    static constexpr uint8_t kOverflowLen = 0xFF;

    uint64_t hash = 0;
    uint32_t id_plus_1 = 0;
    uint8_t len = 0;
    char key[kInlineKey] = {};
  };
  static_assert(sizeof(Slot) == 32, "two slots per cache line");

  // Probes the embedding store (and, when weighted, the graph) for `token`.
  Entry Resolve(std::string_view token) const;

  // Id of an already-interned token, or UINT32_MAX when never seen. Pure
  // lookup: no id is assigned, no stats move.
  uint32_t FindId(std::string_view token) const;

  // Doubles the slot table, reinserting from the stored hashes (token
  // strings are never re-hashed).
  void Grow();

  const Embedding* embedding_;
  const LevaGraph* graph_;
  bool weighted_;
  std::vector<Slot> slots_;       // power-of-two size, linear probing
  std::deque<std::string> keys_;  // aligned with entries_
  std::vector<Entry> entries_;
  Stats stats_;
};

}  // namespace leva

#endif  // LEVA_CORE_TOKEN_RESOLVER_H_
