#ifndef LEVA_GRAPH_ALIAS_H_
#define LEVA_GRAPH_ALIAS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace leva {

/// Reusable scratch buffers for BuildAliasSlots, so bulk builders (one table
/// per graph node) pay zero allocations per node after warmup.
struct AliasBuildScratch {
  std::vector<double> scaled;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
};

/// Builds Walker alias-method slots for `weights` into caller-owned storage:
/// prob[i] / alias[i] for i < weights.size(). Returns false — writing
/// nothing — when the distribution is empty or all-zero (the "empty table"
/// case; sampling from it is invalid). This is the single construction
/// routine behind both AliasTable and the batched walk engine's flat
/// CSR-indexed layout, so the two produce bit-identical slot values and
/// therefore bit-identical sample streams for the same Rng state.
bool BuildAliasSlots(std::span<const double> weights, double* prob,
                     uint32_t* alias, AliasBuildScratch* scratch);

/// Walker's alias method: O(n) preprocessing, O(1) draws from an arbitrary
/// discrete distribution. Used for weighted random-walk transitions
/// (Section 4.3 discusses the memory cost of keeping one table per node).
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative `weights` (need not be normalized).
  /// An all-zero/ empty input yields an empty table (Sample must not be
  /// called on it).
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight: one
  /// UniformInt for the slot, one Uniform for the coin. Inline, so hot
  /// samplers (SGNS negatives, LINE edges) pay no call per draw.
  uint32_t Sample(Rng* rng) const {
    const uint32_t i = static_cast<uint32_t>(rng->UniformInt(prob_.size()));
    // Both outcomes are read before the coin, so the choice is a select,
    // not a branch the coin would mispredict half the time.
    const uint32_t alias = alias_[i];
    return rng->Uniform() < prob_[i] ? i : alias;
  }

  bool empty() const { return prob_.empty(); }
  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace leva

#endif  // LEVA_GRAPH_ALIAS_H_
