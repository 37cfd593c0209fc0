#include "graph/alias.h"

namespace leva {

bool BuildAliasSlots(std::span<const double> weights, double* prob,
                     uint32_t* alias, AliasBuildScratch* scratch) {
  const size_t n = weights.size();
  if (n == 0) return false;
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return false;

  for (size_t i = 0; i < n; ++i) {
    prob[i] = 0.0;
    alias[i] = 0;
  }
  std::vector<double>& scaled = scratch->scaled;
  scaled.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<uint32_t>& small = scratch->small;
  std::vector<uint32_t>& large = scratch->large;
  small.clear();
  large.clear();
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  while (!large.empty()) {
    prob[large.back()] = 1.0;
    large.pop_back();
  }
  while (!small.empty()) {
    prob[small.back()] = 1.0;
    small.pop_back();
  }
  return true;
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  if (n == 0) return;
  prob_.resize(n);
  alias_.resize(n);
  AliasBuildScratch scratch;
  if (!BuildAliasSlots({weights.data(), n}, prob_.data(), alias_.data(),
                       &scratch)) {
    prob_.clear();
    alias_.clear();
    prob_.shrink_to_fit();
    alias_.shrink_to_fit();
  }
}

}  // namespace leva
