#include "core/token_resolver.h"

#include <cstring>
#include <utility>

namespace leva {
namespace {

constexpr size_t kInitialSlots = 1024;  // power of two

// Multiply–xorshift hash tuned for the short tokens this resolver sees
// (cell values and bin labels, typically under 16 bytes): word-at-a-time
// loads instead of std::hash's byte-wise Murmur loop. Only distribution
// matters here, not stability — ids are assigned in first-sight order either
// way, and a 64-bit hash compare guards the string compare in the table.
uint64_t HashToken(std::string_view token) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const char* p = token.data();
  size_t n = token.size();
  uint64_t h = (uint64_t{n} + 1) * kMul;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    h = (h ^ v) * kMul;
    h ^= h >> 32;
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    // Two possibly-overlapping 4-byte loads cover the 4..7 tail.
    uint32_t a, b;
    std::memcpy(&a, p, 4);
    std::memcpy(&b, p + n - 4, 4);
    h = (h ^ (uint64_t{a} | (uint64_t{b} << 32))) * kMul;
    h ^= h >> 32;
  } else if (n > 0) {
    const uint64_t v = (uint64_t{static_cast<unsigned char>(p[0])}) |
                       (uint64_t{static_cast<unsigned char>(p[n >> 1])} << 8) |
                       (uint64_t{static_cast<unsigned char>(p[n - 1])} << 16);
    h = (h ^ v) * kMul;
    h ^= h >> 32;
  }
  // The slot index is h masked to its low bits, so finish by folding the
  // well-mixed high bits downward.
  h *= kMul;
  h ^= h >> 29;
  return h;
}

}  // namespace

TokenResolver::Entry TokenResolver::Resolve(std::string_view token) const {
  Entry entry;
  entry.embedding_id = embedding_->IdOf(token);
  if (entry.embedding_id != Embedding::kInvalidId && weighted_ &&
      graph_ != nullptr) {
    const NodeId vn = graph_->ValueNode(token);
    if (vn != kInvalidNode && graph_->Degree(vn) > 0) {
      entry.weight = 1.0 / static_cast<double>(graph_->Degree(vn));
    }
  }
  return entry;
}

uint32_t TokenResolver::FindId(std::string_view token) const {
  if (slots_.empty()) return UINT32_MAX;
  const uint64_t hash = HashToken(token);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i].id_plus_1 != 0; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.hash != hash) continue;
    if (slot.len != Slot::kOverflowLen
            ? (slot.len == token.size() &&
               std::memcmp(slot.key, token.data(), slot.len) == 0)
            : keys_[slot.id_plus_1 - 1] == token) {
      return slot.id_plus_1 - 1;
    }
  }
  return UINT32_MAX;
}

void TokenResolver::Rebind(const Embedding* embedding, const LevaGraph* graph,
                           const std::vector<std::string>& touched) {
  embedding_ = embedding;
  graph_ = graph;
  for (const std::string& token : touched) {
    const uint32_t id = FindId(token);
    if (id == UINT32_MAX) continue;  // never cached: resolves on first sight
    entries_[id] = Resolve(token);
  }
}

uint32_t TokenResolver::Intern(std::string_view token) {
  ++stats_.occurrences;
  if (slots_.empty()) slots_.resize(kInitialSlots);
  const uint64_t hash = HashToken(token);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i].id_plus_1 != 0; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.hash != hash) continue;
    if (slot.len != Slot::kOverflowLen
            ? (slot.len == token.size() &&
               std::memcmp(slot.key, token.data(), slot.len) == 0)
            : keys_[slot.id_plus_1 - 1] == token) {
      return slot.id_plus_1 - 1;
    }
  }

  ++stats_.distinct;
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  keys_.emplace_back(token);
  entries_.push_back(Resolve(keys_.back()));
  Slot& slot = slots_[i];
  slot.hash = hash;
  slot.id_plus_1 = id + 1;
  if (token.size() <= Slot::kInlineKey) {
    slot.len = static_cast<uint8_t>(token.size());
    std::memcpy(slot.key, token.data(), token.size());
  } else {
    slot.len = Slot::kOverflowLen;
  }
  // Keep the load factor under ~0.7 so linear probe chains stay short.
  if (entries_.size() * 10 >= slots_.size() * 7) Grow();
  return id;
}

void TokenResolver::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_1 == 0) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id_plus_1 != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void TokenResolver::Save(BufferWriter* out) const {
  out->PutU64(keys_.size());
  for (const std::string& key : keys_) out->PutString(key);
}

Status TokenResolver::Load(BufferReader* in) {
  Clear();
  uint64_t count = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&count));
  std::string key;
  for (uint64_t i = 0; i < count; ++i) {
    LEVA_RETURN_IF_ERROR(in->GetString(&key));
    // Keys were saved in id order, so re-interning assigns the same ids;
    // a duplicate would break that bijection.
    if (Intern(key) != i) {
      return Status::InvalidArgument("corrupt resolver cache: duplicate key '" +
                                     key + "'");
    }
  }
  return Status::OK();
}

void TokenResolver::Clear() {
  slots_.clear();
  keys_.clear();
  entries_.clear();
  // stats_ deliberately persists: it accumulates across the resolver's
  // lifetime so callers can report per-call deltas.
}

void TokenResolver::EvictIfAbove(size_t max_entries) {
  if (entries_.size() > max_entries) Clear();
}

}  // namespace leva
