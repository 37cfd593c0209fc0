#ifndef LEVA_EMBED_EMBEDDING_H_
#define LEVA_EMBED_EMBEDDING_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "common/storage.h"
#include "common/string_util.h"

namespace leva {

class LevaGraph;
class Matrix;

/// Storage precision of the embedding vector block. A snapshot is written at
/// one tier (`leva_cli --quantize`, recorded in the config) and served at
/// that tier without ever materializing a full-precision matrix: the
/// featurize gather dequantizes element-wise on the fly (see
/// src/common/simd.h and DESIGN.md "Quantized serving").
///   kFp64 — 8 B/element, the fitting representation; bit-exact serving.
///   kBf16 — 2 B/element, truncated fp32 (round-to-nearest-even encode,
///           exact widening decode); relative error <= 2^-8 per element
///           (7 explicit mantissa bits, RNE half-step).
///   kInt8 — 1 B/element + one fp32 scale per row (symmetric, scale =
///           maxabs/127); absolute error <= scale/2 per element.
enum class StorageTier : uint8_t { kFp64 = 0, kBf16 = 1, kInt8 = 2 };

/// Human-readable tier name: "fp64" / "bf16" / "int8".
const char* StorageTierName(StorageTier tier);

/// Parses a StorageTierName string; false on unknown names.
bool ParseStorageTier(std::string_view name, StorageTier* out);

/// Symmetric per-row int8 quantization: *scale = maxabs(x)/127 rounded to
/// fp32 (0 for an all-zero row) and q[j] = round(x[j] / *scale) clamped to
/// [-127, 127] (ties away from zero). Exposed for the differential tests,
/// which recompute the documented error bound from the same arithmetic.
void QuantizeRowInt8(const double* x, size_t n, int8_t* q, float* scale);

/// The tier-selected raw storage of an embedding vector block, as adopted by
/// Load. Exactly the fields of the active tier are populated: fp64 for
/// kFp64, bf16 for kBf16, q8 + scales for kInt8. Each is either owned heap
/// bytes or a borrowed mmap view of a snapshot bulk section.
struct EmbeddingStorage {
  OwnedOrMapped<double> fp64;
  OwnedOrMapped<uint16_t> bf16;
  OwnedOrMapped<int8_t> q8;
  OwnedOrMapped<float> scales;
};

/// A token -> dense-vector store: the output of Leva's embedding construction
/// (the mapping E of Section 2.4). Keys are node labels: "<table>:<row>" for
/// row nodes, the token text for value nodes.
class Embedding {
 public:
  Embedding() = default;
  explicit Embedding(size_t dim) : dim_(dim) {}

  /// The store of a node embedding: row n of `node_vectors` under
  /// graph.label(n) for every node, so store row id n is node n (the layout
  /// Featurize's row-node fast path and Update's warm start rely on).
  static Result<Embedding> FromNodeVectors(const LevaGraph& graph,
                                           const Matrix& node_vectors);

  size_t dim() const { return dim_; }
  size_t size() const { return keys_.size(); }

  /// Storage precision of the vector block. Fitting always produces kFp64;
  /// quantized tiers arrive via WithTier (save path) or Load (serve path).
  StorageTier tier() const { return tier_; }

  /// Bytes of vector-block storage per row at the current tier (the int8
  /// figure includes the per-row fp32 scale).
  size_t bytes_per_row() const {
    switch (tier_) {
      case StorageTier::kBf16: return dim_ * sizeof(uint16_t);
      case StorageTier::kInt8: return dim_ * sizeof(int8_t) + sizeof(float);
      case StorageTier::kFp64: break;
    }
    return dim_ * sizeof(double);
  }

  /// Adds (or overwrites) the vector for `key`. `vec` must have length dim().
  /// On a quantized store this first detaches to an owned fp64 copy of the
  /// whole block (mutation is a fitting-path operation; quantized stores are
  /// serve-only).
  Status Put(const std::string& key, std::span<const double> vec);

  bool Has(const std::string& key) const { return index_.count(key) > 0; }

  /// Vector for `key`; empty span when missing. On a quantized store the
  /// span points into a thread-local scratch row and is invalidated by the
  /// next Get/GetById on the same thread.
  std::span<const double> Get(const std::string& key) const;

  /// Sentinel returned by IdOf for unknown keys.
  static constexpr size_t kInvalidId = static_cast<size_t>(-1);

  /// Integer id of `key` — its row index into keys()/data() — or kInvalidId.
  /// Ids are stable for the lifetime of the store (Put never reorders) so
  /// callers may pay the string hash once and gather by id afterwards. Takes
  /// a view so gather loops probe without materializing a string.
  size_t IdOf(std::string_view key) const;

  /// Row `id` of the contiguous store; `id` must be a valid IdOf result.
  /// Same thread-local-scratch caveat as Get on quantized tiers.
  std::span<const double> GetById(size_t id) const {
    assert(id < keys_.size() && "Embedding::GetById: id out of range");
    if (tier_ == StorageTier::kFp64) return {data_.data() + id * dim_, dim_};
    return DequantScratch(id);
  }

  /// Raw pointer form of GetById for allocation-free gather loops. fp64-only:
  /// quantized tiers have no fp64 rows to point at — use the tier accessors
  /// below plus the simd.h dequant kernels, or DequantizeRow.
  const double* RowPtr(size_t id) const {
    assert(id < keys_.size() && "Embedding::RowPtr: id out of range");
    assert(tier_ == StorageTier::kFp64 &&
           "Embedding::RowPtr: fp64-only; use Bf16RowPtr/Int8RowPtr");
    return data_.data() + id * dim_;
  }

  /// Raw bf16 row (tier() == kBf16 only).
  const uint16_t* Bf16RowPtr(size_t id) const {
    assert(id < keys_.size() && tier_ == StorageTier::kBf16);
    return bf16_.data() + id * dim_;
  }

  /// Raw int8 row (tier() == kInt8 only).
  const int8_t* Int8RowPtr(size_t id) const {
    assert(id < keys_.size() && tier_ == StorageTier::kInt8);
    return q8_.data() + id * dim_;
  }

  /// Per-row dequantization scale (tier() == kInt8 only).
  float RowScale(size_t id) const {
    assert(id < keys_.size() && tier_ == StorageTier::kInt8);
    return scales_.data()[id];
  }

  /// Writes row `id` as dim() doubles into `out`, dequantizing as needed.
  /// Produces exactly the bits Get/GetById serve for the row at this tier.
  void DequantizeRow(size_t id, double* out) const;

  const std::vector<std::string>& keys() const { return keys_; }

  /// Raw fp64 storage (size() x dim(), row-major), aligned with keys(); only
  /// meaningful at tier kFp64. A view: the bytes live either in owned heap
  /// memory (a fitted model) or in an mmap'ed snapshot region (zero-copy
  /// load).
  ArrayView<double> data() const {
    assert(tier_ == StorageTier::kFp64 && "Embedding::data: fp64-only");
    return data_.span();
  }

  /// Raw quantized storage views for the snapshot writer and benches (valid
  /// at the matching tier, empty otherwise).
  ArrayView<uint16_t> bf16_data() const { return bf16_.span(); }
  ArrayView<int8_t> int8_data() const { return q8_.span(); }
  ArrayView<float> scales() const { return scales_.span(); }

  /// True when the vector block is served straight from an mmap'ed snapshot.
  bool mapped() const {
    switch (tier_) {
      case StorageTier::kBf16: return bf16_.mapped();
      case StorageTier::kInt8: return q8_.mapped() || scales_.mapped();
      case StorageTier::kFp64: break;
    }
    return data_.mapped();
  }

  /// A copy of this store re-encoded at `tier` (same keys/dim). Quantized ->
  /// quantized goes through fp64 dequantization; re-encoding a store at its
  /// own tier is lossless. Used by the snapshot writer to quantize at Save
  /// time without touching the serving store.
  Embedding WithTier(StorageTier tier) const;

  /// Serializes as "key dim v1 ... vd" lines (values as served at the
  /// current tier).
  std::string ToText() const;
  /// Parses ToText output. Rejects duplicate keys and non-finite (NaN/Inf)
  /// vector components with kInvalidArgument: a store with either would
  /// silently poison every downstream featurization.
  static Result<Embedding> FromText(const std::string& text);

  /// Binary serialization for snapshots. Save writes only the *metadata*
  /// (dim, count, storage tier, keys); the raw vector block — and, for int8,
  /// the per-row scales — is framed separately by the snapshot layer as
  /// page-aligned bulk sections (see data()/bf16_data()/int8_data()/
  /// scales()), so a loader can map it instead of copying. Bit-exact, unlike
  /// ToText.
  void Save(BufferWriter* out) const;

  /// Restores state written by Save, rebuilding the key index, and adopts
  /// the tier-matching fields of `storage` — owned heap bytes or borrowed
  /// mmap views — as the vector block. Rejects duplicate keys and any block
  /// whose length does not match the serialized tier/dim/count. On error the
  /// store is left empty, never partially loaded.
  Status Load(BufferReader* in, EmbeddingStorage storage);

  /// L1 distance between two vectors of equal length.
  static double L1Distance(std::span<const double> a, std::span<const double> b);

 private:
  /// Out-of-line quantized path of GetById: dequantizes row `id` into a
  /// thread-local scratch buffer and returns a span over it.
  std::span<const double> DequantScratch(size_t id) const;

  /// Detaches a quantized store to an owned fp64 block so Put can mutate it
  /// (the quantized analogue of OwnedOrMapped's detach-on-mutate).
  void EnsureFp64Owned();

  size_t dim_ = 0;
  StorageTier tier_ = StorageTier::kFp64;
  std::unordered_map<std::string, size_t, TransparentStringHash,
                     std::equal_to<>>
      index_;
  std::vector<std::string> keys_;
  // The big read-only-in-serving array — one of the three tiers is active
  // (see tier_). Owned while fitting (Put mutates), a borrowed page-cache
  // view after an mmap snapshot load. Mutating an mmap-loaded or quantized
  // store (Put) transparently detaches to an owned fp64 copy.
  OwnedOrMapped<double> data_;
  OwnedOrMapped<uint16_t> bf16_;
  OwnedOrMapped<int8_t> q8_;
  OwnedOrMapped<float> scales_;  // one fp32 per row, kInt8 only
};

}  // namespace leva

#endif  // LEVA_EMBED_EMBEDDING_H_
