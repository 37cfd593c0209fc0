#include "embed/embedding.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/simd.h"
#include "common/string_util.h"
#include "graph/graph.h"
#include "la/matrix.h"

namespace leva {

const char* StorageTierName(StorageTier tier) {
  switch (tier) {
    case StorageTier::kBf16: return "bf16";
    case StorageTier::kInt8: return "int8";
    case StorageTier::kFp64: break;
  }
  return "fp64";
}

bool ParseStorageTier(std::string_view name, StorageTier* out) {
  if (name == "fp64") {
    *out = StorageTier::kFp64;
  } else if (name == "bf16") {
    *out = StorageTier::kBf16;
  } else if (name == "int8") {
    *out = StorageTier::kInt8;
  } else {
    return false;
  }
  return true;
}

void QuantizeRowInt8(const double* x, size_t n, int8_t* q, float* scale) {
  double maxabs = 0.0;
  for (size_t j = 0; j < n; ++j) maxabs = std::max(maxabs, std::fabs(x[j]));
  // The scale is stored (and therefore divided by) in fp32: quantize against
  // the rounded value the dequantizer will actually multiply with, so the
  // per-element error stays <= scale/2 plus one fp32 ulp of clamp slack.
  const float s = maxabs > 0.0 ? static_cast<float>(maxabs / 127.0) : 0.0f;
  *scale = s;
  if (s == 0.0f) {
    std::fill(q, q + n, int8_t{0});
    return;
  }
  const double sd = static_cast<double>(s);
  for (size_t j = 0; j < n; ++j) {
    const long v = std::lround(x[j] / sd);
    q[j] = static_cast<int8_t>(std::clamp(v, -127L, 127L));
  }
}

Result<Embedding> Embedding::FromNodeVectors(const LevaGraph& graph,
                                             const Matrix& node_vectors) {
  Embedding out(node_vectors.cols());
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    LEVA_RETURN_IF_ERROR(out.Put(graph.label(n),
                                 {node_vectors.RowPtr(n), node_vectors.cols()}));
  }
  return out;
}

Status Embedding::Put(const std::string& key, std::span<const double> vec) {
  if (vec.size() != dim_) {
    return Status::InvalidArgument("vector for '" + key + "' has dim " +
                                   std::to_string(vec.size()) + ", expected " +
                                   std::to_string(dim_));
  }
  EnsureFp64Owned();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    std::copy(vec.begin(), vec.end(),
              data_.owned().begin() + static_cast<ptrdiff_t>(it->second * dim_));
    return Status::OK();
  }
  index_.emplace(key, keys_.size());
  keys_.push_back(key);
  data_.owned().insert(data_.owned().end(), vec.begin(), vec.end());
  return Status::OK();
}

std::span<const double> Embedding::Get(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return {};
  return GetById(it->second);
}

size_t Embedding::IdOf(std::string_view key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? kInvalidId : it->second;
}

// Cloned like every caller of the simd.h lane kernels: the "avx2" clone
// widens and stores each lane group in one ymm register.
LEVA_TARGET_CLONES
void Embedding::DequantizeRow(size_t id, double* out) const {
  assert(id < keys_.size() && "Embedding::DequantizeRow: id out of range");
  switch (tier_) {
    case StorageTier::kBf16:
      simd::DequantRowBf16(out, bf16_.data() + id * dim_, dim_);
      return;
    case StorageTier::kInt8:
      simd::DequantRowI8(out, q8_.data() + id * dim_,
                         static_cast<double>(scales_.data()[id]), dim_);
      return;
    case StorageTier::kFp64:
      break;
  }
  std::memcpy(out, data_.data() + id * dim_, dim_ * sizeof(double));
}

std::span<const double> Embedding::DequantScratch(size_t id) const {
  // One scratch row per thread: a quantized GetById span stays valid until
  // the next Get/GetById on the same thread (documented in the header).
  static thread_local std::vector<double> scratch;
  if (scratch.size() < dim_) scratch.resize(dim_);
  DequantizeRow(id, scratch.data());
  return {scratch.data(), dim_};
}

void Embedding::EnsureFp64Owned() {
  if (tier_ == StorageTier::kFp64) return;
  std::vector<double> block(keys_.size() * dim_);
  for (size_t i = 0; i < keys_.size(); ++i) {
    DequantizeRow(i, block.data() + i * dim_);
  }
  data_ = std::move(block);
  bf16_ = OwnedOrMapped<uint16_t>();
  q8_ = OwnedOrMapped<int8_t>();
  scales_ = OwnedOrMapped<float>();
  tier_ = StorageTier::kFp64;
}

Embedding Embedding::WithTier(StorageTier tier) const {
  Embedding out;
  out.dim_ = dim_;
  out.tier_ = tier;
  out.index_ = index_;
  out.keys_ = keys_;
  const size_t n = keys_.size();
  if (tier == tier_) {
    // Same tier: byte-copy the active storage (lossless, and detaches any
    // mmap view so the copy outlives the source region).
    switch (tier_) {
      case StorageTier::kBf16:
        out.bf16_ = std::vector<uint16_t>(bf16_.data(), bf16_.data() + n * dim_);
        return out;
      case StorageTier::kInt8:
        out.q8_ = std::vector<int8_t>(q8_.data(), q8_.data() + n * dim_);
        out.scales_ = std::vector<float>(scales_.data(), scales_.data() + n);
        return out;
      case StorageTier::kFp64:
        break;
    }
    out.data_ = std::vector<double>(data_.data(), data_.data() + n * dim_);
    return out;
  }
  std::vector<double> row(dim_);
  switch (tier) {
    case StorageTier::kBf16: {
      std::vector<uint16_t> block(n * dim_);
      for (size_t i = 0; i < n; ++i) {
        DequantizeRow(i, row.data());
        for (size_t j = 0; j < dim_; ++j) {
          block[i * dim_ + j] =
              simd::Bf16FromFloat(static_cast<float>(row[j]));
        }
      }
      out.bf16_ = std::move(block);
      return out;
    }
    case StorageTier::kInt8: {
      std::vector<int8_t> block(n * dim_);
      std::vector<float> scales(n);
      for (size_t i = 0; i < n; ++i) {
        DequantizeRow(i, row.data());
        QuantizeRowInt8(row.data(), dim_, block.data() + i * dim_, &scales[i]);
      }
      out.q8_ = std::move(block);
      out.scales_ = std::move(scales);
      return out;
    }
    case StorageTier::kFp64:
      break;
  }
  std::vector<double> block(n * dim_);
  for (size_t i = 0; i < n; ++i) DequantizeRow(i, block.data() + i * dim_);
  out.data_ = std::move(block);
  return out;
}

std::string Embedding::ToText() const {
  std::ostringstream out;
  out << keys_.size() << ' ' << dim_ << '\n';
  std::vector<double> row(dim_);
  for (size_t i = 0; i < keys_.size(); ++i) {
    DequantizeRow(i, row.data());
    out << keys_[i];
    for (size_t j = 0; j < dim_; ++j) out << ' ' << row[j];
    out << '\n';
  }
  return out.str();
}

Result<Embedding> Embedding::FromText(const std::string& text) {
  std::istringstream in(text);
  size_t count = 0;
  size_t dim = 0;
  if (!(in >> count >> dim)) {
    return Status::InvalidArgument("bad embedding header");
  }
  Embedding e(dim);
  std::vector<double> vec(dim);
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    if (!(in >> key)) return Status::InvalidArgument("truncated embedding");
    for (size_t j = 0; j < dim; ++j) {
      // Stream extraction of doubles rejects "nan"/"inf" tokens outright in
      // libstdc++; route through ParseDouble so they parse and then hit the
      // finiteness check below with a descriptive error.
      std::string tok;
      if (!(in >> tok)) return Status::InvalidArgument("truncated vector");
      const auto parsed = ParseDouble(tok);
      if (!parsed) {
        return Status::InvalidArgument("bad component '" + tok + "' for key '" +
                                       key + "'");
      }
      vec[j] = *parsed;
      if (!std::isfinite(vec[j])) {
        return Status::InvalidArgument(
            "non-finite component " + std::to_string(j) + " for key '" + key +
            "': embedding vectors must be finite");
      }
    }
    if (e.Has(key)) {
      return Status::InvalidArgument("duplicate embedding key '" + key + "'");
    }
    LEVA_RETURN_IF_ERROR(e.Put(key, vec));
  }
  return e;
}

void Embedding::Save(BufferWriter* out) const {
  out->PutU64(dim_);
  out->PutU64(keys_.size());
  out->PutU8(static_cast<uint8_t>(tier_));
  for (const std::string& key : keys_) out->PutString(key);
}

Status Embedding::Load(BufferReader* in, EmbeddingStorage storage) {
  *this = Embedding();
  Embedding e;
  uint64_t dim = 0;
  uint64_t count = 0;
  uint8_t tier_raw = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&dim));
  LEVA_RETURN_IF_ERROR(in->GetU64(&count));
  LEVA_RETURN_IF_ERROR(in->GetU8(&tier_raw));
  if (tier_raw > static_cast<uint8_t>(StorageTier::kInt8)) {
    return Status::InvalidArgument("corrupt embedding: unknown storage tier " +
                                   std::to_string(tier_raw));
  }
  e.dim_ = dim;
  e.tier_ = static_cast<StorageTier>(tier_raw);
  e.keys_.reserve(count);
  e.index_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    LEVA_RETURN_IF_ERROR(in->GetString(&key));
    if (!e.index_.emplace(key, i).second) {
      return Status::InvalidArgument("corrupt embedding: duplicate key '" +
                                     key + "'");
    }
    e.keys_.push_back(std::move(key));
  }
  // Guard the size product against overflow before comparing element counts
  // (sizeof(double) is the widest per-element footprint of any tier).
  if (dim != 0 && count > SIZE_MAX / sizeof(double) / dim) {
    return Status::InvalidArgument("corrupt embedding: " +
                                   std::to_string(count) + " x " +
                                   std::to_string(dim) + " overflows");
  }
  const uint64_t elems = count * dim;
  const auto bad_block = [&](const char* what, size_t got,
                             const std::string& want) {
    return Status::InvalidArgument(
        "corrupt embedding: " + std::string(StorageTierName(e.tier_)) + " " +
        what + " holds " + std::to_string(got) + " value(s), expected " + want);
  };
  const std::string want_elems =
      std::to_string(count) + " x " + std::to_string(dim);
  switch (e.tier_) {
    case StorageTier::kBf16:
      if (storage.bf16.size() != elems) {
        return bad_block("vector block", storage.bf16.size(), want_elems);
      }
      e.bf16_ = std::move(storage.bf16);
      break;
    case StorageTier::kInt8:
      if (storage.q8.size() != elems) {
        return bad_block("vector block", storage.q8.size(), want_elems);
      }
      if (storage.scales.size() != count) {
        return bad_block("scale block", storage.scales.size(),
                         std::to_string(count));
      }
      e.q8_ = std::move(storage.q8);
      e.scales_ = std::move(storage.scales);
      break;
    case StorageTier::kFp64:
      if (storage.fp64.size() != elems) {
        return bad_block("vector block", storage.fp64.size(), want_elems);
      }
      e.data_ = std::move(storage.fp64);
      break;
  }
  *this = std::move(e);
  return Status::OK();
}

double Embedding::L1Distance(std::span<const double> a,
                             std::span<const double> b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

}  // namespace leva
