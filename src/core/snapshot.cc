// Versioned, checksummed snapshots of a fitted LevaPipeline.
//
// Format layout (all integers little-endian, see common/io.h):
//
//   manifest:
//     [8]  magic "LEVASNP1"
//     [4]  u32 format version (7)
//     [4]  u32 config hash       crc32c of the "config" section payload
//     [4]  u32 section count
//     per section:
//       string  name             (u64 length + bytes)
//       u8      kind             0 = inline, 1 = bulk
//       kind 0: u64 payload length, u32 payload crc32c, payload bytes
//       kind 1: u64 payload length, u64 file offset, u64 page size,
//               u32 crc32c per page (ceil(length / page size) of them,
//               each computed over the full zero-padded page)
//     [4]  u32 manifest crc32c   over every manifest byte above
//   zero padding to the next page boundary
//   bulk payloads, in manifest order, each starting page-aligned and
//   zero-padded to a page multiple
//
// Inline sections carry the metadata (config, textifier, graph/embedding
// key tables, resolver cache); bulk sections carry the big arrays — the
// embedding matrix and the graph's CSR adjacency — whose on-disk bytes are
// exactly their in-memory layout, so a loader can mmap the file and serve
// them in place (O(pages touched) load, page-cache sharing across
// processes). The embedding matrix is written at the storage tier recorded
// in the config (v4): "embedding.data" (fp64), "embedding.bf16", or
// "embedding.q8" + "embedding.scales" (int8 with per-row fp32 scales) — and
// served at that tier, dequantized on the fly by the featurize gather. Every byte of the file is covered by a checksum or required
// to be zero: the manifest by the manifest CRC, inline payloads by their
// section CRCs, bulk payloads (padding included) by their per-page CRCs,
// and inter-section gaps by an explicit zero check — so heap loads detect
// any bit flip or truncation, while mmap loads can defer the per-page work
// (SnapshotLoadOptions::verify_pages) and still localize damage to a page
// when they do verify. Unknown *extra* sections are ignored on load so
// version N readers accept version N writers that learned new optional
// sections without a format break; missing required sections are an error.
#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/io.h"
#include "core/pipeline.h"

namespace leva {
namespace {

constexpr char kMagic[8] = {'L', 'E', 'V', 'A', 'S', 'N', 'P', '1'};
constexpr size_t kHeaderBytes = sizeof(kMagic) + 3 * sizeof(uint32_t);
// Bulk payload alignment and checksum granularity. 4 KiB matches the page
// size everywhere we run; a mapped load touches whole pages anyway, so finer
// CRC granularity would buy nothing.
constexpr uint64_t kPageSize = 4096;
// Parse guard: a corrupt section count must not turn into a huge loop.
constexpr uint32_t kMaxSections = 64;

uint64_t RoundUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

void SaveConfig(const LevaConfig& c, BufferWriter* out) {
  out->PutU64(c.textify.bin_count);
  out->PutBool(c.textify.force_histogram_type);
  out->PutU8(static_cast<uint8_t>(c.textify.forced_type));
  out->PutDouble(c.textify.key_distinct_ratio);
  out->PutDouble(c.textify.list_detect_ratio);

  out->PutDouble(c.graph.theta_range);
  out->PutDouble(c.graph.theta_min);
  out->PutBool(c.graph.weighted);

  out->PutU8(static_cast<uint8_t>(c.method));
  out->PutU64(c.embedding_dim);
  out->PutU8(static_cast<uint8_t>(c.featurization));
  out->PutU64(c.memory_budget_bytes);

  out->PutU64(c.walks.walk_length);
  out->PutU64(c.walks.epochs);
  out->PutBool(c.walks.weighted);
  out->PutBool(c.walks.balanced_restarts);
  out->PutU64(c.walks.restart_epochs);
  out->PutU64(c.walks.visit_limit);
  out->PutDouble(c.walks.p);
  out->PutDouble(c.walks.q);
  out->PutU64(c.walks.threads);

  out->PutU64(c.word2vec.dim);
  out->PutU64(c.word2vec.window);
  out->PutU64(c.word2vec.negative);
  out->PutDouble(c.word2vec.subsample);
  out->PutDouble(c.word2vec.learning_rate);
  out->PutU64(c.word2vec.epochs);
  out->PutDouble(c.word2vec.unigram_power);
  out->PutU64(c.word2vec.threads);

  out->PutU64(c.mf.dim);
  out->PutU64(c.mf.oversample);
  out->PutU64(c.mf.power_iterations);
  out->PutDouble(c.mf.tau);
  out->PutU64(c.mf.window);
  out->PutU64(c.mf.max_row_entries);
  out->PutBool(c.mf.spectral_propagation);
  out->PutU64(c.mf.chebyshev_order);
  out->PutDouble(c.mf.mu);
  out->PutDouble(c.mf.theta);
  out->PutU64(c.mf.threads);

  out->PutU64(c.line.dim);
  out->PutU64(c.line.negative);
  out->PutU64(c.line.samples_per_edge);
  out->PutDouble(c.line.learning_rate);
  out->PutDouble(c.line.unigram_power);

  out->PutU64(c.seed);
  out->PutU64(c.threads);
  out->PutU64(c.featurize_batch_size);
  out->PutU8(static_cast<uint8_t>(c.quantize_tier));
}

Status CheckEnum(uint8_t v, uint8_t max, const char* what) {
  if (v > max) {
    return Status::InvalidArgument(std::string("corrupt config: bad ") + what +
                                   " " + std::to_string(v));
  }
  return Status::OK();
}

Status LoadConfig(BufferReader* in, LevaConfig* c) {
  uint8_t u8 = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->textify.bin_count));
  LEVA_RETURN_IF_ERROR(in->GetBool(&c->textify.force_histogram_type));
  LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
  LEVA_RETURN_IF_ERROR(
      CheckEnum(u8, static_cast<uint8_t>(HistogramType::kEquiDepth),
                "histogram type"));
  c->textify.forced_type = static_cast<HistogramType>(u8);
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->textify.key_distinct_ratio));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->textify.list_detect_ratio));

  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->graph.theta_range));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->graph.theta_min));
  LEVA_RETURN_IF_ERROR(in->GetBool(&c->graph.weighted));

  LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
  LEVA_RETURN_IF_ERROR(
      CheckEnum(u8, static_cast<uint8_t>(EmbeddingMethod::kLine), "method"));
  c->method = static_cast<EmbeddingMethod>(u8);
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->embedding_dim));
  LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
  LEVA_RETURN_IF_ERROR(CheckEnum(
      u8, static_cast<uint8_t>(Featurization::kRowPlusValue), "featurization"));
  c->featurization = static_cast<Featurization>(u8);
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->memory_budget_bytes));

  LEVA_RETURN_IF_ERROR(in->GetU64(&c->walks.walk_length));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->walks.epochs));
  LEVA_RETURN_IF_ERROR(in->GetBool(&c->walks.weighted));
  LEVA_RETURN_IF_ERROR(in->GetBool(&c->walks.balanced_restarts));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->walks.restart_epochs));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->walks.visit_limit));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->walks.p));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->walks.q));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->walks.threads));

  LEVA_RETURN_IF_ERROR(in->GetU64(&c->word2vec.dim));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->word2vec.window));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->word2vec.negative));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->word2vec.subsample));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->word2vec.learning_rate));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->word2vec.epochs));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->word2vec.unigram_power));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->word2vec.threads));

  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.dim));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.oversample));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.power_iterations));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->mf.tau));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.window));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.max_row_entries));
  LEVA_RETURN_IF_ERROR(in->GetBool(&c->mf.spectral_propagation));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.chebyshev_order));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->mf.mu));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->mf.theta));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->mf.threads));

  LEVA_RETURN_IF_ERROR(in->GetU64(&c->line.dim));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->line.negative));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->line.samples_per_edge));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->line.learning_rate));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&c->line.unigram_power));

  LEVA_RETURN_IF_ERROR(in->GetU64(&c->seed));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->threads));
  LEVA_RETURN_IF_ERROR(in->GetU64(&c->featurize_batch_size));
  LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
  LEVA_RETURN_IF_ERROR(CheckEnum(
      u8, static_cast<uint8_t>(StorageTier::kInt8), "storage tier"));
  c->quantize_tier = static_cast<StorageTier>(u8);
  return Status::OK();
}

void AppendInlineSection(const std::string& name, const std::string& payload,
                         BufferWriter* file) {
  file->PutString(name);
  file->PutU8(0);  // kind: inline
  file->PutU64(payload.size());
  file->PutU32(Crc32c(payload));
  file->PutBytes(payload.data(), payload.size());
}

// One page-aligned raw array on its way into a snapshot.
struct BulkSpec {
  const char* name;
  const char* data;
  uint64_t len;  // unpadded bytes
  std::vector<uint32_t> page_crcs;
};

template <typename T>
BulkSpec MakeBulk(const char* name, ArrayView<T> view) {
  BulkSpec b;
  b.name = name;
  b.data = reinterpret_cast<const char*>(view.data());
  b.len = view.size() * sizeof(T);
  const uint64_t pages = (b.len + kPageSize - 1) / kPageSize;
  b.page_crcs.reserve(pages);
  // Each CRC covers a full padded page: the zeros that pad the final page
  // on disk are folded in here, so the padding itself is tamper-evident.
  static const std::string zeros(kPageSize, '\0');
  for (uint64_t p = 0; p < pages; ++p) {
    const uint64_t take = std::min<uint64_t>(kPageSize, b.len - p * kPageSize);
    uint32_t crc = Crc32c(b.data + p * kPageSize, take);
    if (take < kPageSize) crc = Crc32c(zeros.data(), kPageSize - take, crc);
    b.page_crcs.push_back(crc);
  }
  return b;
}

using BulkPages = LevaPipeline::BulkPages;

// Checks every page of `bulks` against its CRC32C; `base` is the start of
// the snapshot file's bytes. Names the first damaged (section, page) and its
// file offset, prefixed by `where`.
Status VerifyPages(const char* base, const std::vector<BulkPages>& bulks,
                   const std::string& where) {
  for (const BulkPages& b : bulks) {
    for (size_t p = 0; p < b.page_crcs.size(); ++p) {
      const uint64_t offset = b.file_offset + p * b.page_size;
      if (Crc32c(base + offset, b.page_size) != b.page_crcs[p]) {
        return Status::InvalidArgument(
            where + " bulk section '" + b.name + "' page " +
            std::to_string(p) + " (file offset " + std::to_string(offset) +
            ") failed its page checksum");
      }
    }
  }
  return Status::OK();
}

// Materializes bulk section `name` as a typed array: a zero-copy borrow of
// the region when mapping is requested and the bytes are suitably aligned,
// an owned heap copy otherwise.
template <typename T>
Result<OwnedOrMapped<T>> TakeBulk(const std::string& path,
                                  const std::vector<BulkPages>& bulks,
                                  const char* name,
                                  const std::shared_ptr<const MappedRegion>&
                                      region,
                                  bool borrow) {
  const BulkPages* ref = nullptr;
  for (const BulkPages& b : bulks) {
    if (b.name == name) {
      ref = &b;
      break;
    }
  }
  if (ref == nullptr) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' is missing required bulk section '" +
                                   std::string(name) + "'");
  }
  if (ref->payload_len % sizeof(T) != 0) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' bulk section '" + std::string(name) +
        "' holds " + std::to_string(ref->payload_len) +
        " byte(s), not a multiple of " + std::to_string(sizeof(T)));
  }
  const char* bytes = region->data() + ref->file_offset;
  const size_t count = ref->payload_len / sizeof(T);
  if (borrow &&
      reinterpret_cast<uintptr_t>(bytes) % alignof(T) == 0) {
    return OwnedOrMapped<T>::Mapped(region,
                                    reinterpret_cast<const T*>(bytes), count);
  }
  std::vector<T> owned(count);
  std::memcpy(owned.data(), bytes, ref->payload_len);
  return OwnedOrMapped<T>(std::move(owned));
}

// Parses and validates a whole snapshot out of `region` into a fresh
// ServingState. Everything is validated before the state is returned, so a
// corrupt file can never yield a partially loaded model.
Result<std::shared_ptr<LevaPipeline::ServingState>> LoadState(
    const std::string& path, Env* env, SnapshotLoadOptions options) {
  std::shared_ptr<const MappedRegion> region;
  if (options.use_mmap) {
    LEVA_ASSIGN_OR_RETURN(region, env->NewMmapReadableFile(path));
  } else {
    LEVA_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
    region = MappedRegion::FromString(std::move(bytes));
  }
  const std::string_view bytes(region->data(), region->size());

  if (bytes.size() < kHeaderBytes + sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' is truncated: " +
        std::to_string(bytes.size()) + " byte(s), need at least " +
        std::to_string(kHeaderBytes + sizeof(uint32_t)));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a Leva snapshot (bad magic)");
  }
  BufferReader reader(bytes);
  {
    std::string_view skip;
    LEVA_RETURN_IF_ERROR(reader.GetBytes(sizeof(kMagic), &skip));
  }
  // Version skew must be reported as such — before any checksum math, whose
  // layout the version itself defines. Version 1 files (element-wise
  // serialized arrays, whole-file trailing CRC) are not readable by this
  // build; the error names both versions so the fix is obvious.
  uint32_t version = 0;
  LEVA_RETURN_IF_ERROR(reader.GetU32(&version));
  if (version != LevaPipeline::kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' has format version " +
        std::to_string(version) + "; this build reads format version " +
        std::to_string(LevaPipeline::kSnapshotVersion) +
        (version < LevaPipeline::kSnapshotVersion
             ? " — re-save the model with this build to upgrade it"
             : ""));
  }
  uint32_t config_hash = 0;
  uint32_t section_count = 0;
  LEVA_RETURN_IF_ERROR(reader.GetU32(&config_hash));
  LEVA_RETURN_IF_ERROR(reader.GetU32(&section_count));
  if (section_count > kMaxSections) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' declares an implausible " +
                                   std::to_string(section_count) +
                                   " sections: corrupt manifest");
  }

  std::unordered_map<std::string, std::string_view> sections;
  std::vector<BulkPages> bulks;
  for (uint32_t i = 0; i < section_count; ++i) {
    std::string name;
    uint8_t kind = 0;
    uint64_t len = 0;
    LEVA_RETURN_IF_ERROR(reader.GetString(&name));
    LEVA_RETURN_IF_ERROR(reader.GetU8(&kind));
    LEVA_RETURN_IF_ERROR(reader.GetU64(&len));
    if (kind == 0) {
      uint32_t crc = 0;
      LEVA_RETURN_IF_ERROR(reader.GetU32(&crc));
      std::string_view payload;
      LEVA_RETURN_IF_ERROR(reader.GetBytes(len, &payload));
      if (Crc32c(payload) != crc) {
        return Status::InvalidArgument("snapshot '" + path + "' section '" +
                                       name + "' failed its checksum");
      }
      sections.emplace(std::move(name), payload);
    } else if (kind == 1) {
      BulkPages b;
      b.name = std::move(name);
      b.payload_len = len;
      LEVA_RETURN_IF_ERROR(reader.GetU64(&b.file_offset));
      LEVA_RETURN_IF_ERROR(reader.GetU64(&b.page_size));
      if (b.page_size < 512 || b.page_size > (uint64_t{1} << 24) ||
          (b.page_size & (b.page_size - 1)) != 0) {
        return Status::InvalidArgument(
            "snapshot '" + path + "' bulk section '" + b.name +
            "' declares invalid page size " + std::to_string(b.page_size));
      }
      const uint64_t pages = (len + b.page_size - 1) / b.page_size;
      // The CRC table is the bulk of the manifest (one u32 per 4 KiB of
      // payload); decode it in one shot rather than per-entry.
      std::string_view crc_bytes;
      LEVA_RETURN_IF_ERROR(
          reader.GetBytes(pages * sizeof(uint32_t), &crc_bytes));
      b.page_crcs.resize(pages);
      std::memcpy(b.page_crcs.data(), crc_bytes.data(), crc_bytes.size());
      bulks.push_back(std::move(b));
    } else {
      return Status::InvalidArgument(
          "snapshot '" + path + "' section '" + name +
          "' has unknown kind " + std::to_string(kind));
    }
  }
  uint32_t manifest_crc = 0;
  LEVA_RETURN_IF_ERROR(reader.GetU32(&manifest_crc));
  const size_t manifest_end = reader.position();
  const uint32_t actual_manifest_crc =
      Crc32c(bytes.data(), manifest_end - sizeof(uint32_t));
  if (manifest_crc != actual_manifest_crc) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' failed its manifest checksum (stored " +
        std::to_string(manifest_crc) + ", computed " +
        std::to_string(actual_manifest_crc) + "): corrupt or torn write");
  }

  // Layout audit: bulk payloads must tile the rest of the file in manifest
  // order — page-aligned, non-overlapping, with only zero bytes between the
  // manifest (or a previous payload's padded end) and the next payload, and
  // nothing after the last one. Combined with the manifest CRC above and the
  // per-page CRCs below, this pins every byte of the file.
  uint64_t cursor = manifest_end;
  for (const BulkPages& b : bulks) {
    if (b.file_offset % b.page_size != 0 || b.file_offset < cursor ||
        b.file_offset > bytes.size()) {
      return Status::InvalidArgument(
          "snapshot '" + path + "' bulk section '" + b.name +
          "' has a misplaced payload (offset " +
          std::to_string(b.file_offset) + ")");
    }
    for (uint64_t i = cursor; i < b.file_offset; ++i) {
      if (bytes[i] != '\0') {
        return Status::InvalidArgument(
            "snapshot '" + path + "' has non-zero padding at offset " +
            std::to_string(i) + ": corrupt");
      }
    }
    const uint64_t padded = RoundUp(b.payload_len, b.page_size);
    if (padded < b.payload_len || b.file_offset + padded < b.file_offset ||
        b.file_offset + padded > bytes.size()) {
      return Status::InvalidArgument(
          "snapshot '" + path + "' bulk section '" + b.name +
          "' overruns the file (offset " + std::to_string(b.file_offset) +
          ", length " + std::to_string(b.payload_len) + ", file size " +
          std::to_string(bytes.size()) + ")");
    }
    cursor = b.file_offset + padded;
  }
  if (cursor != bytes.size()) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' has " +
        std::to_string(bytes.size() - cursor) +
        " trailing byte(s) past the last section: corrupt or truncated");
  }

  // Page verification — the O(model size) part a lazy mmap load defers to
  // VerifyStorage(). Damage is localized to (section, page).
  if (options.verify_pages) {
    LEVA_RETURN_IF_ERROR(
        VerifyPages(bytes.data(), bulks, "snapshot '" + path + "'"));
  }

  const auto section = [&](const char* name) -> Result<std::string_view> {
    const auto it = sections.find(name);
    if (it == sections.end()) {
      return Status::InvalidArgument("snapshot '" + path +
                                     "' is missing required section '" +
                                     std::string(name) + "'");
    }
    return it->second;
  };

  auto state = std::make_shared<LevaPipeline::ServingState>();

  LEVA_ASSIGN_OR_RETURN(std::string_view config_bytes, section("config"));
  if (Crc32c(config_bytes) != config_hash) {
    return Status::InvalidArgument(
        "snapshot '" + path +
        "' config hash does not match its manifest header");
  }
  {
    BufferReader in(config_bytes);
    LEVA_RETURN_IF_ERROR(LoadConfig(&in, &state->config));
  }

  {
    LEVA_ASSIGN_OR_RETURN(std::string_view meta_bytes, section("meta"));
    BufferReader in(meta_bytes);
    uint8_t u8 = 0;
    LEVA_RETURN_IF_ERROR(in.GetU8(&u8));
    LEVA_RETURN_IF_ERROR(CheckEnum(
        u8, static_cast<uint8_t>(EmbeddingMethod::kLine), "chosen method"));
    state->chosen = static_cast<EmbeddingMethod>(u8);
    // v5: the applied-WAL position. Recovery (RecoverFromLog) replays only
    // update-log records past this byte offset.
    LEVA_RETURN_IF_ERROR(in.GetU64(&state->wal_offset));
    LEVA_RETURN_IF_ERROR(in.GetU64(&state->wal_records));
  }

  {
    LEVA_ASSIGN_OR_RETURN(std::string_view b, section("textifier"));
    BufferReader in(b);
    LEVA_RETURN_IF_ERROR(state->textifier.Load(&in));
  }

  // The bulk arrays: zero-copy views for a mapped load, heap copies
  // otherwise. The graph's structural walk is skipped exactly when page
  // verification is skipped (both are the O(model) part of load); the page
  // CRCs written at save time carry the guarantee in that mode.
  LEVA_ASSIGN_OR_RETURN(
      OwnedOrMapped<uint64_t> offsets,
      TakeBulk<uint64_t>(path, bulks, "graph.offsets", region,
                         options.use_mmap));
  LEVA_ASSIGN_OR_RETURN(
      OwnedOrMapped<NodeId> targets,
      TakeBulk<NodeId>(path, bulks, "graph.targets", region,
                       options.use_mmap));
  LEVA_ASSIGN_OR_RETURN(
      OwnedOrMapped<float> weights,
      TakeBulk<float>(path, bulks, "graph.weights", region,
                      options.use_mmap));
  {
    LEVA_ASSIGN_OR_RETURN(std::string_view b, section("graph"));
    BufferReader in(b);
    LEVA_RETURN_IF_ERROR(state->graph.Load(
        &in, std::move(offsets), std::move(targets), std::move(weights),
        /*validate_structure=*/options.verify_pages));
  }
  // The embedding's vector block arrives at the storage tier recorded in the
  // config (the save path wrote both), so the loader knows which bulk
  // sections to take before parsing the embedding metadata; Embedding::Load
  // then cross-checks its own tier byte against the shape of the storage it
  // is handed, so a config/embedding tier mismatch is rejected.
  EmbeddingStorage storage;
  switch (state->config.quantize_tier) {
    case StorageTier::kBf16: {
      LEVA_ASSIGN_OR_RETURN(storage.bf16,
                            TakeBulk<uint16_t>(path, bulks, "embedding.bf16",
                                               region, options.use_mmap));
      break;
    }
    case StorageTier::kInt8: {
      LEVA_ASSIGN_OR_RETURN(storage.q8,
                            TakeBulk<int8_t>(path, bulks, "embedding.q8",
                                             region, options.use_mmap));
      LEVA_ASSIGN_OR_RETURN(storage.scales,
                            TakeBulk<float>(path, bulks, "embedding.scales",
                                            region, options.use_mmap));
      break;
    }
    case StorageTier::kFp64: {
      LEVA_ASSIGN_OR_RETURN(storage.fp64,
                            TakeBulk<double>(path, bulks, "embedding.data",
                                             region, options.use_mmap));
      break;
    }
  }
  {
    LEVA_ASSIGN_OR_RETURN(std::string_view b, section("embedding"));
    BufferReader in(b);
    LEVA_RETURN_IF_ERROR(state->embedding.Load(&in, std::move(storage)));
  }

  state->Finish();
  if (const auto it = sections.find("resolver"); it != sections.end()) {
    BufferReader in(it->second);
    LEVA_RETURN_IF_ERROR(state->resolver.Load(&in));
  }

  if (options.use_mmap) {
    // Keep the mapping (the stores borrow from it) and the page-CRC table
    // so VerifyStorage can run the deferred integrity check on demand.
    state->region = std::move(region);
    state->bulk_pages = std::move(bulks);
  }
  return state;
}

}  // namespace

Status LevaPipeline::SaveSnapshot(const std::string& path, Env* env) const {
  const std::shared_ptr<const ServingState> state =
      serving_.load();
  if (state == nullptr) {
    return Status::FailedPrecondition(
        "cannot snapshot an unfitted pipeline: call Fit first");
  }
  // Default: the tier the served model's config asks for, so a fit-then-save
  // honors the configured --quantize and a load-then-save round-trips the
  // snapshot's own tier.
  return SaveSnapshot(path, state->config.quantize_tier, env);
}

Status LevaPipeline::SaveSnapshot(const std::string& path, StorageTier tier,
                                  Env* env) const {
  const std::shared_ptr<const ServingState> state =
      serving_.load();
  if (state == nullptr) {
    return Status::FailedPrecondition(
        "cannot snapshot an unfitted pipeline: call Fit first");
  }
  const ServingState& s = *state;
  if (env == nullptr) env = Env::Default();

  // Compact-on-save: the graph section serializes base CSR arrays only, so a
  // model carrying streaming-update delta segments is folded into a single
  // CSR off to the side first (node ids preserved, weights repaired to
  // 1/deg when the graph is weighted). The served graph is never touched.
  LevaGraph compacted_graph;
  const LevaGraph* graph_ptr = &s.graph;
  if (s.graph.HasDelta()) {
    LEVA_ASSIGN_OR_RETURN(compacted_graph,
                          s.graph.Compacted(s.config.graph.weighted));
    graph_ptr = &compacted_graph;
  }
  const LevaGraph& g = *graph_ptr;

  // Quantize-on-save: when the served store is not already at the requested
  // tier, re-encode a private copy off to the side (the serving store is
  // immutable). The bulk sections below then point at whichever store holds
  // the bytes being written.
  Embedding requantized;
  const Embedding* emb = &s.embedding;
  if (s.embedding.tier() != tier) {
    requantized = s.embedding.WithTier(tier);
    emb = &requantized;
  }
  // The serialized config records the tier actually written, so the loader
  // (and any subsequent re-save) sees this snapshot's true precision.
  LevaConfig saved_config = s.config;
  saved_config.quantize_tier = tier;

  BufferWriter config;
  SaveConfig(saved_config, &config);
  BufferWriter textifier;
  s.textifier.Save(&textifier);
  BufferWriter graph;
  g.Save(&graph);
  BufferWriter embedding;
  emb->Save(&embedding);
  BufferWriter meta;
  meta.PutU8(static_cast<uint8_t>(s.chosen));
  meta.PutU64(s.wal_offset);
  meta.PutU64(s.wal_records);
  // The warm serving cache rides along; it resolves against the very stores
  // serialized above, so it is always coherent with them. The section is
  // optional on load (a cold cache is functionally identical) but still
  // CRC-framed like every other section.
  BufferWriter resolver;
  {
    std::lock_guard<std::mutex> lock(s.resolver_mu);
    s.resolver.Save(&resolver);
  }

  // The big arrays leave as raw page-aligned bytes: their in-memory layout
  // (little-endian, fixed-width) IS the on-disk format, so a loader can map
  // them in place.
  std::vector<BulkSpec> bulks;
  bulks.push_back(MakeBulk<uint64_t>("graph.offsets", g.offsets()));
  bulks.push_back(MakeBulk<NodeId>("graph.targets", g.targets()));
  bulks.push_back(MakeBulk<float>("graph.weights", g.edge_weights()));
  switch (tier) {
    case StorageTier::kBf16:
      bulks.push_back(MakeBulk<uint16_t>("embedding.bf16", emb->bf16_data()));
      break;
    case StorageTier::kInt8:
      bulks.push_back(MakeBulk<int8_t>("embedding.q8", emb->int8_data()));
      bulks.push_back(MakeBulk<float>("embedding.scales", emb->scales()));
      break;
    case StorageTier::kFp64:
      bulks.push_back(MakeBulk<double>("embedding.data", emb->data()));
      break;
  }

  const uint32_t config_hash = Crc32c(config.data());
  const auto emit_manifest = [&](const std::vector<uint64_t>& offsets) {
    BufferWriter m;
    m.PutBytes(kMagic, sizeof(kMagic));
    m.PutU32(kSnapshotVersion);
    m.PutU32(config_hash);
    m.PutU32(static_cast<uint32_t>(6 + bulks.size()));
    AppendInlineSection("config", config.data(), &m);
    AppendInlineSection("meta", meta.data(), &m);
    AppendInlineSection("textifier", textifier.data(), &m);
    AppendInlineSection("graph", graph.data(), &m);
    AppendInlineSection("embedding", embedding.data(), &m);
    AppendInlineSection("resolver", resolver.data(), &m);
    for (size_t i = 0; i < bulks.size(); ++i) {
      m.PutString(bulks[i].name);
      m.PutU8(1);  // kind: bulk
      m.PutU64(bulks[i].len);
      m.PutU64(offsets[i]);
      m.PutU64(kPageSize);
      for (const uint32_t crc : bulks[i].page_crcs) m.PutU32(crc);
    }
    return m;
  };

  // Bulk offsets depend on the manifest's size, which is independent of the
  // offset *values* (fixed-width u64s) — so lay out against a probe pass,
  // then emit for real.
  std::vector<uint64_t> offsets(bulks.size(), 0);
  const size_t manifest_len =
      emit_manifest(offsets).size() + sizeof(uint32_t);  // + manifest CRC
  uint64_t cursor = RoundUp(manifest_len, kPageSize);
  for (size_t i = 0; i < bulks.size(); ++i) {
    offsets[i] = cursor;
    cursor += RoundUp(bulks[i].len, kPageSize);
  }
  BufferWriter manifest = emit_manifest(offsets);
  manifest.PutU32(Crc32c(manifest.data()));
  manifest.AlignTo(kPageSize);

  // Stream the manifest and the raw arrays straight to the temp file — the
  // bulk payloads are never copied into an assembly buffer.
  static const std::string zeros(kPageSize, '\0');
  std::vector<std::string_view> chunks;
  chunks.reserve(1 + 2 * bulks.size());
  chunks.push_back(manifest.data());
  for (const BulkSpec& b : bulks) {
    if (b.len > 0) chunks.push_back(std::string_view(b.data, b.len));
    const uint64_t pad = RoundUp(b.len, kPageSize) - b.len;
    if (pad > 0) chunks.push_back(std::string_view(zeros.data(), pad));
  }
  return AtomicWriteChunks(env, path, chunks);
}

Status LevaPipeline::LoadSnapshot(const std::string& path, Env* env,
                                  SnapshotLoadOptions options) {
  if (env == nullptr) env = Env::Default();
  LEVA_ASSIGN_OR_RETURN(std::shared_ptr<ServingState> state,
                        LoadState(path, env, options));
  // Full restore: the pipeline behaves as if it had been constructed with
  // the snapshot's config and fitted. (ReloadSnapshot, by contrast, swaps
  // only the model.)
  config_ = state->config;
  serving_threads_.store(config_.threads, std::memory_order_relaxed);
  serving_batch_.store(config_.featurize_batch_size,
                       std::memory_order_relaxed);
  serving_.store(std::move(state));
  return Status::OK();
}

Status LevaPipeline::ReloadSnapshot(const std::string& path, Env* env,
                                    SnapshotLoadOptions options) {
  if (env == nullptr) env = Env::Default();
  // The whole load runs against shadow state; nothing this pipeline serves
  // is touched until the single atomic publish below. Featurize calls in
  // flight hold shared_ptr references to the old state and finish on it; the
  // old model (and any mmap region backing it) is destroyed when the last
  // such reference drops.
  LEVA_ASSIGN_OR_RETURN(std::shared_ptr<ServingState> state,
                        LoadState(path, env, options));
  if (options.require_same_tier) {
    const std::shared_ptr<const ServingState> current = serving_.load();
    if (current != nullptr &&
        current->embedding.tier() != state->embedding.tier()) {
      return Status::FailedPrecondition(
          "snapshot '" + path + "' stores the embedding at tier " +
          StorageTierName(state->embedding.tier()) +
          " but this pipeline currently serves tier " +
          StorageTierName(current->embedding.tier()) +
          "; the incumbent model keeps serving — re-save the snapshot at the "
          "serving tier, or reload without the same-tier requirement to "
          "change precision deliberately");
    }
  }
  serving_.store(std::move(state));
  return Status::OK();
}

Status LevaPipeline::VerifyStorage() const {
  const std::shared_ptr<const ServingState> state =
      serving_.load();
  if (state == nullptr) {
    return Status::FailedPrecondition("pipeline is not fitted");
  }
  if (state->region == nullptr) return Status::OK();  // nothing mapped
  return VerifyPages(state->region->data(), state->bulk_pages,
                     "mapped snapshot");
}

}  // namespace leva
