#ifndef LEVA_CORE_PIPELINE_H_
#define LEVA_CORE_PIPELINE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/storage.h"
#include "core/token_resolver.h"
#include "embed/embedding.h"
#include "embed/line.h"
#include "embed/mf.h"
#include "embed/walks.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "ml/dataset.h"
#include "ml/featurize.h"
#include "table/table.h"
#include "text/textifier.h"

namespace leva {

class UpdateLog;
struct UpdateRecord;

/// Which embedding method the construction stage uses (Section 4.2).
enum class EmbeddingMethod {
  kAuto,                 ///< MF when the estimated memory fits, else RW
  kMatrixFactorization,  ///< randomized SVD of the proximity matrix
  kRandomWalk,           ///< random walks + Word2Vec
  kLine,                 ///< LINE-style edge sampling (plug-in extension)
};

/// How Base-Table rows are featurized at deployment (Section 4.4).
enum class Featurization {
  kRowOnly,       ///< the row-node embedding
  kRowPlusValue,  ///< row embedding ++ mean of adjacent value-node embeddings
};

/// End-to-end configuration (Table 2 defaults).
struct LevaConfig {
  TextifyOptions textify;
  GraphOptions graph;
  EmbeddingMethod method = EmbeddingMethod::kAuto;
  size_t embedding_dim = 100;
  Featurization featurization = Featurization::kRowPlusValue;
  /// Memory budget steering the kAuto MF/RW decision.
  size_t memory_budget_bytes = size_t{1} << 30;
  WalkOptions walks;
  Word2VecOptions word2vec;
  MfOptions mf;
  LineOptions line;
  uint64_t seed = 42;
  /// Worker threads for every parallel stage (walk generation, Word2Vec,
  /// SVD matmuls, batched featurization). 0 = every CPU in the process's
  /// affinity mask (ResolveThreads). Every stage produces bit-identical
  /// results at any thread count for a fixed seed.
  size_t threads = 0;
  /// Rows per serving batch in Featurize: tokens are textified, interned, and
  /// resolved batch by batch, bounding the textified-column working set on
  /// huge tables (the resolver cache itself is bounded by an eviction cap).
  /// 0 = the whole table as one batch. Output is identical for any value.
  size_t featurize_batch_size = 0;
  /// Storage tier SaveSnapshot writes the embedding matrix at (and therefore
  /// the tier a loaded snapshot serves from — dequantization is fused into
  /// the featurize gather, no fp64 matrix is ever materialized). Fitting is
  /// always fp64; quantization happens at save time. Recorded in the
  /// snapshot's serialized config.
  StorageTier quantize_tier = StorageTier::kFp64;
};

/// What one LevaPipeline has done since it was constructed (Fig. 6b/6c and
/// the serving counters). Every field is cumulative and recorded with
/// relaxed atomics, so concurrent Featurize calls sum into it.
struct PipelineMetrics {
  /// Whole Fit calls, then one span per Fit stage: MF factorizes, LINE
  /// samples edges, RW generates walks and trains on them.
  metrics::Histogram fit, textify, graph, factorization, edge_sampling,
      walk_generation, embedding_training, deploy_index;
  /// Whole Featurize calls, failed ones included.
  metrics::Histogram featurize;
  /// Featurize work, counted per batch once its tokens are resolved.
  /// `distinct_tokens` counts the tokens newly resolved, each with one probe
  /// of the embedding/graph stores; on a warm resolver cache it stops
  /// growing.
  std::atomic<uint64_t> featurize_rows{0};
  std::atomic<uint64_t> featurize_batches{0};
  std::atomic<uint64_t> token_occurrences{0};
  std::atomic<uint64_t> distinct_tokens{0};

  /// The Fit stages in pipeline order, by their Fig. 6b/6c names; a stage
  /// the chosen method skips has count() 0.
  std::array<std::pair<const char*, const metrics::Histogram*>, 7> FitStages()
      const {
    return {{{"textify", &textify},
             {"graph", &graph},
             {"factorization", &factorization},
             {"edge_sampling", &edge_sampling},
             {"walk_generation", &walk_generation},
             {"embedding_training", &embedding_training},
             {"deploy_index", &deploy_index}}};
  }
};

/// Outcome of one LevaPipeline::Update batch (or one replayed WAL record).
struct UpdateResult {
  size_t rows_applied = 0;
  size_t new_row_nodes = 0;
  size_t new_value_nodes = 0;
  /// Undirected edges appended to the graph's delta segment.
  size_t new_edges = 0;
  /// Embedding rows written back (new nodes plus touched existing nodes).
  size_t refreshed_vectors = 0;
  /// Delta segments were merged into the base CSR (ratio policy, or the
  /// full-refit path below, which always compacts).
  bool compacted = false;
  /// The chosen method cannot continue training incrementally (MF/LINE), so
  /// the whole graph was re-embedded from scratch.
  bool full_refit = false;
  /// WAL byte offset acknowledging this batch (0 when no log was attached).
  /// A snapshot saved now records it, so recovery replays only later records.
  uint64_t wal_offset = 0;
};

/// How LoadSnapshot/ReloadSnapshot materialize a snapshot's bulk arrays
/// (the embedding matrix and the graph's CSR adjacency).
struct SnapshotLoadOptions {
  /// Map the snapshot file (Env::NewMmapReadableFile) and serve the bulk
  /// arrays as zero-copy views into it, instead of copying them onto the
  /// heap. Load cost becomes O(metadata) and N processes serving the same
  /// snapshot share one physical copy of its pages.
  bool use_mmap = false;
  /// Verify the per-page CRCs of every bulk section (and the components'
  /// structural invariants) at load time. Touches every page — O(model
  /// size) — so the zero-copy fast path turns it off and relies on the
  /// save-time page checksums staying valid on disk; VerifyStorage() runs
  /// the deferred check on demand.
  bool verify_pages = true;
  /// ReloadSnapshot only: reject the swap (leaving the incumbent model
  /// serving) when the snapshot's embedding storage tier differs from the
  /// currently served one. Mixed-tier swaps are fully supported — this is an
  /// operator guard (leva_cli --reload-model sets it) against silently
  /// changing the serving precision of a live endpoint.
  bool require_same_tier = false;
};

/// The Leva system (Fig. 2): textification -> graph construction ->
/// refinement -> embedding construction -> deployment. Fit consumes the
/// whole database (which must contain the Base Table, minus any held-out
/// test rows); Featurize turns Base-Table slices into training datasets.
///
/// Concurrency: Featurize may be called from
/// any number of threads concurrently, and concurrently with ReloadSnapshot
/// and set_serving_options. Each call snapshots the current fitted model (an
/// atomically published, immutable ServingState) at entry and runs against
/// it to completion, so a reload mid-call never mixes models. Fit and
/// LoadSnapshot require external exclusion (LoadSnapshot resets the serving
/// knobs); accessors returning references (embedding(), graph(),
/// textifier()) are valid until the next successful Fit/Load/ReloadSnapshot.
/// The publication point for an immutable, shared model: writers swap in a
/// fresh shared_ptr, readers pin whatever is current and keep it alive for
/// the duration of their call (RCU by refcount). Semantically this is
/// std::atomic<std::shared_ptr<T>>, but libstdc++ 12's _Sp_atomic unlocks
/// its spinlock with relaxed ordering in load(), which ThreadSanitizer
/// reports as a race against store(); a plain mutex around the two-refcount
/// critical section has identical semantics, is sanitizer-clean, and is
/// invisible next to the cost of a Featurize call.
template <typename T>
class SharedPtrSlot {
 public:
  SharedPtrSlot() = default;

  std::shared_ptr<T> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  void store(std::shared_ptr<T> next) {
    // Swap under the lock, destroy outside it: a retired model's destructor
    // (potentially unmapping gigabytes) must not stall concurrent pins.
    std::shared_ptr<T> retired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired = std::move(state_);
      state_ = std::move(next);
    }
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> state_;
};

class LevaPipeline {
 public:
  explicit LevaPipeline(LevaConfig config = {})
      : config_(std::move(config)),
        serving_threads_(config_.threads),
        serving_batch_(config_.featurize_batch_size) {}

  // Copies (and moves) share the fitted model: it is immutable once
  // published, so both pipelines serve identical results and the resolver
  // cache stays warm across the copy. A copy starts with empty metrics.
  LevaPipeline(const LevaPipeline& other)
      : config_(other.config_),
        serving_threads_(
            other.serving_threads_.load(std::memory_order_relaxed)),
        serving_batch_(other.serving_batch_.load(std::memory_order_relaxed)) {
    serving_.store(other.serving_.load());
  }
  LevaPipeline& operator=(const LevaPipeline& other) {
    if (this == &other) return *this;
    config_ = other.config_;
    serving_threads_.store(
        other.serving_threads_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    serving_batch_.store(other.serving_batch_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    serving_.store(other.serving_.load());
    return *this;
  }
  LevaPipeline(LevaPipeline&& other) noexcept
      : LevaPipeline(static_cast<const LevaPipeline&>(other)) {}
  LevaPipeline& operator=(LevaPipeline&& other) noexcept {
    return *this = static_cast<const LevaPipeline&>(other);
  }

  /// One page-aligned bulk section of an open snapshot: where its payload
  /// lives in the file and the CRC32C of each of its (padded) pages, kept so
  /// a lazily loaded model can be re-verified on demand (VerifyStorage).
  struct BulkPages {
    std::string name;
    uint64_t file_offset = 0;
    uint64_t page_size = 0;
    uint64_t payload_len = 0;  // unpadded bytes
    std::vector<uint32_t> page_crcs;
  };

  /// The immutable fitted model plus its warm serving cache — everything a
  /// Featurize call needs. Published through an atomic shared_ptr: readers
  /// pin the state they started with, ReloadSnapshot swaps in a fresh one,
  /// and the old model (and any snapshot mapping backing it) is torn down
  /// when the last in-flight call drops its reference.
  struct ServingState {
    LevaConfig config;  // the configuration the model was fitted under
    Textifier textifier;
    LevaGraph graph;
    Embedding embedding;
    EmbeddingMethod chosen = EmbeddingMethod::kAuto;
    // Pure function of (dim, featurization); rendered by Finish.
    std::vector<std::string> feature_names;
    // Set only for mmap-backed loads: the mapping the stores borrow from,
    // and the page-CRC table for deferred verification.
    std::shared_ptr<const MappedRegion> region;
    std::vector<BulkPages> bulk_pages;
    // WAL position this model is consistent with: every log record up to
    // byte `wal_offset` (`wal_records` of them) is applied, none past it.
    // Snapshot v5 persists the pair, so a reload knows where replay resumes.
    uint64_t wal_offset = 0;
    uint64_t wal_records = 0;
    // Serving-side token cache shared across Featurize calls on this model.
    // Resolution is a pure function of the stores above, so the cache lives
    // (and dies) with them. Guarded: the sequential resolve phase of each
    // batch runs under the mutex; the parallel gather phase only reads.
    mutable std::mutex resolver_mu;
    mutable TokenResolver resolver{nullptr, nullptr, false};

    /// The last step of every path that builds a model (Fit, snapshot load,
    /// Update): binds an empty resolver cache to this state's stores — whose
    /// addresses stay put, the state being heap-allocated and immutable once
    /// published — and renders the feature names. Callers that carry a warm
    /// cache over load or copy it in afterwards.
    void Finish();
  };

  /// Runs stages 1-4 over `db`. Test data must not be part of `db`
  /// (Section 2.4). Builds the whole model off to the side and publishes it
  /// only on success: a failed Fit leaves the previous model serving.
  Status Fit(const Database& db);

  /// Streaming ingest (the crash-safe incremental alternative to a full
  /// re-Fit): appends `new_rows` — a batch of fresh rows for a table the
  /// model was fitted on — to the served model. The batch is first made
  /// durable in `log` (append + fsync; the acknowledgment point), then
  /// applied to a successor model built entirely off to the side: the frozen
  /// textifier tokenizes the rows, the graph grows by one row node per row
  /// plus value nodes/edges in its delta segment (base CSR untouched — it
  /// may be an mmap view), and the embedding is refreshed warm — under the
  /// random-walk method, walks seeded at the new/touched nodes continue SGNS
  /// training from the served vectors and only those nodes' rows are
  /// rewritten; MF/LINE cannot train incrementally, so they compact and
  /// re-embed (UpdateResult::full_refit). The resolver cache carries over
  /// with only the touched tokens re-resolved. Publication is the same
  /// atomic swap ReloadSnapshot uses: concurrent Featurize calls see either
  /// the old model or the new one, never a half-applied delta; on any error
  /// the incumbent keeps serving untouched (though an acknowledged record
  /// stays in the log and will re-apply on recovery).
  ///
  /// `log` may be null (apply without durability — replay and tests).
  /// Requires the same external exclusion as Fit against other writers;
  /// readers need none. Deterministic: the refresh RNG is seeded from the
  /// config seed and the record index, so replaying the same log from the
  /// same snapshot reproduces the same model.
  Result<UpdateResult> Update(const Table& new_rows, UpdateLog* log = nullptr);

  /// Replays every WAL record past the served model's recorded position
  /// (ServingState::wal_offset — what the snapshot stored) through the same
  /// apply path as Update, publishing once at the end. Returns the number of
  /// records applied. Idempotent: a second call finds the position already
  /// at the log's end and applies nothing, and re-running recovery from the
  /// same snapshot yields a byte-identical model (the per-record RNG seeds
  /// depend only on the record index). A torn trailing record — a crash
  /// mid-append, never acknowledged — is skipped cleanly.
  Result<size_t> RecoverFromLog(const std::string& wal_path,
                                Env* env = nullptr);

  /// Deploys the embedding on `table` (stage 5). When `rows_in_graph` is
  /// true, row i maps to the row node "<table>:<i>" created at Fit time;
  /// otherwise (held-out data) each row's vector is composed from the value
  /// node embeddings of its textified tokens, with unseen numeric values
  /// falling into existing histogram bins and unseen strings contributing
  /// nothing (the paper's unseen-data handling).
  ///
  /// This is the batched serving fast path: columns are textified in one
  /// pass per batch (Textifier::TransformColumn), each distinct token is
  /// resolved to (embedding row id, inverse-degree weight) once across the
  /// model's lifetime (a persistent TokenResolver cache — resolution is a
  /// pure function of the fitted stores), and rows are gathered into the
  /// MLDataset matrix by a cache-blocked ParallelFor with no per-row
  /// allocation. Output is bit-identical to the row-at-a-time oracle
  /// (tests/reference/featurize_reference.h) at any thread count / batch
  /// size. An empty `target_column` means the table has no label: every
  /// column is featurized and `y` stays zero. Records the call and its work
  /// in metrics(); safe to call concurrently (see the class comment).
  Result<MLDataset> Featurize(const Table& table,
                              const std::string& target_column,
                              const TargetEncoder& encoder,
                              bool rows_in_graph) const;

  const Embedding& embedding() const { return state_or_empty().embedding; }
  const LevaGraph& graph() const { return state_or_empty().graph; }
  const Textifier& textifier() const { return state_or_empty().textifier; }
  EmbeddingMethod chosen_method() const { return state_or_empty().chosen; }
  /// Fit and Featurize timings and counters since construction.
  const PipelineMetrics& metrics() const { return metrics_; }
  /// The configuration this pipeline was constructed with (Fit's recipe);
  /// replaced wholesale by LoadSnapshot. Serving-knob overrides applied via
  /// set_serving_options are tracked separately and not reflected here.
  const LevaConfig& config() const { return config_; }

  /// Retunes the serving-only knobs (they never affect the fitted state,
  /// only how Featurize schedules its work). Safe to call while Featurize
  /// runs: calls already in flight keep their scheduling, later calls pick
  /// up the new values.
  void set_serving_options(size_t threads, size_t featurize_batch_size) {
    serving_threads_.store(threads, std::memory_order_relaxed);
    serving_batch_.store(featurize_batch_size, std::memory_order_relaxed);
  }

  /// Writes the whole fitted pipeline (config, textifier, graph, embedding,
  /// warm resolver cache) to `path` as one versioned, checksummed snapshot,
  /// crash-atomically: the bytes land under a temp name and are fsync'ed
  /// before a rename over `path`, so a crash at any point leaves either the
  /// previous snapshot or the new one — never a torn file. The big arrays
  /// (embedding matrix, CSR adjacency) are written as page-aligned bulk
  /// sections with per-page CRC32C so a loader can mmap them in place. A
  /// loaded snapshot serves Featurize bit-identically to this pipeline.
  /// `env` defaults to the real filesystem; tests pass a FaultInjectionEnv.
  /// The embedding matrix is written at the served config's quantize_tier,
  /// quantizing on the fly when that differs from the served tier (the
  /// serving store is never touched); the tier actually written is recorded
  /// in the snapshot's config. The explicit-tier overload requantizes to
  /// `tier` regardless of the config (leva_cli --quantize on a loaded
  /// model).
  Status SaveSnapshot(const std::string& path, Env* env = nullptr) const;
  Status SaveSnapshot(const std::string& path, StorageTier tier,
                      Env* env = nullptr) const;

  /// Restores a pipeline saved by SaveSnapshot, replacing this pipeline's
  /// state and marking it fitted (serving can skip Fit entirely). Every
  /// checksum (per-page for bulk sections), the format version, and — when
  /// `options.verify_pages` — the structural invariants of each component
  /// are validated before any member is touched: a corrupt, truncated, or
  /// version-skewed file is rejected with a descriptive error and the
  /// pipeline is left exactly as it was. Also resets the serving knobs to
  /// the snapshot's configuration, so it requires the same external
  /// exclusion as Fit; use ReloadSnapshot to swap models under live traffic.
  Status LoadSnapshot(const std::string& path, Env* env = nullptr,
                      SnapshotLoadOptions options = {});

  /// Hot model swap: loads `path` into a shadow model and atomically
  /// publishes it. Featurize calls already in flight finish on the model
  /// they started with; calls entering afterwards see the new one. Nothing
  /// else on the pipeline is touched — metrics keep accumulating and the
  /// serving knobs keep their current values. On error the previous model
  /// keeps serving untouched.
  Status ReloadSnapshot(const std::string& path, Env* env = nullptr,
                        SnapshotLoadOptions options = {});

  /// Verifies the per-page CRCs of the currently served model's mapped bulk
  /// sections — the check a lazy load (verify_pages = false) deferred.
  /// Returns OK for a model with no mapped storage (fitted, or loaded by
  /// copy). Names the section and page index of the first mismatch.
  Status VerifyStorage() const;

  /// True when the served model's bulk arrays are views into a mapped
  /// snapshot region rather than owned heap copies.
  bool uses_mmap() const {
    const std::shared_ptr<const ServingState> s = serving_.load();
    return s != nullptr && s->region != nullptr;
  }

  /// The MF options a `config` model embeds with at `dim` columns and
  /// `threads` workers. Fit's MF-vs-RW estimate, Fit's MF stage and
  /// Update's MF refit all read them from here.
  static MfOptions MfStageOptions(const LevaConfig& config, size_t dim,
                                  size_t threads);

  /// Snapshot format version written by SaveSnapshot. Version 2 introduced
  /// page-aligned, per-page-checksummed bulk sections (mmap-able); version 3
  /// added the walk engine selection fields to the serialized config;
  /// version 4 added quantized embedding storage tiers (the tier byte in the
  /// config and embedding sections, and per-tier bulk sections); version 5
  /// added the applied-WAL position (offset + record count) to the meta
  /// section so recovery after a crash replays exactly the unapplied tail of
  /// the update log; version 6 dropped the walk engine fields from the
  /// config again (one walk engine remains); version 7 dropped the SGNS
  /// trainer selection bool (one trainer remains). Older versions are
  /// rejected with an error naming both versions.
  static constexpr uint32_t kSnapshotVersion = 7;

 private:
  // Stage 4 (Section 4.2): embeds every node of `graph` with `method` (MF,
  // LINE, or RW walks + SGNS) at `dim` columns — MF may return fewer — and
  // returns the vectors indexed by node id. Fit and Update's full refit both
  // embed through here; only Fit passes `metrics`, so the stage spans count
  // Fit calls alone.
  static Result<Matrix> EmbedGraph(const LevaGraph& graph,
                                   const LevaConfig& config,
                                   EmbeddingMethod method, size_t dim,
                                   size_t threads, Rng* rng,
                                   PipelineMetrics* metrics);

  // The walk and SGNS options every RW embedding of a `config` model uses.
  static std::pair<WalkOptions, Word2VecOptions> RandomWalkOptions(
      const LevaConfig& config, size_t dim, size_t threads);

  // Builds the successor ServingState for one update batch (shared by Update
  // and RecoverFromLog — the latter passes the replayed record's position).
  // Pure with respect to the pipeline: nothing is published here.
  Result<std::shared_ptr<const ServingState>> ApplyUpdateBatch(
      const ServingState& s, const Table& new_rows, uint64_t wal_offset,
      uint64_t wal_records, UpdateResult* result) const;

  /// The published model, or a static empty state so accessors on an
  /// unfitted pipeline return empty components instead of crashing.
  const ServingState& state_or_empty() const;

  LevaConfig config_;
  // The fitted model. Null until the first successful Fit/LoadSnapshot.
  SharedPtrSlot<const ServingState> serving_;
  // Serving knobs, split out of config_ so set_serving_options can retune
  // them while Featurize calls are in flight.
  std::atomic<size_t> serving_threads_;
  std::atomic<size_t> serving_batch_;
  mutable PipelineMetrics metrics_;
};

}  // namespace leva

#endif  // LEVA_CORE_PIPELINE_H_
