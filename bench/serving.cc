// Quantized zero-copy serving benchmark: snapshot footprint, load latency,
// post-load resident memory, and featurize bandwidth across the storage-tier
// x load-mode matrix — {fp64, bf16, int8} x {heap, mmap eager, mmap lazy}.
//
// Each (tier, mode) cell runs in a forked child so one process's page cache /
// heap does not pollute the next cell's RSS reading; the child reports its
// numbers (plus a CRC of its Featurize output, proving every load mode of a
// tier serves the same function) over a pipe. The parent prints the
// EXPERIMENTS.md tables.
//
// Expected shape: int8 shrinks the snapshot and the heap-load RSS delta by
// >= 3.5x vs fp64 (dim >> 4 makes the embedding dominate both), every tier's
// lazy mmap load is near O(1), and featurize bandwidth — GiB/s of embedding
// bytes actually touched by the gather — drops with bytes/row while rows/sec
// holds, which is the entire point of serving quantized.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace leva {
namespace {

constexpr size_t kStudents = 2000;
constexpr size_t kDim = 256;
constexpr int kLoadRepeats = 5;
constexpr int kFeaturizeRepeats = 3;

struct ModeReport {
  double load_secs = 0;        // best of kLoadRepeats
  double rss_before_mib = 0;   // just before the measured load
  double rss_after_mib = 0;    // after load + one Featurize
  double featurize_secs = 0;   // best of kFeaturizeRepeats
  uint64_t bytes_touched = 0;  // embedding bytes the gather read per pass
  uint64_t rows = 0;           // featurized rows per pass
  uint32_t featurize_crc = 0;  // CRC32C of the featurized matrix bytes
};

struct Mode {
  const char* name;
  bool use_mmap;
  bool verify_pages;
};

constexpr Mode kModes[] = {
    {"heap", false, true},
    {"mmap eager", true, true},
    {"mmap lazy", true, false},
};

constexpr StorageTier kTiers[] = {StorageTier::kFp64, StorageTier::kBf16,
                                  StorageTier::kInt8};

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs one (tier snapshot, load mode) cell start-to-finish; called inside
// the forked child.
ModeReport MeasureMode(const std::string& path, const Mode& mode,
                       const SyntheticDataset& ds,
                       const TargetEncoder& encoder) {
  SnapshotLoadOptions opts;
  opts.use_mmap = mode.use_mmap;
  opts.verify_pages = mode.verify_pages;

  ModeReport r;
  r.rss_before_mib = CurrentRssBytes() / (1024.0 * 1024.0);
  r.load_secs = 1e30;
  LevaPipeline p;
  for (int i = 0; i < kLoadRepeats; ++i) {
    LevaPipeline fresh;
    const auto t0 = std::chrono::steady_clock::now();
    bench::CheckOk(fresh.LoadSnapshot(path, nullptr, opts), mode.name);
    const double s = Secs(t0);
    if (s < r.load_secs) r.load_secs = s;
    p = std::move(fresh);
  }

  const Table* base = ds.db.FindTable(ds.base_table);
  r.featurize_secs = 1e30;
  const PipelineMetrics& m = p.metrics();
  for (int i = 0; i < kFeaturizeRepeats; ++i) {
    const uint64_t rows_before = m.featurize_rows.load();
    const uint64_t occurrences_before = m.token_occurrences.load();
    const auto t0 = std::chrono::steady_clock::now();
    auto features =
        bench::CheckOk(p.Featurize(*base, ds.target_column, encoder,
                                   /*rows_in_graph=*/true),
                       "featurize");
    const double s = Secs(t0);
    if (s < r.featurize_secs) r.featurize_secs = s;
    if (i == 0) {
      r.featurize_crc =
          Crc32c(features.x.data().data(),
                 features.x.data().size() * sizeof(double));
      // Embedding bytes one serving pass read at this tier: one row of
      // storage per token occurrence gathered, plus one per in-graph row
      // vector copied out of the store.
      r.rows = m.featurize_rows.load() - rows_before;
      r.bytes_touched =
          (m.token_occurrences.load() - occurrences_before + r.rows) *
          p.embedding().bytes_per_row();
    }
  }
  r.rss_after_mib = CurrentRssBytes() / (1024.0 * 1024.0);
  return r;
}

// Forks, measures `mode` in the child, and ships the report back via pipe.
ModeReport MeasureInChild(const std::string& path, const Mode& mode,
                          const SyntheticDataset& ds,
                          const TargetEncoder& encoder) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    const ModeReport r = MeasureMode(path, mode, ds, encoder);
    const ssize_t n = ::write(fds[1], &r, sizeof(r));
    ::close(fds[1]);
    ::_exit(n == sizeof(r) ? 0 : 1);
  }
  ::close(fds[1]);
  ModeReport r;
  const ssize_t n = ::read(fds[0], &r, sizeof(r));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != sizeof(r) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FATAL: child for mode '%s' failed\n", mode.name);
    std::exit(1);
  }
  return r;
}

// Downstream quality of one tier: train the paper's regressor on the
// tier-served features and score it on the same rows (the deltas between
// tiers are what matters, not the absolute fit).
double DownstreamR2(const std::string& path, const SyntheticDataset& ds,
                    const TargetEncoder& encoder) {
  LevaPipeline p;
  bench::CheckOk(p.LoadSnapshot(path), "r2 load");
  const Table* base = ds.db.FindTable(ds.base_table);
  auto features = bench::CheckOk(
      p.Featurize(*base, ds.target_column, encoder, /*rows_in_graph=*/true),
      "r2 featurize");
  ElasticNetOptions opts;
  opts.epochs = 40;
  LinearRegressor model(opts);
  Rng rng(17);
  bench::CheckOk(model.Fit(features.x, features.y, &rng), "r2 fit");
  return R2Score(features.y, model.Predict(features.x));
}

void Run() {
  std::printf("== Quantized zero-copy serving: footprint, load latency, RSS, "
              "featurize bandwidth (bench/serving) ==\n");
  auto ds = bench::CheckOk(GenerateStudent(kStudents, 0, 3), "generate");
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = kDim;
  config.seed = 5;
  LevaPipeline fitted(config);
  const auto t_fit = std::chrono::steady_clock::now();
  bench::CheckOk(fitted.Fit(ds.db), "fit");
  std::printf("model: %zu students, dim %zu, %zu vectors, fit %.1fs\n",
              kStudents, kDim, fitted.embedding().size(), Secs(t_fit));

  const Table* base = ds.db.FindTable(ds.base_table);
  TargetEncoder encoder;
  bench::CheckOk(encoder.Fit(*base->FindColumn(ds.target_column), false),
                 "target");

  // One snapshot per tier, quantized at save time from the same fitted model.
  std::string paths[3];
  size_t file_bytes[3] = {0, 0, 0};
  double r2[3] = {0, 0, 0};
  for (size_t t = 0; t < 3; ++t) {
    paths[t] = "/tmp/leva_serving_bench_" + std::to_string(::getpid()) + "_" +
               StorageTierName(kTiers[t]) + ".leva";
    bench::CheckOk(fitted.SaveSnapshot(paths[t], kTiers[t]), "save");
    auto bytes = bench::CheckOk(Env::Default()->ReadFileToString(paths[t]),
                                "stat snapshot");
    file_bytes[t] = bytes.size();
    r2[t] = DownstreamR2(paths[t], ds, encoder);
  }

  std::printf("\n-- snapshot footprint and downstream quality per tier --\n");
  bench::TablePrinter footprint(
      {"tier", "file (MiB)", "vs fp64", "bytes/row", "downstream R2"}, 15);
  footprint.PrintHeader();
  for (size_t t = 0; t < 3; ++t) {
    LevaPipeline probe;
    bench::CheckOk(probe.LoadSnapshot(paths[t]), "probe");
    char mib[32], ratio[32], bpr[32], r2s[32];
    std::snprintf(mib, sizeof(mib), "%.2f", file_bytes[t] / (1024.0 * 1024.0));
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(file_bytes[0]) /
                      static_cast<double>(file_bytes[t]));
    std::snprintf(bpr, sizeof(bpr), "%zu", probe.embedding().bytes_per_row());
    std::snprintf(r2s, sizeof(r2s), "%.4f", r2[t]);
    footprint.PrintStringRow(
        {StorageTierName(kTiers[t]), mib, ratio, bpr, r2s});
  }

  std::printf("\n-- load latency, RSS, and featurize bandwidth per "
              "(tier, mode) --\n");
  bench::TablePrinter table({"tier", "mode", "load (ms)", "rss delta (MiB)",
                             "featurize (ms)", "feat GiB/s", "crc"},
                            17);
  table.PrintHeader();
  double heap_rss_delta[3] = {0, 0, 0};
  bool identical = true;
  for (size_t t = 0; t < 3; ++t) {
    uint32_t tier_crc = 0;
    for (size_t m = 0; m < 3; ++m) {
      const ModeReport r = MeasureInChild(paths[t], kModes[m], ds, encoder);
      if (m == 0) {
        heap_rss_delta[t] = r.rss_after_mib - r.rss_before_mib;
        tier_crc = r.featurize_crc;
      }
      identical = identical && r.featurize_crc == tier_crc;
      char load[32], rss[32], feat[32], bw[32], crc[32];
      std::snprintf(load, sizeof(load), "%.3f", r.load_secs * 1e3);
      std::snprintf(rss, sizeof(rss), "%.1f",
                    r.rss_after_mib - r.rss_before_mib);
      std::snprintf(feat, sizeof(feat), "%.2f", r.featurize_secs * 1e3);
      std::snprintf(bw, sizeof(bw), "%.3f",
                    static_cast<double>(r.bytes_touched) /
                        r.featurize_secs / (1024.0 * 1024.0 * 1024.0));
      std::snprintf(crc, sizeof(crc), "%08x", r.featurize_crc);
      table.PrintStringRow(
          {StorageTierName(kTiers[t]), kModes[m].name, load, rss, feat, bw,
           crc});
    }
  }

  const double size_ratio = static_cast<double>(file_bytes[0]) /
                            static_cast<double>(file_bytes[2]);
  const double rss_ratio =
      heap_rss_delta[2] > 0 ? heap_rss_delta[0] / heap_rss_delta[2] : 0.0;
  std::printf("\nint8 vs fp64: snapshot %.2fx smaller, heap-load RSS delta "
              "%.2fx smaller (budget: >= 3.5x)\n",
              size_ratio, rss_ratio);
  std::printf("every mode within a tier serves bit-identical features: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("downstream R2 delta vs fp64: bf16 %+.5f, int8 %+.5f\n",
              r2[1] - r2[0], r2[2] - r2[0]);
  for (const std::string& p : paths) (void)Env::Default()->DeleteFile(p);
  if (!identical || size_ratio < 3.5) std::exit(1);
}

}  // namespace
}  // namespace leva

int main() {
  leva::Run();
  return 0;
}
