// Streaming update vs full re-fit: the economic case for the WAL-backed
// Update path. A fitted model receives a batch of new base rows (~1% of the
// table); the competitor rebuilds the whole pipeline from scratch on the
// grown database. Reported per method: wall time of each path, the speedup,
// and the downstream accuracy of both resulting models on the grown table
// (the paper's LR probe, as in tests/quantize_test.cc) — the update path
// must buy its latency win without moving the metric beyond the
// quantization-noise band (|delta| <= 0.05, the bf16 tolerance).
//
// Expected shape: the warm random-walk refresh (walks seeded only at
// new/touched nodes, SGNS continued from the served vectors) is >= 10x
// faster than re-fitting; MF has no incremental form (Update compacts and
// re-embeds, so its "speedup" only meters the graph rebuild it skips).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/update_log.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace leva {
namespace {

constexpr size_t kStudents = 2000;
constexpr size_t kBatchRows = 20;  // 1% of the base table
constexpr size_t kFitRows = kStudents - kBatchRows;

Table SliceRows(const Table& t, size_t begin, size_t end) {
  Table out(t.name());
  for (const Column& c : t.columns()) {
    Column col;
    col.name = c.name;
    col.type = c.type;
    col.values.assign(c.values.begin() + static_cast<ptrdiff_t>(begin),
                      c.values.begin() + static_cast<ptrdiff_t>(end));
    bench::CheckOk(out.AddColumn(std::move(col)), "slice column");
  }
  return out;
}

LevaConfig BenchConfig(EmbeddingMethod method) {
  LevaConfig config;
  config.method = method;
  config.embedding_dim = 32;
  config.seed = 7;
  return config;
}

double DownstreamAccuracy(const LevaPipeline& p, const Table& base,
                          const std::string& target, TargetEncoder* encoder) {
  const MLDataset ds = bench::CheckOk(
      p.Featurize(base, target, *encoder, /*rows_in_graph=*/true),
      "featurize");
  ElasticNetOptions opts;
  opts.epochs = 60;
  LogisticRegressor model(encoder->num_classes(), opts);
  Rng rng(17);
  bench::CheckOk(model.Fit(ds.x, ds.y, &rng), "probe fit");
  return Accuracy(ds.y, model.Predict(ds.x));
}

void Run() {
  auto ds = bench::CheckOk(GenerateStudent(kStudents, 0, 3), "generate");
  const Table* full_base = ds.db.FindTable(ds.base_table);
  Database fit_db = ds.db;
  const size_t base_idx =
      bench::CheckOk(fit_db.TableIndex(ds.base_table), "base index");
  fit_db.mutable_tables()[base_idx] = SliceRows(*full_base, 0, kFitRows);
  const Table batch = SliceRows(*full_base, kFitRows, kStudents);
  TargetEncoder encoder;
  bench::CheckOk(
      encoder.Fit(*full_base->FindColumn(ds.target_column), true),
      "encoder");

  std::printf("== Streaming update vs full re-fit (%zu base rows, %zu-row "
              "batch = %.1f%%) ==\n",
              kStudents, kBatchRows, 100.0 * kBatchRows / kStudents);
  std::printf("%-10s%-12s%-12s%-10s%-12s%-12s%-10s%s\n", "method", "refit_ms",
              "update_ms", "speedup", "refit_acc", "update_acc", "delta",
              "mode");

  for (const EmbeddingMethod method : {EmbeddingMethod::kRandomWalk,
                                       EmbeddingMethod::kMatrixFactorization}) {
    // Incremental path: fit on the truncated table (untimed), then stream
    // the batch in through the durable Update.
    LevaPipeline incremental(BenchConfig(method));
    bench::CheckOk(incremental.Fit(fit_db), "fit base");
    const std::string wal_path =
        std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp") +
        "/leva_bench_streaming_update.wal";
    Env::Default()->DeleteFile(wal_path);
    auto wal = bench::CheckOk(UpdateLog::Open(wal_path), "open wal");
    WallTimer update_timer;
    const UpdateResult res =
        bench::CheckOk(incremental.Update(batch, wal.get()), "update");
    const double update_ms = update_timer.ElapsedMillis();
    bench::CheckOk(wal->Close(), "close wal");

    // Full re-fit on the grown database.
    LevaPipeline refit(BenchConfig(method));
    WallTimer refit_timer;
    bench::CheckOk(refit.Fit(ds.db), "refit");
    const double refit_ms = refit_timer.ElapsedMillis();

    const double acc_refit =
        DownstreamAccuracy(refit, *full_base, ds.target_column, &encoder);
    const double acc_update =
        DownstreamAccuracy(incremental, *full_base, ds.target_column,
                           &encoder);
    std::printf("%-10s%-12.1f%-12.1f%-10.1f%-12.3f%-12.3f%-10.3f%s\n",
                method == EmbeddingMethod::kRandomWalk ? "RW" : "MF",
                refit_ms, update_ms, refit_ms / update_ms, acc_refit,
                acc_update, acc_update - acc_refit,
                res.full_refit ? "full-refit" : "warm");
    Env::Default()->DeleteFile(wal_path);
  }
}

}  // namespace
}  // namespace leva

int main() {
  leva::Run();
  return 0;
}
