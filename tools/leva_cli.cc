// leva_cli: run the Leva pipeline over a set of CSV files from the command
// line and write the relational embedding as text.
//
//   leva_cli --table orders=orders.csv --table customers=customers.csv \
//            [--dim 100] [--method auto|mf|rw] [--bins 50] \
//            [--theta-range 0.5] [--theta-min 0.05] [--unweighted] \
//            [--threads N] [--featurize base_table target_column out.csv] \
//            [--save-model model.leva | --load-model model.leva] \
//            --output embedding.txt
//
// With --featurize, the base table is additionally encoded with the trained
// embedding and written as a plain numeric CSV (emb0..embN plus the target),
// ready for any external ML tool.
//
// --save-model writes the whole fitted pipeline as a checksummed snapshot;
// --load-model restores one instead of running Fit, so a serving process
// skips textification, graph construction, and embedding training entirely.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <memory>

#include "common/io.h"
#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/update_log.h"
#include "ml/featurize.h"
#include "table/csv.h"

namespace leva {
namespace {

struct CliOptions {
  std::vector<std::pair<std::string, std::string>> tables;  // name -> path
  std::string output;
  std::string featurize_table;
  std::string featurize_target;
  std::string featurize_output;
  std::string save_model;
  std::string load_model;
  std::string reload_model;
  // Streaming updates: batches of new rows (name -> csv path) appended to
  // the live model via LevaPipeline::Update, optionally made durable first
  // through the write-ahead log at `wal_path`.
  std::vector<std::pair<std::string, std::string>> update_csvs;
  std::string wal_path;
  SnapshotLoadOptions load_options;
  LevaConfig config;
  // True when --quantize was given: --save-model then requantizes to the
  // requested tier even when the model came from a snapshot at another tier
  // (whose restored config would otherwise win).
  bool quantize_set = false;
  bool show_help = false;
};

void PrintUsage() {
  std::printf(
      "usage: leva_cli --table NAME=FILE.csv [--table ...] --output EMB.txt\n"
      "                [--dim N] [--method auto|mf|rw] [--bins N]\n"
      "                [--theta-range F] [--theta-min F] [--unweighted]\n"
      "                [--seed N] [--threads N (0 = all hardware threads)]\n"
      "                [--featurize TABLE TARGET OUT.csv]\n"
      "                [--featurize-batch-size N (rows per serving batch; "
      "0 = whole table)]\n"
      "                [--quantize fp64|bf16|int8 (storage tier written by "
      "--save-model; serving dequantizes on the fly)]\n"
      "                [--save-model FILE (write fitted pipeline snapshot)]\n"
      "                [--load-model FILE (restore snapshot, skip Fit)]\n"
      "                [--mmap (serve bulk arrays zero-copy out of the "
      "mapped snapshot)]\n"
      "                [--no-verify-pages (defer per-page checksums; pair "
      "with --mmap for O(1) load)]\n"
      "                [--reload-model FILE (after the model is up, hot-swap "
      "to this snapshot and report swap latency)]\n"
      "                [--update-csv NAME=FILE.csv (append FILE's rows to "
      "fitted table NAME via the streaming-update path; repeatable)]\n"
      "                [--wal FILE (write-ahead log for --update-csv: "
      "batches are logged+fsynced before applying, and any records past the "
      "loaded snapshot's position are replayed first)]\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      options->show_help = true;
      return true;
    } else if (arg == "--table") {
      const char* v = next("--table");
      if (v == nullptr) return false;
      const std::string spec(v);
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--table expects NAME=FILE.csv, got '%s'\n", v);
        return false;
      }
      options->tables.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--output") {
      const char* v = next("--output");
      if (v == nullptr) return false;
      options->output = v;
    } else if (arg == "--dim") {
      const char* v = next("--dim");
      if (v == nullptr) return false;
      options->config.embedding_dim = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--bins") {
      const char* v = next("--bins");
      if (v == nullptr) return false;
      options->config.textify.bin_count = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--theta-range") {
      const char* v = next("--theta-range");
      if (v == nullptr) return false;
      options->config.graph.theta_range = std::atof(v);
    } else if (arg == "--theta-min") {
      const char* v = next("--theta-min");
      if (v == nullptr) return false;
      options->config.graph.theta_min = std::atof(v);
    } else if (arg == "--unweighted") {
      options->config.graph.weighted = false;
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      options->config.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0 || parsed > 4096) {
        std::fprintf(stderr,
                     "--threads expects an integer in [0, 4096], got '%s'\n",
                     v);
        return false;
      }
      options->config.threads = static_cast<size_t>(parsed);
    } else if (arg == "--method") {
      const char* v = next("--method");
      if (v == nullptr) return false;
      if (std::strcmp(v, "mf") == 0) {
        options->config.method = EmbeddingMethod::kMatrixFactorization;
      } else if (std::strcmp(v, "rw") == 0) {
        options->config.method = EmbeddingMethod::kRandomWalk;
      } else if (std::strcmp(v, "auto") == 0) {
        options->config.method = EmbeddingMethod::kAuto;
      } else {
        std::fprintf(stderr, "unknown method '%s'\n", v);
        return false;
      }
    } else if (arg == "--featurize-batch-size") {
      const char* v = next("--featurize-batch-size");
      if (v == nullptr) return false;
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "--featurize-batch-size expects a non-negative integer, "
                     "got '%s'\n",
                     v);
        return false;
      }
      options->config.featurize_batch_size = static_cast<size_t>(parsed);
    } else if (arg == "--quantize") {
      const char* v = next("--quantize");
      if (v == nullptr) return false;
      if (!ParseStorageTier(v, &options->config.quantize_tier)) {
        std::fprintf(stderr,
                     "--quantize expects fp64, bf16, or int8, got '%s'\n", v);
        return false;
      }
      options->quantize_set = true;
    } else if (arg == "--save-model") {
      const char* v = next("--save-model");
      if (v == nullptr) return false;
      options->save_model = v;
    } else if (arg == "--load-model") {
      const char* v = next("--load-model");
      if (v == nullptr) return false;
      options->load_model = v;
    } else if (arg == "--mmap") {
      options->load_options.use_mmap = true;
    } else if (arg == "--no-verify-pages") {
      options->load_options.verify_pages = false;
    } else if (arg == "--reload-model") {
      const char* v = next("--reload-model");
      if (v == nullptr) return false;
      options->reload_model = v;
    } else if (arg == "--update-csv") {
      const char* v = next("--update-csv");
      if (v == nullptr) return false;
      const std::string spec(v);
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--update-csv expects NAME=FILE.csv, got '%s'\n",
                     v);
        return false;
      }
      options->update_csvs.emplace_back(spec.substr(0, eq),
                                        spec.substr(eq + 1));
    } else if (arg == "--wal") {
      const char* v = next("--wal");
      if (v == nullptr) return false;
      options->wal_path = v;
    } else if (arg == "--featurize") {
      if (i + 3 >= argc) {
        std::fprintf(stderr, "--featurize expects TABLE TARGET OUT.csv\n");
        return false;
      }
      options->featurize_table = argv[++i];
      options->featurize_target = argv[++i];
      options->featurize_output = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int RunCli(const CliOptions& options) {
  // Run header: record parallelism so benchmark logs are self-describing.
  std::fprintf(stderr, "leva_cli: seed=%llu threads=%zu (resolved %zu)\n",
               static_cast<unsigned long long>(options.config.seed),
               options.config.threads, ResolveThreads(options.config.threads));
  Database db;
  for (const auto& [name, path] : options.tables) {
    auto table = ReadCsvFile(path, name);
    if (!table.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %-16s %zu rows x %zu columns\n", name.c_str(),
                 table->NumRows(), table->NumColumns());
    if (Status s = db.AddTable(std::move(*table)); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  LevaPipeline pipeline(options.config);
  if (!options.load_model.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    if (Status s = pipeline.LoadSnapshot(options.load_model, nullptr,
                                         options.load_options);
        !s.ok()) {
      std::fprintf(stderr, "load-model: %s\n", s.ToString().c_str());
      return 1;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr,
                 "loaded snapshot %s in %.3fs (%zu vectors, dim %zu, "
                 "tier %s, %zu B/row, %s%s, rss %.1f MiB) — Fit skipped\n",
                 options.load_model.c_str(), elapsed.count(),
                 pipeline.embedding().size(), pipeline.embedding().dim(),
                 StorageTierName(pipeline.embedding().tier()),
                 pipeline.embedding().bytes_per_row(),
                 pipeline.uses_mmap() ? "mmap" : "heap",
                 options.load_options.verify_pages ? "" : " lazy",
                 CurrentRssBytes() / (1024.0 * 1024.0));
    // The snapshot restores the fit-time config; serving-only knobs on this
    // command line still win.
    pipeline.set_serving_options(options.config.threads,
                                 options.config.featurize_batch_size);
  } else {
    if (Status s = pipeline.Fit(db); !s.ok()) {
      std::fprintf(stderr, "pipeline: %s\n", s.ToString().c_str());
      return 1;
    }
    const PipelineMetrics& m = pipeline.metrics();
    std::fprintf(stderr, "fit in %.3fs\n", m.fit.sum_seconds());
    for (const auto& [stage, histogram] : m.FitStages()) {
      if (histogram->count() > 0) {
        std::fprintf(stderr, "  %s: %.3fs\n", stage, histogram->sum_seconds());
      }
    }
  }
  if (!options.wal_path.empty() || !options.update_csvs.empty()) {
    // Recover-then-update: any records a previous process acknowledged into
    // the WAL but never captured in a snapshot are replayed first, so the
    // new batches append after a consistent prefix.
    std::unique_ptr<UpdateLog> wal;
    if (!options.wal_path.empty()) {
      if (Env::Default()->FileExists(options.wal_path)) {
        auto replayed = pipeline.RecoverFromLog(options.wal_path);
        if (!replayed.ok()) {
          std::fprintf(stderr, "wal replay: %s\n",
                       replayed.status().ToString().c_str());
          return 1;
        }
        if (*replayed > 0) {
          std::fprintf(stderr, "replayed %zu update record(s) from %s\n",
                       *replayed, options.wal_path.c_str());
        }
      }
      auto opened = UpdateLog::Open(options.wal_path);
      if (!opened.ok()) {
        std::fprintf(stderr, "wal open: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      wal = std::move(*opened);
    }
    for (const auto& [name, path] : options.update_csvs) {
      auto table = ReadCsvFile(path, name);
      if (!table.ok()) {
        std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                     table.status().ToString().c_str());
        return 1;
      }
      const auto t0 = std::chrono::steady_clock::now();
      auto result = pipeline.Update(*table, wal.get());
      if (!result.ok()) {
        std::fprintf(stderr, "update %s: %s\n", name.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      std::fprintf(stderr,
                   "updated %s: %zu row(s), +%zu value node(s), +%zu "
                   "edge(s), %zu vector(s) refreshed in %.3fs%s%s "
                   "(wal offset %llu)\n",
                   name.c_str(), result->rows_applied,
                   result->new_value_nodes, result->new_edges,
                   result->refreshed_vectors, elapsed.count(),
                   result->compacted ? ", compacted" : "",
                   result->full_refit ? ", full refit" : "",
                   static_cast<unsigned long long>(result->wal_offset));
    }
  }
  if (!options.save_model.empty()) {
    // --quantize forces the tier explicitly so a model restored from a
    // snapshot at another tier still gets re-encoded as requested.
    const StorageTier save_tier = options.config.quantize_tier;
    const auto t0 = std::chrono::steady_clock::now();
    Status s = options.quantize_set
                   ? pipeline.SaveSnapshot(options.save_model, save_tier)
                   : pipeline.SaveSnapshot(options.save_model);
    if (!s.ok()) {
      std::fprintf(stderr, "save-model: %s\n", s.ToString().c_str());
      return 1;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr, "saved snapshot to %s in %.3fs (tier %s)\n",
                 options.save_model.c_str(), elapsed.count(),
                 options.quantize_set
                     ? StorageTierName(save_tier)
                     : StorageTierName(pipeline.embedding().tier()));
  }
  if (!options.reload_model.empty()) {
    // Hot swap: the serving model is replaced atomically; calls already in
    // flight would finish on the model they pinned. Here it demonstrates the
    // swap path and reports its latency and memory cost.
    // An operator-driven reload must not silently change serving precision:
    // require the incoming snapshot to match the tier already being served.
    SnapshotLoadOptions reload_options = options.load_options;
    reload_options.require_same_tier = true;
    const auto t0 = std::chrono::steady_clock::now();
    if (Status s = pipeline.ReloadSnapshot(options.reload_model, nullptr,
                                           reload_options);
        !s.ok()) {
      std::fprintf(stderr, "reload-model: %s\n", s.ToString().c_str());
      return 1;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr,
                 "hot-swapped to %s in %.3fs (%zu vectors, dim %zu, "
                 "tier %s, %zu B/row, %s, rss %.1f MiB)\n",
                 options.reload_model.c_str(), elapsed.count(),
                 pipeline.embedding().size(), pipeline.embedding().dim(),
                 StorageTierName(pipeline.embedding().tier()),
                 pipeline.embedding().bytes_per_row(),
                 pipeline.uses_mmap() ? "mmap" : "heap",
                 CurrentRssBytes() / (1024.0 * 1024.0));
  }
  const GraphStats& stats = pipeline.graph().stats();
  std::fprintf(stderr,
               "graph: %zu row nodes, %zu value nodes, %zu edges; "
               "refinement removed %zu missing-token(s); method=%s\n",
               stats.row_nodes, stats.value_nodes, stats.edges,
               stats.tokens_removed_missing,
               pipeline.chosen_method() == EmbeddingMethod::kMatrixFactorization
                   ? "MF"
                   : "RW");

  if (!options.output.empty()) {
    std::ofstream out(options.output);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", options.output.c_str());
      return 1;
    }
    out << pipeline.embedding().ToText();
    std::fprintf(stderr, "wrote %zu vectors (dim %zu) to %s\n",
                 pipeline.embedding().size(), pipeline.embedding().dim(),
                 options.output.c_str());
  }

  if (!options.featurize_table.empty()) {
    const Table* base = db.FindTable(options.featurize_table);
    if (base == nullptr) {
      std::fprintf(stderr, "no table '%s' to featurize\n",
                   options.featurize_table.c_str());
      return 1;
    }
    const Column* target = base->FindColumn(options.featurize_target);
    if (target == nullptr) {
      std::fprintf(stderr, "no column '%s' in '%s'\n",
                   options.featurize_target.c_str(),
                   options.featurize_table.c_str());
      return 1;
    }
    TargetEncoder encoder;
    // Try classification first; numeric targets fall back to regression.
    bool classification = true;
    if (!encoder.Fit(*target, true).ok()) {
      classification = false;
      if (Status s = encoder.Fit(*target, false); !s.ok()) {
        std::fprintf(stderr, "target: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    auto features = pipeline.Featurize(*base, options.featurize_target,
                                       encoder, /*rows_in_graph=*/true);
    if (!features.ok()) {
      std::fprintf(stderr, "featurize: %s\n",
                   features.status().ToString().c_str());
      return 1;
    }
    Table out_table(options.featurize_table + "_features");
    for (size_t j = 0; j < features->NumFeatures(); ++j) {
      Column c;
      c.name = features->feature_names[j];
      c.type = DataType::kDouble;
      for (size_t r = 0; r < features->NumRows(); ++r) {
        c.values.push_back(Value(features->x(r, j)));
      }
      (void)out_table.AddColumn(std::move(c));
    }
    Column y;
    y.name = options.featurize_target;
    y.type = DataType::kDouble;
    for (const double v : features->y) y.values.push_back(Value(v));
    (void)out_table.AddColumn(std::move(y));
    if (Status s = WriteCsvFile(out_table, options.featurize_output); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    // Featurize ran with this command line's --threads: the pipeline was
    // constructed with it, or set_serving_options re-applied it after load.
    const PipelineMetrics& m = pipeline.metrics();
    std::fprintf(stderr,
                 "featurize: %llu rows in %.3fs (%zu threads, %llu batch(es), "
                 "%llu tokens, %llu distinct)\n",
                 static_cast<unsigned long long>(m.featurize_rows.load()),
                 m.featurize.sum_seconds(),
                 ResolveThreads(options.config.threads),
                 static_cast<unsigned long long>(m.featurize_batches.load()),
                 static_cast<unsigned long long>(m.token_occurrences.load()),
                 static_cast<unsigned long long>(m.distinct_tokens.load()));
    std::fprintf(stderr, "wrote featurized %s (%s) to %s\n",
                 options.featurize_table.c_str(),
                 classification ? "classification" : "regression",
                 options.featurize_output.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace leva

int main(int argc, char** argv) {
  leva::CliOptions options;
  if (!leva::ParseArgs(argc, argv, &options)) {
    leva::PrintUsage();
    return 2;
  }
  // --load-model needs no input tables unless --featurize wants one.
  if (options.show_help ||
      (options.tables.empty() && options.load_model.empty())) {
    leva::PrintUsage();
    return options.show_help ? 0 : 2;
  }
  return leva::RunCli(options);
}
