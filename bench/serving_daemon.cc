// Serving-daemon load generator: drives the batched embedding server over
// real loopback TCP and reports throughput and latency percentiles for
// coalesced batching vs batch-size-1 serving, plus the backpressure behavior
// of a saturated admission queue (OVERLOADED rejections, not timeouts).
//
// Modes:
//   (no args)                 in-process bench: fit, serve, drive, print the
//                             EXPERIMENTS.md table
//   --fit-snapshots A.leva B.leva
//                             fit two models (seeds 5/77) over the same
//                             schema and snapshot them (CI smoke setup)
//   --connect HOST PORT --model SNAPSHOT [--clients N] [--iters N]
//             [--rows N] [--window N] [--reload SNAPSHOT]
//                             drive an external leva_served booted with
//                             --model SNAPSHOT: concurrent clients,
//                             optionally one hot RELOAD mid-load; exits
//                             nonzero on any error or mismatched response
//
// Every OK response is compared byte for byte with ExecuteFeaturize on the
// same rows, computed offline on the served snapshot (and, with --reload,
// on the reload target: a response must equal one of the two whole, never
// a mix).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace leva::serve {
namespace {

// Heavy profile for the loopback bench (execution cost must be realistic);
// the CI-smoke modes (--fit-snapshots / --connect) use a light model that
// fits in seconds.
constexpr size_t kStudents = 600;
constexpr size_t kNoiseAttributes = 8;
constexpr size_t kDim = 512;
constexpr size_t kSmokeStudents = 240;
constexpr size_t kSmokeDim = 32;

LevaConfig BenchConfig(uint64_t seed, size_t dim) {
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = dim;
  config.seed = seed;
  return config;
}

struct Workload {
  SyntheticDataset ds;
  const Table* base = nullptr;
};

Workload MakeWorkload(size_t students, size_t noise_attributes) {
  Workload w;
  auto ds = GenerateStudent(students, noise_attributes, 3);
  if (!ds.ok()) {
    std::fprintf(stderr, "datagen: %s\n", ds.status().ToString().c_str());
    std::exit(1);
  }
  w.ds = std::move(ds).value();
  w.base = w.ds.db.FindTable(w.ds.base_table);
  return w;
}

/// Rows [lo, hi) of the base table without the label column.
Table ServingRows(const Workload& w, size_t lo, size_t hi) {
  Table t(w.base->name());
  for (const Column& c : w.base->columns()) {
    if (c.name == w.ds.target_column) continue;
    Column col{c.name, c.type, {}};
    col.values.assign(c.values.begin() + static_cast<long>(lo),
                      c.values.begin() + static_cast<long>(hi));
    (void)t.AddColumn(std::move(col));
  }
  return t;
}

struct DriveResult {
  size_t ok = 0;
  size_t overloaded = 0;
  size_t errors = 0;
  size_t mismatched = 0;  ///< OK responses whose features match no model
  double wall_seconds = 0;
  std::vector<double> latencies;  // seconds, OK requests only
};

/// The request of client `c`: `rows_per_request` rows of the base table.
FeaturizeRequest ClientRequest(const Workload& w, size_t c,
                               size_t rows_per_request) {
  const size_t lo = (c * rows_per_request) % (w.base->NumRows() / 2);
  FeaturizeRequest req;
  req.rows = ServingRows(w, lo, lo + rows_per_request);
  return req;
}

/// What an OK response to each client's request may hold: the features
/// ExecuteFeaturize computes offline, per client, for each model the server
/// may be serving.
using Expected = std::vector<std::vector<std::vector<double>>>;

Expected ExpectedFeatures(const std::vector<const LevaPipeline*>& models,
                          const Workload& w, size_t clients,
                          size_t rows_per_request) {
  Expected expected(clients);
  for (size_t c = 0; c < clients; ++c) {
    const FeaturizeRequest req = ClientRequest(w, c, rows_per_request);
    for (const LevaPipeline* model : models) {
      auto x = ExecuteFeaturize(*model, req.rows, req.target_column,
                                req.rows_in_graph);
      if (!x.ok()) {
        std::fprintf(stderr, "expected featurize: %s\n",
                     x.status().ToString().c_str());
        std::exit(1);
      }
      expected[c].push_back(std::move(x->x.mutable_data()));
    }
  }
  return expected;
}

bool MatchesAny(const std::vector<double>& features,
                const std::vector<std::vector<double>>& candidates) {
  for (const std::vector<double>& want : candidates) {
    if (want.size() == features.size() &&
        std::memcmp(want.data(), features.data(),
                    want.size() * sizeof(double)) == 0) {
      return true;
    }
  }
  return false;
}

/// `clients` threads, each its own connection, each `iters` rounds of a
/// pipelined `window` of `rows_per_request`-row FEATURIZE requests: the whole
/// window is sent back-to-back, then responses are collected in completion
/// order. Per-request latency runs from its send to its response arrival.
/// Each OK response must equal one of `expected[client]` byte for byte.
DriveResult Drive(const std::string& host, uint16_t port, const Workload& w,
                  const Expected& expected, size_t iters,
                  size_t rows_per_request, size_t window) {
  const size_t clients = expected.size();
  std::vector<DriveResult> per_thread(clients);
  std::vector<std::thread> threads;
  WallTimer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      DriveResult& r = per_thread[c];
      Client client;
      if (!client.Connect(host, port, /*timeout_ms=*/60000).ok()) {
        r.errors += iters * window;
        return;
      }
      FeaturizeRequest req = ClientRequest(w, c, rows_per_request);
      for (size_t i = 0; i < iters; ++i) {
        WallTimer timer;
        size_t sent = 0;
        for (size_t k = 0; k < window; ++k) {
          req.request_id = client.NextRequestId();
          if (!client.Send(EncodeFeaturizeRequest(req)).ok()) {
            ++r.errors;
            continue;
          }
          ++sent;
        }
        for (size_t k = 0; k < sent; ++k) {
          auto response = client.ReadResponse();
          if (!response.ok()) {
            ++r.errors;
          } else if (response->status.code() ==
                     StatusCode::kResourceExhausted) {
            ++r.overloaded;
          } else if (!response->status.ok() ||
                     response->rows != rows_per_request) {
            ++r.errors;
          } else if (!MatchesAny(response->features, expected[c])) {
            ++r.mismatched;
          } else {
            ++r.ok;
            r.latencies.push_back(timer.ElapsedSeconds());
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  DriveResult total;
  total.wall_seconds = wall.ElapsedSeconds();
  for (DriveResult& r : per_thread) {
    total.ok += r.ok;
    total.overloaded += r.overloaded;
    total.errors += r.errors;
    total.mismatched += r.mismatched;
    total.latencies.insert(total.latencies.end(), r.latencies.begin(),
                           r.latencies.end());
  }
  return total;
}

int RunLoopbackBench() {
  const Workload w = MakeWorkload(kStudents, kNoiseAttributes);
  LevaPipeline fitted(BenchConfig(5, kDim));
  if (Status s = fitted.Fit(w.ds.db); !s.ok()) {
    std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::string snapshot = "/tmp/leva_serving_daemon_bench.leva";
  if (Status s = fitted.SaveSnapshot(snapshot); !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }

  constexpr size_t kClients = 16;
  constexpr size_t kIters = 240;  // >= 2 s per run on a 4-vCPU Xeon
  constexpr size_t kWindow = 16;  // pipelined requests in flight per client
  constexpr size_t kRowsPerRequest = 4;
  LevaPipeline reference;
  if (Status s = reference.LoadSnapshot(snapshot); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  const Expected expected =
      ExpectedFeatures({&reference}, w, kClients, kRowsPerRequest);
  constexpr size_t kRequests = kClients * kIters * kWindow;
  constexpr size_t kReps = 3;

  struct Config {
    const char* name;
    size_t max_batch_rows;
  };
  // The coalesced row cap is every row the clients can have outstanding
  // (16 clients x 16-deep windows x 4 rows), so it never cuts a batch short:
  // each batch is whatever queued while the previous one executed.
  const Config configs[] = {
      {"batch-size-1", 1},
      {"coalesced-1024", kClients * kWindow * kRowsPerRequest},
  };
  struct Run {
    double wall_s, req_per_s, rows_per_s, p50_ms, p99_ms, rows_per_batch;
  };
  std::vector<Run> runs[std::size(configs)];

  // Repetitions alternate between the configs so slow drift on a shared
  // host lands on both alike; each config reports its median run.
  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t k = 0; k < std::size(configs); ++k) {
      const Config& config = configs[k];
      LevaPipeline pipeline;
      if (Status s = pipeline.LoadSnapshot(snapshot); !s.ok()) {
        std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
        return 1;
      }
      ServerOptions options;
      options.batcher.max_batch_rows = config.max_batch_rows;
      Server server(&pipeline, options);
      if (Status s = server.Start(); !s.ok()) {
        std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
        return 1;
      }
      const DriveResult r = Drive("127.0.0.1", server.port(), w, expected,
                                  kIters, kRowsPerRequest, kWindow);
      Client stats_client;
      double rows_per_batch = 0;
      if (stats_client.Connect("127.0.0.1", server.port()).ok()) {
        if (auto stats = stats_client.Stats(); stats.ok()) {
          rows_per_batch = StatsField(*stats, "rows_per_batch");
        }
      }
      server.Shutdown();
      if (r.errors != 0 || r.mismatched != 0 || r.ok != kRequests) {
        std::fprintf(stderr, "%s: %zu error(s), %zu mismatched, %zu/%zu ok\n",
                     config.name, r.errors, r.mismatched, r.ok, kRequests);
        return 1;
      }
      const bench::LatencySummary lat =
          bench::SummarizeLatencies(r.latencies);
      runs[k].push_back({r.wall_seconds, r.ok / r.wall_seconds,
                         r.ok * kRowsPerRequest / r.wall_seconds,
                         lat.p50 * 1e3, lat.p99 * 1e3, rows_per_batch});
    }
  }

  std::printf("# serving_daemon: %zu clients x %zu-deep pipeline x %zu "
              "rounds of %zu-row requests over loopback TCP (dim %zu, "
              "%zu-student model); median of %zu alternating runs per "
              "config\n",
              kClients, kWindow, kIters, kRowsPerRequest, kDim, kStudents,
              kReps);
  std::printf("%-14s %7s %8s %8s %9s %9s %9s %15s %17s\n", "config", "reqs",
              "wall_s", "req/s", "rows/s", "p50_ms", "p99_ms",
              "rows_per_batch", "req/s min-max");
  for (size_t k = 0; k < std::size(configs); ++k) {
    auto median = [&](double Run::*field) {
      std::vector<double> v;
      for (const Run& run : runs[k]) v.push_back(run.*field);
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const auto [lo, hi] = std::minmax_element(
        runs[k].begin(), runs[k].end(), [](const Run& a, const Run& b) {
          return a.req_per_s < b.req_per_s;
        });
    std::printf("%-14s %7zu %8.3f %8.0f %9.0f %9.3f %9.3f %15.1f "
                "%8.0f-%-8.0f\n",
                configs[k].name, kRequests, median(&Run::wall_s),
                median(&Run::req_per_s), median(&Run::rows_per_s),
                median(&Run::p50_ms), median(&Run::p99_ms),
                median(&Run::rows_per_batch), lo->req_per_s, hi->req_per_s);
  }

  // Backpressure: a tiny admission queue under heavy concurrent load must
  // reject with OVERLOADED — deterministic bounded memory — while smaller
  // concurrent requests keep being served.
  {
    LevaPipeline pipeline;
    if (Status s = pipeline.LoadSnapshot(snapshot); !s.ok()) return 1;
    ServerOptions options;
    options.batcher.max_batch_rows = 16;
    options.batcher.max_pending_rows = 64;
    Server server(&pipeline, options);
    if (Status s = server.Start(); !s.ok()) return 1;
    const DriveResult r = Drive(
        "127.0.0.1", server.port(), w,
        ExpectedFeatures({&reference}, w, /*clients=*/8, /*rows=*/32),
        /*iters=*/20, /*rows_per_request=*/32, /*window=*/4);
    server.Shutdown();
    std::printf("# overload (max_pending_rows=64, 8 clients x 32-row "
                "requests): %zu ok, %zu OVERLOADED, %zu errors, "
                "%zu mismatched\n",
                r.ok, r.overloaded, r.errors, r.mismatched);
    if (r.errors != 0 || r.mismatched != 0) {
      std::fprintf(stderr, "overload run saw %zu hard error(s), %zu "
                   "mismatched response(s)\n", r.errors, r.mismatched);
      return 1;
    }
  }
  return 0;
}

int FitSnapshots(const std::string& path_a, const std::string& path_b) {
  const Workload w = MakeWorkload(kSmokeStudents, 0);
  const uint64_t seeds[] = {5, 77};
  const std::string* paths[] = {&path_a, &path_b};
  for (int i = 0; i < 2; ++i) {
    LevaPipeline pipeline(BenchConfig(seeds[i], kSmokeDim));
    if (Status s = pipeline.Fit(w.ds.db); !s.ok()) {
      std::fprintf(stderr, "fit seed %llu: %s\n",
                   static_cast<unsigned long long>(seeds[i]),
                   s.ToString().c_str());
      return 1;
    }
    if (Status s = pipeline.SaveSnapshot(*paths[i]); !s.ok()) {
      std::fprintf(stderr, "save %s: %s\n", paths[i]->c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("fitted seed %llu -> %s\n",
                static_cast<unsigned long long>(seeds[i]),
                paths[i]->c_str());
  }
  return 0;
}

int ConnectAndDrive(const std::string& host, uint16_t port,
                    const std::string& model, size_t clients, size_t iters,
                    size_t rows, size_t window, const std::string& reload) {
  const Workload w = MakeWorkload(kSmokeStudents, 0);
  // The models the daemon may serve: the one it booted with and, once the
  // hot swap lands, the reload target.
  LevaPipeline booted;
  LevaPipeline reloaded;
  std::vector<const LevaPipeline*> models = {&booted};
  if (Status s = booted.LoadSnapshot(model); !s.ok()) {
    std::fprintf(stderr, "load %s: %s\n", model.c_str(), s.ToString().c_str());
    return 1;
  }
  if (!reload.empty()) {
    if (Status s = reloaded.LoadSnapshot(reload); !s.ok()) {
      std::fprintf(stderr, "load %s: %s\n", reload.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    models.push_back(&reloaded);
  }
  const Expected expected = ExpectedFeatures(models, w, clients, rows);

  // The daemon may still be binding: retry the first contact briefly.
  Client probe;
  Status up = Status::Internal("unreached");
  for (int attempt = 0; attempt < 50; ++attempt) {
    up = probe.Connect(host, port, /*timeout_ms=*/10000);
    if (up.ok()) up = probe.Ping();
    if (up.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!up.ok()) {
    std::fprintf(stderr, "server never came up: %s\n", up.ToString().c_str());
    return 1;
  }

  std::thread reloader;
  int reload_failures = 0;
  if (!reload.empty()) {
    reloader = std::thread([&] {
      // Fire the hot swap while the clients are mid-load.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Client client;
      if (!client.Connect(host, port, /*timeout_ms=*/30000).ok()) {
        ++reload_failures;
        return;
      }
      ReloadRequest request;
      request.path = reload;
      if (Status s = client.Reload(request); !s.ok()) {
        std::fprintf(stderr, "reload: %s\n", s.ToString().c_str());
        ++reload_failures;
      }
    });
  }

  const DriveResult r = Drive(host, port, w, expected, iters, rows, window);
  if (reloader.joinable()) reloader.join();

  auto stats = probe.Stats();
  if (stats.ok()) {
    std::printf("# server stats after load:\n");
    for (const auto& [name, value] : *stats) {
      std::printf("  %-24s %.3f\n", name.c_str(), value);
    }
  }
  const bench::LatencySummary lat = bench::SummarizeLatencies(r.latencies);
  std::printf("%zu ok (byte-identical to the offline featurize), "
              "%zu overloaded, %zu errors, %zu mismatched in %.3fs "
              "(p50 %.3fms, p99 %.3fms)\n",
              r.ok, r.overloaded, r.errors, r.mismatched, r.wall_seconds,
              lat.p50 * 1e3, lat.p99 * 1e3);
  if (r.errors != 0 || r.mismatched != 0 || r.ok == 0 ||
      reload_failures != 0) {
    std::fprintf(stderr,
                 "FAIL: errors=%zu mismatched=%zu ok=%zu reload_failures=%d\n",
                 r.errors, r.mismatched, r.ok, reload_failures);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  std::string connect_host;
  uint16_t connect_port = 0;
  std::string fit_a, fit_b, model, reload;
  size_t clients = 8, iters = 50, rows = 4, window = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--fit-snapshots") {
      const char* a = next();
      const char* b = next();
      if (a == nullptr || b == nullptr) {
        std::fprintf(stderr, "--fit-snapshots needs two paths\n");
        return 1;
      }
      fit_a = a;
      fit_b = b;
    } else if (arg == "--connect") {
      const char* h = next();
      const char* p = next();
      if (h == nullptr || p == nullptr) {
        std::fprintf(stderr, "--connect needs HOST PORT\n");
        return 1;
      }
      connect_host = h;
      connect_port = static_cast<uint16_t>(std::atoi(p));
    } else if (arg == "--model") {
      const char* v = next();
      if (v == nullptr) return 1;
      model = v;
    } else if (arg == "--reload") {
      const char* v = next();
      if (v == nullptr) return 1;
      reload = v;
    } else if (arg == "--clients") {
      const char* v = next();
      if (v == nullptr) return 1;
      clients = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--iters") {
      const char* v = next();
      if (v == nullptr) return 1;
      iters = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--rows") {
      const char* v = next();
      if (v == nullptr) return 1;
      rows = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--window") {
      const char* v = next();
      if (v == nullptr) return 1;
      window = static_cast<size_t>(std::atoll(v));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (!fit_a.empty()) return FitSnapshots(fit_a, fit_b);
  if (!connect_host.empty()) {
    if (model.empty()) {
      std::fprintf(stderr,
                   "--connect needs --model SNAPSHOT (the daemon's model)\n");
      return 1;
    }
    return ConnectAndDrive(connect_host, connect_port, model, clients, iters,
                           rows, window, reload);
  }
  return RunLoopbackBench();
}

}  // namespace
}  // namespace leva::serve

int main(int argc, char** argv) { return leva::serve::Run(argc, argv); }
