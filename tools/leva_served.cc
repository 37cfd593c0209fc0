// leva_served: the batched embedding-serving daemon.
//
// Loads a fitted pipeline snapshot and serves FEATURIZE / PING / STATS /
// RELOAD / DRAIN over the framed TCP protocol (src/serve/protocol.h).
// SIGTERM or SIGINT triggers a graceful drain: admitted work finishes,
// responses flush, then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <string>

#include "common/string_util.h"
#include "core/pipeline.h"
#include "serve/server.h"

namespace leva::serve {
namespace {

struct ServedOptions {
  std::string model;
  std::string port_file;  ///< write the bound port here (scripts + ephemeral)
  ServerOptions server;
  SnapshotLoadOptions load;
  size_t threads = 0;
  bool show_help = false;
};

void PrintUsage() {
  std::printf(
      "usage: leva_served --model SNAPSHOT [--host H] [--port P (0 = "
      "ephemeral)]\n"
      "                   [--port-file FILE (write the bound port)]\n"
      "                   [--max-batch-rows N (1 disables coalescing)]\n"
      "                   [--max-pending-rows N] [--drain-timeout-ms N]\n"
      "                   [--threads N (0 = all)] [--mmap] "
      "[--no-verify-pages]\n"
      "Batches never wait to fill: requests that queue while one runs form "
      "the next.\n");
}

bool ParseArgs(int argc, char** argv, ServedOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Read the flag's value into *out; false when it is missing.
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    // Reads a whole non-negative integer in [min, max]; anything else names
    // the flag and fails.
    auto size_value = [&](size_t* out, int64_t min = 0,
                          int64_t max = INT64_MAX) {
      std::string v;
      if (!value(&v)) return false;
      const std::optional<int64_t> n = ParseInt(v);
      if (!n.has_value() || *n < min || *n > max) {
        std::fprintf(stderr, "invalid value '%s' for %s: expected an integer "
                     "in [%lld, %lld]\n", v.c_str(), arg.c_str(),
                     static_cast<long long>(min), static_cast<long long>(max));
        return false;
      }
      *out = static_cast<size_t>(*n);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      options->show_help = true;
      return true;
    } else if (arg == "--model") {
      if (!value(&options->model)) return false;
    } else if (arg == "--host") {
      if (!value(&options->server.host)) return false;
    } else if (arg == "--port") {
      size_t port = 0;
      if (!size_value(&port, 0, 65535)) return false;
      options->server.port = static_cast<uint16_t>(port);
    } else if (arg == "--port-file") {
      if (!value(&options->port_file)) return false;
    } else if (arg == "--max-batch-rows") {
      if (!size_value(&options->server.batcher.max_batch_rows, 1)) {
        return false;
      }
    } else if (arg == "--max-pending-rows") {
      if (!size_value(&options->server.batcher.max_pending_rows, 1)) {
        return false;
      }
    } else if (arg == "--drain-timeout-ms") {
      if (!size_value(&options->server.drain_timeout_ms)) return false;
    } else if (arg == "--threads") {
      if (!size_value(&options->threads)) return false;
    } else if (arg == "--mmap") {
      options->load.use_mmap = true;
    } else if (arg == "--no-verify-pages") {
      options->load.verify_pages = false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (options->model.empty() && !options->show_help) {
    std::fprintf(stderr, "--model is required\n");
    return false;
  }
  return true;
}

Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

int Run(int argc, char** argv) {
  ServedOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 1;
  }
  if (options.show_help) {
    PrintUsage();
    return 0;
  }

  LevaConfig config;
  LevaPipeline pipeline(config);
  if (Status s = pipeline.LoadSnapshot(options.model, nullptr, options.load);
      !s.ok()) {
    std::fprintf(stderr, "load %s: %s\n", options.model.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (options.threads != 0) {
    pipeline.set_serving_options(options.threads, /*batch_size=*/0);
  }

  Server server(&pipeline, options.server);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!options.port_file.empty()) {
    std::FILE* f = std::fopen(options.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", unsigned{server.port()});
    std::fclose(f);
  }

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  server.Join();  // returns when the graceful drain completes
  g_server = nullptr;
  return 0;
}

}  // namespace
}  // namespace leva::serve

int main(int argc, char** argv) { return leva::serve::Run(argc, argv); }
