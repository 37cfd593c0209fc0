// Reproduces Fig. 7a: runtime and memory of embedding construction as the
// dataset is replicated K times (rows and distinct tokens both grow linearly
// in K). Compares EmbDI, Leva-RW and Leva-MF.
//
// Each Fit runs in a forked child, so one Fit's heap cannot hold up the
// next one's resident set; the child reports its wall time, the modelled
// working set (EstimateMfMemoryBytes / EstimateRwMemoryBytes) and the
// measured one: the growth of its peak RSS (ru_maxrss) over its RSS at the
// fork. A Fit's growth also counts the textified tables and the graph,
// which the estimates leave out, so the MF estimate is checked against the
// MF stage alone: the parent builds the graph as Fit does, and a child
// forked from it runs MatrixFactorizationEmbed with Fit's options
// (LevaPipeline::MfStageOptions) at 4 workers. If that child's peak RSS
// growth exceeds the estimate the pipeline's MF-vs-RW choice trusts, the
// bench exits 1 and names the overshoot. The parent builds the graph
// without running a Fit: an MF stage run in the parent would leave freed
// heap the child's matrices could reuse without growing its RSS.
//
// Expected shape: random-walk methods (EmbDI, Leva-RW) are roughly an order
// of magnitude slower than Leva-MF; RW uses less memory than MF.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/graph_models.h"
#include "baselines/experiment.h"
#include "baselines/leva_model.h"
#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/datasets.h"
#include "embed/mf.h"
#include "text/textifier.h"

namespace leva {
namespace {

constexpr size_t kDim = 64;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kGateThreads = 4;

struct RunCost {
  double seconds = 0;
  double model_mb = 0;     // modelled working-set memory
  double measured_mb = 0;  // peak RSS growth of the child that ran it
};

LevaConfig MfConfig() {
  return FastLevaConfig(EmbeddingMethod::kMatrixFactorization, 42, kDim);
}

// A Leva Fit; the RW one also reports the RW estimate (the MF estimate
// comes with the MF stage, RunMfStage).
RunCost RunLeva(EmbeddingMethod method, const Database& db) {
  WallTimer timer;
  LevaModel model(FastLevaConfig(method, 42, kDim));
  bench::CheckOk(model.Fit(db), "fit");
  RunCost cost;
  cost.seconds = timer.ElapsedSeconds();
  if (method == EmbeddingMethod::kRandomWalk) {
    const LevaGraph& g = model.pipeline().graph();
    cost.model_mb = static_cast<double>(EstimateRwMemoryBytes(
                        g.NumNodes(), g.NumEdges(), 20, 5, true)) /
                    kMiB;
  }
  return cost;
}

// Fit's textify and graph stages, run in the parent so that a child forked
// afterwards holds the graph before its MF stage starts.
LevaGraph BuildFitGraph(const Database& db) {
  const LevaConfig config = MfConfig();
  Textifier textifier(config.textify);
  bench::CheckOk(textifier.Fit(db), "textify fit");
  std::vector<TextifiedTable> textified;
  for (const Table& t : db.tables()) {
    textified.push_back(bench::CheckOk(textifier.Transform(t), "textify"));
  }
  return bench::CheckOk(
      BuildGraph(textified, textifier.NumAttributes(), config.graph),
      "build graph");
}

// Fit's MF stage on `g`, with the options Fit hands it, at a fixed
// kGateThreads workers: the estimate holds at every thread count, and a
// fixed count keeps the child's thread stacks and malloc arenas, which its
// RSS growth also counts, the same on every host.
RunCost RunMfStage(const LevaGraph& g) {
  const LevaConfig config = MfConfig();
  const MfOptions mf =
      LevaPipeline::MfStageOptions(config, kDim, kGateThreads);
  WallTimer timer;
  Rng rng(config.seed);
  bench::CheckOk(MatrixFactorizationEmbed(g, mf, &rng), "mf");
  RunCost cost;
  cost.seconds = timer.ElapsedSeconds();
  cost.model_mb = static_cast<double>(EstimateMfMemoryBytes(
                      g.NumNodes(), g.NumEdges(), mf)) /
                  kMiB;
  return cost;
}

RunCost RunEmbdi(const Database& db) {
  WallTimer timer;
  Word2VecOptions w2v;
  w2v.dim = kDim;
  w2v.epochs = 2;
  EmbdiModel model(false, w2v, {}, 42);
  bench::CheckOk(model.Fit(db), "fit embdi");
  RunCost cost;
  cost.seconds = timer.ElapsedSeconds();
  const LevaGraph& g = model.graph();
  cost.model_mb = static_cast<double>(EstimateRwMemoryBytes(
                      g.NumNodes(), g.NumEdges(), 20, 5, false)) /
                  kMiB;
  return cost;
}

// Forks, runs `fit` in the child and ships its cost back through a pipe.
template <typename Fit>
RunCost MeasureInChild(const char* name, Fit fit) {
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
    const double rss_at_fork = static_cast<double>(CurrentRssBytes());
    RunCost cost = fit();
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    cost.measured_mb =
        (static_cast<double>(usage.ru_maxrss) * 1024.0 - rss_at_fork) / kMiB;
    const ssize_t n = ::write(fds[1], &cost, sizeof(cost));
    ::close(fds[1]);
    ::_exit(n == sizeof(cost) ? 0 : 1);
  }
  ::close(fds[1]);
  RunCost cost;
  const ssize_t n = ::read(fds[0], &cost, sizeof(cost));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != sizeof(cost) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FATAL: child for %s failed\n", name);
    std::exit(1);
  }
  return cost;
}

bool Run() {
  std::printf("== Fig. 7a: scalability vs replication factor K ==\n");
  std::printf("%-4s%-8s%-9s%-9s%-9s%-11s%-11s%-11s%-11s%-11s%-11s%-11s\n",
              "K", "rows", "embdi-s", "rw-s", "mf-s", "embdi-MB", "embdi-peak",
              "rw-MB", "rw-peak", "mf-MB", "mf-peak", "mf-stage");

  auto base = bench::CheckOk(GenerateSynthetic(ScalabilityBaseConfig()),
                             "generate");
  bool within_estimate = true;
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const auto db = bench::CheckOk(ReplicateDatabase(base.db, k), "replicate");
    const RunCost embdi =
        MeasureInChild("embdi", [&] { return RunEmbdi(db); });
    const RunCost rw = MeasureInChild(
        "leva-rw", [&] { return RunLeva(EmbeddingMethod::kRandomWalk, db); });
    const RunCost mf = MeasureInChild("leva-mf", [&] {
      return RunLeva(EmbeddingMethod::kMatrixFactorization, db);
    });
    const LevaGraph graph = BuildFitGraph(db);
    const RunCost stage =
        MeasureInChild("mf-stage", [&] { return RunMfStage(graph); });
    std::printf(
        "%-4zu%-8zu%-9.2f%-9.2f%-9.2f%-11.2f%-11.2f%-11.2f%-11.2f%-11.2f"
        "%-11.2f%-11.2f\n",
        k, db.TotalRows(), embdi.seconds, rw.seconds, mf.seconds,
        embdi.model_mb, embdi.measured_mb, rw.model_mb, rw.measured_mb,
        stage.model_mb, mf.measured_mb, stage.measured_mb);
    if (stage.measured_mb > stage.model_mb) {
      std::printf("FAIL: K=%zu the MF stage peaked %.2f MiB above its start, "
                  "%.2f MiB over the %.2f MiB estimate\n",
                  k, stage.measured_mb, stage.measured_mb - stage.model_mb,
                  stage.model_mb);
      within_estimate = false;
    }
  }
  std::printf("\n(-MB: modelled working set; -peak: measured growth of the "
              "Fit's peak RSS in a forked child; mf-stage: the same for "
              "MatrixFactorizationEmbed alone, which must stay within "
              "mf-MB)\n");
  std::printf("(paper Fig. 7a: walk-based methods are ~an order of "
              "magnitude slower than MF; RW needs less memory than MF)\n");
  return within_estimate;
}

}  // namespace
}  // namespace leva

int main() { return leva::Run() ? 0 : 1; }
