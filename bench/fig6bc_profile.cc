// Reproduces Fig. 6b/6c: per-stage wall-clock profile of the Leva pipeline
// for the RW and MF embedding methods.
//
// Expected shape: embedding construction (walk generation + training, or
// factorization) dominates; textification and graph construction are
// negligible.
#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/experiment.h"
#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "datagen/datasets.h"

namespace leva {
namespace {

void Profile(const char* label, EmbeddingMethod method,
             const SyntheticDataset& data) {
  LevaPipeline pipeline(FastLevaConfig(method, 42, 64));
  bench::CheckOk(pipeline.Fit(data.db), "fit");

  // Serving stage: featurize the base table so deployment cost appears in
  // the profile next to the fit stages.
  const Table* base = data.db.FindTable(data.base_table);
  TargetEncoder encoder;
  bench::CheckOk(
      encoder.Fit(*base->FindColumn(data.target_column), data.classification),
      "encoder");
  bench::CheckOk(pipeline
                     .Featurize(*base, data.target_column, encoder,
                                /*rows_in_graph=*/true)
                     .status(),
                 "featurize");

  const PipelineMetrics& m = pipeline.metrics();
  std::vector<std::pair<const char*, double>> stages;
  for (const auto& [stage, histogram] : m.FitStages()) {
    if (histogram->count() > 0) {
      stages.emplace_back(stage, histogram->sum_seconds());
    }
  }
  stages.emplace_back("featurize", m.featurize.sum_seconds());
  double total = 0;
  for (const auto& [stage, seconds] : stages) total += seconds;
  std::printf("\n-- %s (total %.3fs) --\n", label, total);
  std::printf("%-24s%-12s%-10s\n", "stage", "seconds", "share");
  for (const auto& [stage, seconds] : stages) {
    std::printf("%-24s%-12.4f%-10.1f%%\n", stage, seconds,
                total > 0 ? 100.0 * seconds / total : 0.0);
  }
}

void Run() {
  std::printf("== Fig. 6b/6c: pipeline performance profiles ==\n");
  auto config = bench::CheckOk(DatasetConfigByName("financial"), "config");
  auto data = bench::CheckOk(GenerateSynthetic(config), "generate");

  Profile("Fig. 6b: random-walk method", EmbeddingMethod::kRandomWalk, data);
  Profile("Fig. 6c: matrix-factorization method",
          EmbeddingMethod::kMatrixFactorization, data);

  std::printf("\n(paper Fig. 6b/6c: embedding construction dominates; "
              "textification + graph stages are negligible)\n");
}

}  // namespace
}  // namespace leva

int main() {
  leva::Run();
  return 0;
}
