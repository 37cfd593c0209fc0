// Regression scenario (the Bio dataset): predict a molecule's bioactivity
// from atom- and bond-level tables. Demonstrates the MF/RW choice, the stage
// profile, and embedding serialization.
#include <cstdio>

#include "baselines/experiment.h"
#include "baselines/leva_model.h"
#include "datagen/datasets.h"

using namespace leva;

int main() {
  auto config = DatasetConfigByName("bio");
  if (!config.ok()) return 1;
  auto data = GenerateSynthetic(*config);
  if (!data.ok()) return 1;
  auto task = PrepareTask(std::move(*data), 0.25, 103);
  if (!task.ok()) return 1;

  for (const EmbeddingMethod method :
       {EmbeddingMethod::kMatrixFactorization, EmbeddingMethod::kRandomWalk}) {
    const char* label =
        method == EmbeddingMethod::kMatrixFactorization ? "MF" : "RW";
    LevaModel model(FastLevaConfig(method));
    auto mae =
        EvaluateEmbeddingModel(&model, *task, ModelKind::kElasticNet, 1);
    if (!mae.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label,
                   mae.status().ToString().c_str());
      continue;
    }
    std::printf("Leva-%s  test MAE %.3f   stage profile:", label, *mae);
    for (const auto& [stage, histogram] :
         model.pipeline().metrics().FitStages()) {
      if (histogram->count() > 0) {
        std::printf("  %s=%.3fs", stage, histogram->sum_seconds());
      }
    }
    std::printf("\n");
  }

  // The embedding is a plain token -> vector store; it serializes to text so
  // other systems can consume it.
  LevaModel model(FastLevaConfig(EmbeddingMethod::kMatrixFactorization));
  if (!model.Fit(task->fit_db).ok()) return 1;
  const std::string text = model.embedding().ToText();
  std::printf("Serialized embedding: %zu vectors, %zu bytes of text\n",
              model.embedding().size(), text.size());
  return 0;
}
