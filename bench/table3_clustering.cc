// Reproduces Table 3: percentile L1 distances between node embeddings for
// Within-Entity row groups vs Randomly selected groups, plus the ratio of the
// median distances. Within-entity distances must be smaller (ratio < 1):
// the embedding represents related rows close together (Section 5.1).
#include <algorithm>
#include <cstdio>
#include <map>

#include "baselines/experiment.h"
#include "baselines/leva_model.h"
#include "bench/bench_util.h"
#include "datagen/datasets.h"

namespace leva {
namespace {

// Median pairwise L1 distance of up to `group_size` embedded rows.
double GroupMedianDistance(const Embedding& emb, const std::string& table,
                           const std::vector<size_t>& rows) {
  std::vector<double> distances;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      const auto a = emb.Get(table + ":" + std::to_string(rows[i]));
      const auto b = emb.Get(table + ":" + std::to_string(rows[j]));
      if (a.empty() || b.empty()) continue;
      distances.push_back(Embedding::L1Distance(a, b));
    }
  }
  std::sort(distances.begin(), distances.end());
  return bench::Percentile(distances, 50);
}

void Run() {
  constexpr size_t kGroupSize = 5;
  constexpr size_t kMaxEntities = 1000;

  bench::TablePrinter table({"dataset", "method", "within50", "within90",
                             "random50", "random90", "ratio50"});
  std::printf("== Table 3: percentile L1 distances, Within-Entity vs Random "
              "groups ==\n");
  table.PrintHeader();

  for (const std::string name : {"genes", "bio", "financial"}) {
    auto config = bench::CheckOk(DatasetConfigByName(name), "config");
    auto data = bench::CheckOk(GenerateSynthetic(config), "generate");
    auto task =
        bench::CheckOk(PrepareTask(std::move(data), 0.25, 33), "prepare");

    // Ground truth entity groups: base rows sharing the first FK value.
    const Table* base = task.data.db.FindTable("base");
    std::string fk_column;
    for (const Column& c : base->columns()) {
      if (c.name.rfind("fk_", 0) == 0) {
        fk_column = c.name;
        break;
      }
    }
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t r = 0; r < base->NumRows(); ++r) {
      const Value& v = base->FindColumn(fk_column)->values[r];
      if (!v.is_null()) groups[v.ToDisplayString()].push_back(r);
    }

    for (const EmbeddingMethod method :
         {EmbeddingMethod::kRandomWalk,
          EmbeddingMethod::kMatrixFactorization}) {
      LevaModel model(FastLevaConfig(method, 42, 64));
      bench::CheckOk(model.Fit(task.fit_db), "fit");
      const Embedding& emb = model.embedding();

      Rng rng(7);
      std::vector<double> within;
      std::vector<double> random;
      size_t produced = 0;
      for (const auto& [key, rows] : groups) {
        if (rows.size() < 2) continue;
        std::vector<size_t> group = rows;
        if (group.size() > kGroupSize) group.resize(kGroupSize);
        within.push_back(GroupMedianDistance(emb, "base", group));
        std::vector<size_t> rand_rows(group.size());
        for (size_t& r : rand_rows) r = rng.UniformInt(base->NumRows());
        random.push_back(GroupMedianDistance(emb, "base", rand_rows));
        if (++produced >= kMaxEntities) break;
      }
      const bench::LatencySummary w = bench::SummarizeLatencies(within);
      const bench::LatencySummary r = bench::SummarizeLatencies(random);
      const double ratio = r.p50 > 0 ? w.p50 / r.p50 : 0.0;
      std::printf("%-12s%-12s", name.c_str(),
                  method == EmbeddingMethod::kRandomWalk ? "RW" : "MF");
      std::printf("%-12.3f%-12.3f%-12.3f%-12.3f%-12.3f\n", w.p50, w.p90,
                  r.p50, r.p90, ratio);
    }
  }
  std::printf("\n(paper Table 3: within-entity distances below random; ratio "
              "of medians < 1)\n");
}

}  // namespace
}  // namespace leva

int main() {
  leva::Run();
  return 0;
}
