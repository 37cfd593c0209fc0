// CSV workflow: the path a real user takes — load a handful of CSVs they do
// not know the join structure of, fit Leva, inspect what the system inferred
// (column classes, graph statistics, removed dirty tokens), and export the
// embedding.
#include <cstdio>

#include "core/pipeline.h"
#include "table/csv.h"

using namespace leva;

namespace {

// Three CSVs "found on a shared drive": note the dirty "?" markers, the
// shared customer ids that imply a join, and "Washington" appearing both as
// a person and a city (the accidental-collision case of Section 3.2).
constexpr const char* kOrdersCsv =
    "order_id,customer,city,amount\n"
    "o1,c1,Seattle,120.5\n"
    "o2,c2,Washington,80.0\n"
    "o3,c1,Seattle,99.9\n"
    "o4,c3,?,45.0\n"
    "o5,c4,Portland,300.2\n"
    "o6,c2,Washington,75.5\n"
    "o7,c5,Seattle,12.0\n"
    "o8,c6,Portland,88.8\n";

constexpr const char* kCustomersCsv =
    "cust_id,name,segment\n"
    "c1,Alice,retail\n"
    "c2,Washington,wholesale\n"
    "c3,Carol,retail\n"
    "c4,Dan,?\n"
    "c5,Eve,wholesale\n"
    "c6,Frank,retail\n";

constexpr const char* kSegmentsCsv =
    "segment,discount\n"
    "retail,0.05\n"
    "wholesale,0.12\n";

}  // namespace

int main() {
  Database db;
  struct Source {
    const char* name;
    const char* csv;
  };
  for (const Source& src : {Source{"orders", kOrdersCsv},
                            Source{"customers", kCustomersCsv},
                            Source{"segments", kSegmentsCsv}}) {
    auto table = ReadCsvString(src.csv, src.name);
    if (!table.ok()) {
      std::fprintf(stderr, "csv %s: %s\n", src.name,
                   table.status().ToString().c_str());
      return 1;
    }
    std::printf("Loaded %-10s %zu rows x %zu columns\n", src.name,
                table->NumRows(), table->NumColumns());
    (void)db.AddTable(std::move(*table));
  }

  LevaConfig config;
  config.embedding_dim = 16;
  config.textify.bin_count = 4;   // tiny data, tiny histograms
  config.graph.theta_min = 0.0;   // keep every attribute at this scale
  LevaPipeline pipeline(config);
  if (Status s = pipeline.Fit(db); !s.ok()) {
    std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("\nWhat Leva inferred:\n");
  for (const Table& t : db.tables()) {
    for (const Column& c : t.columns()) {
      const Textifier::ColumnState* state =
          pipeline.textifier().FindColumn(t.name(), c.name);
      std::printf("  %-20s -> %s\n", (t.name() + "." + c.name).c_str(),
                  state != nullptr ? ColumnClassName(state->cls).c_str() : "?");
    }
  }
  const GraphStats& stats = pipeline.graph().stats();
  std::printf("\nGraph: %zu row nodes, %zu value nodes, %zu edges\n",
              stats.row_nodes, stats.value_nodes, stats.edges);
  std::printf("Refinement removed %zu missing-data tokens and %zu "
              "single-row tokens\n",
              stats.tokens_removed_missing, stats.tokens_removed_unshared);

  // The shared customer ids became value nodes: the reconstructed join.
  std::printf("\nReconstructed join evidence (value node for 'c1'): %s\n",
              pipeline.graph().ValueNode("c1") != kInvalidNode ? "present"
                                                               : "absent");
  std::printf("Dirty token '?' kept? %s\n",
              pipeline.graph().ValueNode("?") != kInvalidNode ? "yes" : "no");

  std::printf("\nEmbedding exported: %zu vectors of dim %zu\n",
              pipeline.embedding().size(), pipeline.embedding().dim());
  return 0;
}
