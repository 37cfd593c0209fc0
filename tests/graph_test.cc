#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "graph/alias.h"
#include "graph/graph.h"

namespace leva {
namespace {

TEST(AliasTableTest, EmptyAndZeroWeights) {
  EXPECT_TRUE(AliasTable().empty());
  EXPECT_TRUE(AliasTable(std::vector<double>{}).empty());
  EXPECT_TRUE(AliasTable({0.0, 0.0}).empty());
}

TEST(AliasTableTest, SingleOutcome) {
  AliasTable t({3.0});
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.Sample(&rng), 0u);
}

TEST(AliasTableTest, MatchesDistribution) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable t(weights);
  Rng rng(2);
  std::vector<size_t> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t.Sample(&rng)];
  for (size_t k = 0; k < 4; ++k) {
    const double expected = weights[k] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, expected, 0.01);
  }
}

TEST(AliasTableTest, SkewedDistribution) {
  AliasTable t({1000.0, 1.0});
  Rng rng(3);
  size_t rare = 0;
  for (int i = 0; i < 100000; ++i) {
    if (t.Sample(&rng) == 1) ++rare;
  }
  EXPECT_NEAR(static_cast<double>(rare) / 100000.0, 1.0 / 1001.0, 0.002);
}

// Property sweep: alias sampling matches arbitrary random distributions.
class AliasPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AliasPropertyTest, EmpiricalMatchesWeights) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<double> weights(n);
  double total = 0;
  for (double& w : weights) {
    w = rng.Uniform(0.1, 5.0);
    total += w;
  }
  AliasTable t(weights);
  std::vector<size_t> counts(n, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[t.Sample(&rng)];
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / draws, weights[k] / total,
                0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AliasPropertyTest,
                         ::testing::Values<size_t>(2, 3, 7, 16, 33));

// Two tables sharing a key-like token; plus a token shared by coincidence.
std::vector<TextifiedTable> SharedTokenTables() {
  TextifiedTable a;
  a.table_name = "a";
  a.rows = {
      {{0, "k1"}, {1, "red"}},
      {{0, "k2"}, {1, "blue"}},
      {{0, "k3"}, {1, "red"}},
  };
  TextifiedTable b;
  b.table_name = "b";
  b.rows = {
      {{2, "k1"}, {3, "x"}},
      {{2, "k2"}, {3, "y"}},
  };
  return {a, b};
}

TEST(GraphTest, RowAndValueNodes) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->stats().row_nodes, 5u);
  // Shared tokens: k1 (a+b), k2 (a+b), red (2 rows in a). k3, blue, x, y are
  // single-row and get no value node.
  EXPECT_EQ(g->stats().value_nodes, 3u);
  EXPECT_EQ(g->stats().tokens_removed_unshared, 4u);
  EXPECT_NE(g->ValueNode("k1"), kInvalidNode);
  EXPECT_EQ(g->ValueNode("k3"), kInvalidNode);
}

TEST(GraphTest, RowNodeLookup) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  const NodeId r0 = g->RowNode("a", 0);
  ASSERT_NE(r0, kInvalidNode);
  EXPECT_EQ(g->kind(r0), NodeKind::kRow);
  EXPECT_EQ(g->label(r0), "a:0");
  EXPECT_EQ(g->RowNode("a", 99), kInvalidNode);
  EXPECT_EQ(g->RowNode("zzz", 0), kInvalidNode);
}

TEST(GraphTest, TableRowsMatchesRowNode) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  const auto [first, count] = g->TableRows("a");
  ASSERT_NE(first, kInvalidNode);
  EXPECT_EQ(count, 3u);
  for (size_t r = 0; r < count; ++r) {
    EXPECT_EQ(first + r, g->RowNode("a", r));
  }
  const auto [none, zero] = g->TableRows("zzz");
  EXPECT_EQ(none, kInvalidNode);
  EXPECT_EQ(zero, 0u);
}

TEST(GraphTest, EdgesConnectRowsViaValueNodes) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  const NodeId k1 = g->ValueNode("k1");
  const auto nbrs = g->Neighbors(k1);
  ASSERT_EQ(nbrs.size(), 2u);
  std::set<std::string> labels;
  for (const NodeId n : nbrs) labels.insert(g->label(n));
  EXPECT_TRUE(labels.count("a:0"));
  EXPECT_TRUE(labels.count("b:0"));
}

TEST(GraphTest, GraphIsBipartite) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  for (NodeId n = 0; n < g->NumNodes(); ++n) {
    for (const NodeId m : g->Neighbors(n)) {
      EXPECT_NE(g->kind(n), g->kind(m));
    }
  }
}

TEST(GraphTest, WeightsInverseToValueDegree) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  const NodeId k1 = g->ValueNode("k1");  // degree 2
  for (const float w : g->Weights(k1)) EXPECT_FLOAT_EQ(w, 0.5f);
}

TEST(GraphTest, UnweightedOption) {
  GraphOptions options;
  options.weighted = false;
  const auto g = BuildGraph(SharedTokenTables(), 4, options);
  ASSERT_TRUE(g.ok());
  const NodeId k1 = g->ValueNode("k1");
  for (const float w : g->Weights(k1)) EXPECT_FLOAT_EQ(w, 1.0f);
}

TEST(GraphTest, ThetaRangeRemovesMissingTokens) {
  // "?" appears under 3 of 4 attributes -> 75% > theta_range 50% -> removed.
  TextifiedTable a;
  a.table_name = "a";
  a.rows = {
      {{0, "?"}, {1, "?"}},
      {{0, "k"}, {1, "v"}},
      {{0, "k"}, {1, "v"}},
  };
  TextifiedTable b;
  b.table_name = "b";
  b.rows = {{{2, "?"}, {3, "w"}}, {{2, "z"}, {3, "w"}}};
  const auto g = BuildGraph({a, b}, 4);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ValueNode("?"), kInvalidNode);
  EXPECT_EQ(g->stats().tokens_removed_missing, 1u);
  EXPECT_NE(g->ValueNode("k"), kInvalidNode);
  EXPECT_NE(g->ValueNode("w"), kInvalidNode);
}

TEST(GraphTest, ThetaMinDropsAccidentalCollisions) {
  // "washington" appears 20x under attr 0 (Name) and once under attr 1
  // (State): the State occurrence is below theta_min = 5% of 21 votes.
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 20; ++i) {
    t.rows.push_back({{0, "washington"}});
  }
  t.rows.push_back({{1, "washington"}});
  GraphOptions options;
  options.theta_min = 0.10;  // 10% of 21 votes ~= 2.1 > 1
  // 10 total attributes in the "database": 2 distinct attributes is well
  // under theta_range, so the token survives to the theta_min stage.
  const auto g = BuildGraph({t}, 10, options);
  ASSERT_TRUE(g.ok());
  const NodeId v = g->ValueNode("washington");
  ASSERT_NE(v, kInvalidNode);
  // Only the 20 Name rows connect; the State row was refined away.
  EXPECT_EQ(g->Degree(v), 20u);
  EXPECT_GT(g->stats().votes_dropped_lowevidence, 0u);
}

TEST(GraphTest, InvalidThetasRejected) {
  GraphOptions bad;
  bad.theta_range = 0.0;
  EXPECT_FALSE(BuildGraph({}, 1, bad).ok());
  bad.theta_range = 0.5;
  bad.theta_min = 1.0;
  EXPECT_FALSE(BuildGraph({}, 1, bad).ok());
}

TEST(GraphTest, DuplicateTableRejected) {
  TextifiedTable t;
  t.table_name = "t";
  EXPECT_FALSE(BuildGraph({t, t}, 1).ok());
}

TEST(GraphTest, NeighborListsSorted) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  for (NodeId n = 0; n < g->NumNodes(); ++n) {
    const auto nbrs = g->Neighbors(n);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1], nbrs[i]);
    }
  }
}

TEST(GraphTest, EdgeCountConsistency) {
  const auto g = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g.ok());
  size_t total_degree = 0;
  for (NodeId n = 0; n < g->NumNodes(); ++n) total_degree += g->Degree(n);
  EXPECT_EQ(total_degree, 2 * g->NumEdges());
  EXPECT_EQ(g->NumEdges(), g->stats().edges);
}

TEST(GraphTest, DeterministicNodeOrdering) {
  const auto g1 = BuildGraph(SharedTokenTables(), 4);
  const auto g2 = BuildGraph(SharedTokenTables(), 4);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_EQ(g1->NumNodes(), g2->NumNodes());
  for (NodeId n = 0; n < g1->NumNodes(); ++n) {
    EXPECT_EQ(g1->label(n), g2->label(n));
  }
}

TEST(GraphBuilderTest, BuildsArbitraryGraphs) {
  GraphBuilder builder;
  const NodeId r0 = builder.AddNode(NodeKind::kRow, "t:0");
  const NodeId r1 = builder.AddNode(NodeKind::kRow, "t:1");
  const NodeId v = builder.AddNode(NodeKind::kValue, "tok");
  builder.RegisterTableRows("t", r0, 2);
  ASSERT_TRUE(builder.AddEdge(r0, v, 2.0f).ok());
  ASSERT_TRUE(builder.AddEdge(r1, v, 3.0f).ok());
  const LevaGraph g = std::move(builder).Build();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.RowNode("t", 1), r1);
  EXPECT_EQ(g.ValueNode("tok"), v);
  EXPECT_EQ(g.Degree(v), 2u);
}

TEST(GraphBuilderTest, OutOfRangeEdgeRejected) {
  GraphBuilder builder;
  builder.AddNode(NodeKind::kRow, "t:0");
  EXPECT_FALSE(builder.AddEdge(0, 5).ok());
}

TEST(GraphTest, ValueNodeCountReduction) {
  // N rows sharing one value: value nodes give O(N) edges, not O(N^2).
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 100; ++i) t.rows.push_back({{0, "shared"}});
  const auto g = BuildGraph({t}, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 100u);  // vs 100*99/2 pairwise
}

}  // namespace
}  // namespace leva
