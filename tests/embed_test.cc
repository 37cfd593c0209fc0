#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "embed/embedding.h"
#include "embed/line.h"
#include "embed/mf.h"
#include "embed/walks_batched.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "reference/la_reference.h"
#include "reference/word2vec_reference.h"

namespace leva {
namespace {

TEST(EmbeddingTest, PutGetRoundTrip) {
  Embedding e(3);
  ASSERT_TRUE(e.Put("a", std::vector<double>{1, 2, 3}).ok());
  const auto v = e.Get("a");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_TRUE(e.Get("missing").empty());
  EXPECT_TRUE(e.Has("a"));
  EXPECT_FALSE(e.Has("b"));
}

TEST(EmbeddingTest, IntegerIdInterface) {
  Embedding e(2);
  ASSERT_TRUE(e.Put("a", std::vector<double>{1, 2}).ok());
  ASSERT_TRUE(e.Put("b", std::vector<double>{3, 4}).ok());
  const size_t a = e.IdOf("a");
  const size_t b = e.IdOf("b");
  ASSERT_NE(a, Embedding::kInvalidId);
  ASSERT_NE(b, Embedding::kInvalidId);
  EXPECT_NE(a, b);
  EXPECT_EQ(e.IdOf("missing"), Embedding::kInvalidId);
  // Ids index the contiguous store, aligned with keys()/Get().
  EXPECT_EQ(e.keys()[a], "a");
  const auto by_id = e.GetById(b);
  const auto by_key = e.Get("b");
  ASSERT_EQ(by_id.size(), by_key.size());
  EXPECT_EQ(by_id.data(), by_key.data());
  EXPECT_EQ(e.RowPtr(a), e.Get("a").data());
  // Overwrites keep ids stable.
  ASSERT_TRUE(e.Put("a", std::vector<double>{9, 9}).ok());
  EXPECT_EQ(e.IdOf("a"), a);
  EXPECT_DOUBLE_EQ(e.GetById(a)[0], 9.0);
}

TEST(EmbeddingTest, DimensionMismatchRejected) {
  Embedding e(3);
  EXPECT_FALSE(e.Put("a", std::vector<double>{1, 2}).ok());
}

TEST(EmbeddingTest, OverwriteUpdatesInPlace) {
  Embedding e(2);
  ASSERT_TRUE(e.Put("a", std::vector<double>{1, 1}).ok());
  ASSERT_TRUE(e.Put("a", std::vector<double>{5, 6}).ok());
  EXPECT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e.Get("a")[0], 5.0);
}

// Put into a quantized store encodes the row at the store's tier, exactly
// as WithTier encodes it, and leaves every other row's bytes alone.
TEST(EmbeddingTest, PutKeepsTheStoreTier) {
  Embedding fp64(5);
  const std::vector<double> rows[] = {{0.5, -1.25, 3.0, 0.0, 7.5},
                                      {-2.0, 0.125, 0.75, -9.0, 1.0},
                                      {4.0, 4.5, -0.5, 2.25, -3.75}};
  ASSERT_TRUE(fp64.Put("a", rows[0]).ok());
  ASSERT_TRUE(fp64.Put("b", rows[1]).ok());
  const std::vector<double> fresh = {1.5, -6.0, 0.25, 8.0, -0.125};
  for (const StorageTier tier : {StorageTier::kBf16, StorageTier::kInt8}) {
    SCOPED_TRACE(StorageTierName(tier));
    Embedding store = fp64.WithTier(tier);
    const Embedding before = store.WithTier(tier);
    ASSERT_TRUE(store.Put("b", fresh).ok());  // overwrite
    ASSERT_TRUE(store.Put("c", rows[2]).ok());  // append
    EXPECT_EQ(store.tier(), tier);
    ASSERT_EQ(store.size(), 3u);

    // What WithTier makes of the same fp64 rows.
    Embedding want_fp64 = fp64;
    ASSERT_TRUE(want_fp64.Put("b", fresh).ok());
    ASSERT_TRUE(want_fp64.Put("c", rows[2]).ok());
    const Embedding want = want_fp64.WithTier(tier);
    if (tier == StorageTier::kBf16) {
      EXPECT_TRUE(std::equal(store.bf16_data().begin(),
                             store.bf16_data().end(),
                             want.bf16_data().begin(),
                             want.bf16_data().end()));
      // Row "a" was not touched: its bytes are the pre-Put ones.
      EXPECT_TRUE(std::equal(before.bf16_data().begin(),
                             before.bf16_data().begin() + 5,
                             store.bf16_data().begin()));
    } else {
      EXPECT_TRUE(std::equal(store.int8_data().begin(),
                             store.int8_data().end(),
                             want.int8_data().begin(),
                             want.int8_data().end()));
      EXPECT_TRUE(std::equal(store.scales().begin(), store.scales().end(),
                             want.scales().begin(), want.scales().end()));
      EXPECT_TRUE(std::equal(before.int8_data().begin(),
                             before.int8_data().begin() + 5,
                             store.int8_data().begin()));
      EXPECT_EQ(store.RowScale(0), before.RowScale(0));
    }
  }
}

// Fit's hand-off: the node matrix's buffer becomes the store's block, row n
// under node n's label.
TEST(EmbeddingTest, FromNodeVectorsAdoptsTheMatrixBuffer) {
  GraphBuilder builder;
  builder.AddNode(NodeKind::kRow, "t:0");
  builder.AddNode(NodeKind::kValue, "x");
  builder.AddNode(NodeKind::kValue, "y");
  const LevaGraph g = std::move(builder).Build();
  Matrix vectors(3, 2);
  for (size_t i = 0; i < 6; ++i) vectors.mutable_data()[i] = 0.5 * i;
  const double* buffer = vectors.data().data();
  auto e = Embedding::FromNodeVectors(g, std::move(vectors));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->data().data(), buffer);
  ASSERT_EQ(e->size(), 3u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(e->IdOf(g.label(n)), n);
    EXPECT_EQ(e->Get(g.label(n))[1], 0.5 * (2 * n + 1));
  }
  EXPECT_FALSE(Embedding::FromNodeVectors(g, Matrix(2, 2)).ok());
}

// A value token spelled like a row label shares its key: the store keeps
// one row, the later node's, as Put of each row in node order does.
TEST(EmbeddingTest, FromNodeVectorsKeepsTheLaterRowOfASharedLabel) {
  GraphBuilder builder;
  builder.AddNode(NodeKind::kRow, "t:0");
  builder.AddNode(NodeKind::kValue, "x");
  builder.AddNode(NodeKind::kValue, "t:0");
  builder.AddNode(NodeKind::kValue, "y");
  const LevaGraph g = std::move(builder).Build();
  Matrix vectors(4, 2);
  for (size_t i = 0; i < 8; ++i) vectors.mutable_data()[i] = 1.0 + i;
  Embedding want(2);
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_TRUE(want.Put(g.label(n), {vectors.RowPtr(n), 2}).ok());
  }
  auto got = Embedding::FromNodeVectors(g, std::move(vectors));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->keys(), want.keys());
  ASSERT_EQ(got->data().size(), want.data().size());
  EXPECT_TRUE(std::equal(got->data().begin(), got->data().end(),
                         want.data().begin()));
}

TEST(EmbeddingTest, TextSerializationRoundTrip) {
  Embedding e(2);
  ASSERT_TRUE(e.Put("alpha", std::vector<double>{1.5, -2.25}).ok());
  ASSERT_TRUE(e.Put("beta", std::vector<double>{0, 3}).ok());
  const auto back = Embedding::FromText(e.ToText());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_DOUBLE_EQ(back->Get("alpha")[1], -2.25);
}

TEST(EmbeddingTest, FromTextRejectsNonFiniteValues) {
  const auto nan = Embedding::FromText("1 2\nkey nan 1.0\n");
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan.status().message().find("key"), std::string::npos);
  const auto inf = Embedding::FromText("1 2\nkey 1.0 inf\n");
  ASSERT_FALSE(inf.ok());
  EXPECT_EQ(inf.status().code(), StatusCode::kInvalidArgument);
  const auto neg_inf = Embedding::FromText("1 1\nkey -inf\n");
  EXPECT_FALSE(neg_inf.ok());
}

TEST(EmbeddingTest, FromTextRejectsDuplicateKeys) {
  const auto dup = Embedding::FromText("2 1\nkey 1.0\nkey 2.0\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
}

TEST(EmbeddingTest, Distances) {
  const std::vector<double> a = {1, 0};
  const std::vector<double> b = {0, 1};
  EXPECT_DOUBLE_EQ(Embedding::L1Distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(Embedding::L1Distance(a, a), 0.0);
}

// A small connected bipartite graph for walk tests.
LevaGraph ChainGraph() {
  TextifiedTable t;
  t.table_name = "t";
  t.rows = {
      {{0, "v1"}},
      {{0, "v1"}, {1, "v2"}},
      {{1, "v2"}, {2, "v3"}},
      {{2, "v3"}},
  };
  auto g = BuildGraph({t}, 3);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(WalksTest, GeneratesOneWalkPerNodePerEpoch) {
  const LevaGraph g = ChainGraph();
  WalkOptions options;
  options.epochs = 3;
  options.walk_length = 10;
  BatchedWalkGenerator generator(&g, options);
  Rng rng(1);
  const auto corpus = generator.Generate(&rng);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->size(), 3 * g.NumNodes());
}

TEST(WalksTest, WalksStayInGraph) {
  const LevaGraph g = ChainGraph();
  WalkOptions options;
  options.epochs = 2;
  BatchedWalkGenerator generator(&g, options);
  Rng rng(2);
  const auto corpus = generator.Generate(&rng);
  ASSERT_TRUE(corpus.ok());
  for (size_t w = 0; w < corpus->size(); ++w) {
    const auto walk = (*corpus)[w];
    EXPECT_LE(walk.size(), options.walk_length);
    for (const NodeId n : walk) EXPECT_LT(n, g.NumNodes());
    // Consecutive nodes must be neighbors.
    for (size_t i = 1; i < walk.size(); ++i) {
      const auto nbrs = g.Neighbors(walk[i - 1]);
      EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), walk[i]) != nbrs.end());
    }
  }
}

TEST(WalksTest, DeterministicGivenSeed) {
  const LevaGraph g = ChainGraph();
  WalkOptions options;
  options.epochs = 2;
  BatchedWalkGenerator g1(&g, options);
  BatchedWalkGenerator g2(&g, options);
  Rng r1(7);
  Rng r2(7);
  const auto c1 = g1.Generate(&r1);
  const auto c2 = g2.Generate(&r2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(c1->size(), c2->size());
  EXPECT_EQ(c1->tokens(), c2->tokens());
  EXPECT_EQ(c1->offsets(), c2->offsets());
}

TEST(WalksTest, VisitLimitSuppressesHotNodes) {
  const LevaGraph g = ChainGraph();
  WalkOptions options;
  options.epochs = 5;
  options.walk_length = 30;
  options.visit_limit = 10;
  BatchedWalkGenerator generator(&g, options);
  Rng rng(3);
  const auto corpus = generator.Generate(&rng);
  ASSERT_TRUE(corpus.ok());
  std::vector<size_t> emitted(g.NumNodes(), 0);
  for (const NodeId n : corpus->tokens()) ++emitted[n];
  for (const size_t count : emitted) EXPECT_LE(count, 10u);
}

TEST(WalksTest, BalancedRestartsBoostWorstNodes) {
  const LevaGraph g = ChainGraph();
  Rng rng_a(4);
  Rng rng_b(4);
  WalkOptions plain;
  plain.epochs = 10;
  WalkOptions balanced = plain;
  balanced.balanced_restarts = true;
  balanced.restart_epochs = 4;

  BatchedWalkGenerator ga(&g, plain);
  ASSERT_TRUE(ga.Generate(&rng_a).ok());
  const auto visits_plain = ga.visit_counts();
  BatchedWalkGenerator gb(&g, balanced);
  ASSERT_TRUE(gb.Generate(&rng_b).ok());
  const auto visits_balanced = gb.visit_counts();

  // The minimum visit count should not get worse with balancing.
  const size_t min_plain =
      *std::min_element(visits_plain.begin(), visits_plain.end());
  const size_t min_balanced =
      *std::min_element(visits_balanced.begin(), visits_balanced.end());
  EXPECT_GE(min_balanced + 5, min_plain);  // allow slack, but no collapse
}

TEST(WalksTest, WeightedUsesAliasTables) {
  const LevaGraph g = ChainGraph();
  WalkOptions weighted;
  weighted.weighted = true;
  BatchedWalkGenerator gw(&g, weighted);
  EXPECT_GT(gw.AliasMemoryBytes(), 0u);

  WalkOptions unweighted;
  unweighted.weighted = false;
  BatchedWalkGenerator gu(&g, unweighted);
  EXPECT_EQ(gu.AliasMemoryBytes(), 0u);
}

TEST(WalksTest, Node2VecBiasChangesWalks) {
  const LevaGraph g = ChainGraph();
  WalkOptions plain;
  plain.epochs = 6;
  plain.weighted = false;
  WalkOptions biased = plain;
  biased.p = 4.0;  // discourage returning
  biased.q = 0.25;

  Rng r1(5);
  Rng r2(5);
  BatchedWalkGenerator g1(&g, plain);
  BatchedWalkGenerator g2(&g, biased);
  const auto c1 = g1.Generate(&r1);
  const auto c2 = g2.Generate(&r2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Count immediate backtracks u -> v -> u; p > 1 should reduce them.
  auto backtracks = [](const FlatCorpus& c) {
    size_t n = 0;
    for (size_t w = 0; w < c.size(); ++w) {
      const auto walk = c[w];
      for (size_t i = 2; i < walk.size(); ++i) {
        if (walk[i] == walk[i - 2]) ++n;
      }
    }
    return n;
  };
  EXPECT_LT(backtracks(*c2), backtracks(*c1));
}

TEST(Word2VecTest, TrainsAndEmbedsCooccurringTokens) {
  // Corpus where tokens 0/1 always co-occur and 2/3 always co-occur.
  std::vector<std::vector<uint32_t>> corpus;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    if (i % 2 == 0) {
      corpus.push_back({0, 1, 0, 1, 0, 1});
    } else {
      corpus.push_back({2, 3, 2, 3, 2, 3});
    }
  }
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 5;
  Word2Vec model(options);
  ASSERT_TRUE(model.Train(Flatten(corpus), 4, &rng).ok());
  const Matrix& vecs = model.node_vectors();

  auto cosine = [&](size_t a, size_t b) {
    double dot = 0;
    double na = 0;
    double nb = 0;
    for (size_t j = 0; j < 16; ++j) {
      dot += vecs(a, j) * vecs(b, j);
      na += vecs(a, j) * vecs(a, j);
      nb += vecs(b, j) * vecs(b, j);
    }
    return dot / std::sqrt(na * nb);
  };
  // Same-cluster similarity should exceed cross-cluster similarity.
  EXPECT_GT(cosine(0, 1), cosine(0, 2));
  EXPECT_GT(cosine(2, 3), cosine(1, 3));
}

TEST(Word2VecTest, RejectsBadInput) {
  Rng rng(7);
  Word2Vec model;
  EXPECT_FALSE(model.Train(FlatCorpus(), 0, &rng).ok());
  using Nested = std::vector<std::vector<uint32_t>>;
  EXPECT_FALSE(model.Train(Flatten(Nested{{5}}), 3, &rng).ok());  // id range
  EXPECT_FALSE(model.Train(Flatten(Nested{{}}), 3, &rng).ok());  // empty
  EXPECT_FALSE(model.Train(Flatten(Nested{{0}}), 3, nullptr).ok());
}

TEST(MfTest, ProximityMatrixOnlyOnEdges) {
  const LevaGraph g = ChainGraph();
  const SparseMatrix m = BuildProximityMatrix(g, 1e-3);
  EXPECT_EQ(m.rows(), g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    const auto nbrs = g.Neighbors(i);
    const std::set<NodeId> nbr_set(nbrs.begin(), nbrs.end());
    for (NodeId j = 0; j < g.NumNodes(); ++j) {
      if (nbr_set.count(j) == 0) {
        EXPECT_DOUBLE_EQ(SparseAt(m, i, j), 0.0);
      }
    }
  }
}

TEST(MfTest, ProximityValuesPositiveWithSmallTau) {
  const LevaGraph g = ChainGraph();
  const SparseMatrix m = BuildProximityMatrix(g, 1e-3);
  for (const double v : m.values()) EXPECT_GT(v, 0.0);
}

TEST(MfTest, NormalizedAdjacencySpectralRadiusBounded) {
  const LevaGraph g = ChainGraph();
  const SparseMatrix a = NormalizedAdjacency(g);
  // Power iteration estimate of the largest |eigenvalue|; must be <= 1.
  Rng rng(8);
  Matrix x = Matrix::GaussianRandom(g.NumNodes(), 1, &rng);
  double lambda = 0;
  for (int it = 0; it < 50; ++it) {
    const Matrix y = a.Multiply(x);
    lambda = FrobeniusNorm(y) / FrobeniusNorm(x);
    x = y;
    const double norm = FrobeniusNorm(x);
    if (norm > 0) x.Scale(1.0 / norm);
  }
  EXPECT_LE(lambda, 1.0 + 1e-6);
}

TEST(MfTest, EmbedProducesRequestedShape) {
  const LevaGraph g = ChainGraph();
  Rng rng(9);
  MfOptions options;
  options.dim = 4;
  options.spectral_propagation = false;
  const auto e = MatrixFactorizationEmbed(g, options, &rng);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->rows(), g.NumNodes());
  EXPECT_EQ(e->cols(), 4u);
}

TEST(MfTest, SpectralPropagationPreservesShape) {
  const LevaGraph g = ChainGraph();
  Rng rng(10);
  MfOptions options;
  options.dim = 4;
  options.spectral_propagation = true;
  const auto e = MatrixFactorizationEmbed(g, options, &rng);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->rows(), g.NumNodes());
  EXPECT_EQ(e->cols(), 4u);
  // Propagation must produce finite values.
  for (const double v : e->data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(MfTest, SpectralPropagateValidatesShape) {
  const LevaGraph g = ChainGraph();
  EXPECT_FALSE(SpectralPropagate(g, Matrix(2, 3), 5, 0.2, 0.5).ok());
}

// Each proximity row comes out sorted by column with no repeats: the CSR
// FromTriplets builds from the same entries in any order.
TEST(MfTest, ProximityMatrixIsCanonicalCsr) {
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 60; ++i) {
    t.rows.push_back({{0, "hub" + std::to_string(i % 3)},
                      {1, "k" + std::to_string(i % 7)},
                      {2, "z" + std::to_string(i % 11)}});
  }
  const auto g = BuildGraph({t}, 3);
  ASSERT_TRUE(g.ok());
  const SparseMatrix m =
      BuildProximityMatrix(*g, 1e-3, /*window=*/3, /*max_row_entries=*/16);
  std::vector<Triplet> triplets;
  for (size_t r = m.rows(); r-- > 0;) {
    for (size_t i = m.offsets()[r + 1]; i-- > m.offsets()[r];) {
      triplets.push_back({static_cast<uint32_t>(r), m.col_indices()[i],
                          m.values()[i]});
    }
  }
  const SparseMatrix rebuilt =
      SparseMatrix::FromTriplets(m.rows(), m.cols(), std::move(triplets));
  EXPECT_EQ(m.offsets(), rebuilt.offsets());
  EXPECT_EQ(m.col_indices(), rebuilt.col_indices());
  EXPECT_EQ(m.values(), rebuilt.values());
}

// The estimate's terms: the SVD peak holds the transposed product's operand
// and result plus its TransposeChunks(n) - 1 partials, however many workers
// run it, and the proximity matrix grows with the window.
TEST(MfTest, MemoryEstimateBoundsPartialsAtAnyThreadCount) {
  MfOptions mf;
  mf.dim = 64;
  const size_t base = EstimateMfMemoryBytes(5000, 20000, mf);
  for (const size_t threads : {size_t{0}, size_t{4}, size_t{64}}) {
    mf.threads = threads;
    EXPECT_EQ(EstimateMfMemoryBytes(5000, 20000, mf), base) << threads;
  }
  // One more column widens each of the 2 + 7 n x k matrices by n doubles.
  ASSERT_EQ(SparseMatrix::TransposeChunks(5000), 8u);
  mf.dim = 65;
  EXPECT_EQ(EstimateMfMemoryBytes(5000, 20000, mf) - base,
            9 * 5000 * sizeof(double));
  // Under two chunks' worth of rows the product has no partials.
  ASSERT_EQ(SparseMatrix::TransposeChunks(400), 1u);
  const size_t wider = EstimateMfMemoryBytes(400, 1000, mf);
  mf.dim = 64;
  EXPECT_EQ(wider - EstimateMfMemoryBytes(400, 1000, mf),
            2 * 400 * sizeof(double));
  mf.window = 3;
  EXPECT_GT(EstimateMfMemoryBytes(5000, 20000, mf), base);
}

TEST(MfTest, MemoryEstimatesMonotone) {
  MfOptions mf;
  mf.dim = 32;
  EXPECT_LT(EstimateMfMemoryBytes(100, 500, mf),
            EstimateMfMemoryBytes(1000, 5000, mf));
  EXPECT_LT(EstimateRwMemoryBytes(100, 500, 80, 10, false),
            EstimateRwMemoryBytes(100, 500, 80, 10, true));
}

TEST(MfTest, ClusteringEffect) {
  // Two clusters of rows sharing distinct tokens: MF embeddings must place
  // same-cluster rows closer (the Section 5.1 property).
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 10; ++i) {
    t.rows.push_back({{0, i < 5 ? "left" : "right"}});
  }
  const auto g = BuildGraph({t}, 1);
  ASSERT_TRUE(g.ok());
  Rng rng(11);
  MfOptions options;
  options.dim = 4;
  const auto e = MatrixFactorizationEmbed(*g, options, &rng);
  ASSERT_TRUE(e.ok());
  const NodeId a = g->RowNode("t", 0);
  const NodeId b = g->RowNode("t", 1);  // same cluster
  const NodeId c = g->RowNode("t", 7);  // other cluster
  auto l1 = [&](NodeId x, NodeId y) {
    double d = 0;
    for (size_t j = 0; j < e->cols(); ++j) {
      d += std::fabs((*e)(x, j) - (*e)(y, j));
    }
    return d;
  };
  EXPECT_LT(l1(a, b), l1(a, c));
}

TEST(MfTest, WindowedProximityReachesTwoHops) {
  // Chain graph: row0 - v1 - row1 - v2 - row2 - v3 - row3.
  const LevaGraph g = ChainGraph();
  const NodeId r0 = g.RowNode("t", 0);
  const NodeId r1 = g.RowNode("t", 1);
  const SparseMatrix m1 = BuildProximityMatrix(g, 1e-3, /*window=*/1);
  const SparseMatrix m2 = BuildProximityMatrix(g, 1e-3, /*window=*/2);
  // Row nodes are two hops apart: connected only under window >= 2.
  EXPECT_DOUBLE_EQ(SparseAt(m1, r0, r1), 0.0);
  EXPECT_GT(SparseAt(m2, r0, r1), 0.0);
  EXPECT_GE(m2.nnz(), m1.nnz());
}

TEST(MfTest, WindowPruningBoundsRowDensity) {
  // A dense hub: 40 rows all sharing one token; window 2 connects every row
  // pair, and max_row_entries must cap the per-row fill.
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 40; ++i) t.rows.push_back({{0, "hub"}});
  const auto g = BuildGraph({t}, 1);
  ASSERT_TRUE(g.ok());
  const SparseMatrix pruned =
      BuildProximityMatrix(*g, 1e-3, /*window=*/2, /*max_row_entries=*/8);
  for (size_t r = 0; r < pruned.rows(); ++r) {
    // True edges (1-hop, never pruned) + capped 2-hop frontier.
    EXPECT_LE(pruned.offsets()[r + 1] - pruned.offsets()[r],
              g->Degree(static_cast<NodeId>(r)) + 8u);
  }
}

TEST(MfTest, WindowOneMatchesEdgeProximity) {
  const LevaGraph g = ChainGraph();
  const SparseMatrix direct = BuildProximityMatrix(g, 1e-3, 1);
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    for (const NodeId j : g.Neighbors(i)) {
      EXPECT_GT(SparseAt(direct, i, j), 0.0);
    }
  }
}

TEST(LineTest, ProducesRequestedShape) {
  const LevaGraph g = ChainGraph();
  Rng rng(21);
  LineOptions options;
  options.dim = 8;
  options.samples_per_edge = 50;
  const auto e = LineEmbed(g, options, &rng);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->rows(), g.NumNodes());
  EXPECT_EQ(e->cols(), 8u);
}

TEST(LineTest, ClusteringEffect) {
  // Same two-cluster setup as the MF test: LINE must also embed same-cluster
  // rows closer than cross-cluster rows.
  TextifiedTable t;
  t.table_name = "t";
  for (int i = 0; i < 10; ++i) {
    t.rows.push_back({{0, i < 5 ? "left" : "right"}});
  }
  const auto g = BuildGraph({t}, 1);
  ASSERT_TRUE(g.ok());
  Rng rng(22);
  LineOptions options;
  options.dim = 8;
  options.samples_per_edge = 400;
  const auto e = LineEmbed(*g, options, &rng);
  ASSERT_TRUE(e.ok());
  auto l1 = [&](NodeId x, NodeId y) {
    double d = 0;
    for (size_t j = 0; j < e->cols(); ++j) {
      d += std::fabs((*e)(x, j) - (*e)(y, j));
    }
    return d;
  };
  const NodeId a = g->RowNode("t", 0);
  const NodeId b = g->RowNode("t", 1);
  const NodeId c = g->RowNode("t", 7);
  EXPECT_LT(l1(a, b), l1(a, c));
}

TEST(LineTest, EdgelessGraphStillEmbeds) {
  GraphBuilder builder;
  builder.AddNode(NodeKind::kRow, "t:0");
  builder.AddNode(NodeKind::kRow, "t:1");
  builder.RegisterTableRows("t", 0, 2);
  const LevaGraph g = std::move(builder).Build();
  Rng rng(23);
  const auto e = LineEmbed(g, {}, &rng);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->rows(), 2u);
}

TEST(LineTest, RequiresRng) {
  const LevaGraph g = ChainGraph();
  EXPECT_FALSE(LineEmbed(g, {}, nullptr).ok());
}

}  // namespace
}  // namespace leva
