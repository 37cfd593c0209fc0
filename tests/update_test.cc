// Crash-safety + differential suite for streaming updates: WAL-backed
// LevaPipeline::Update must (a) extend the served model deterministically,
// (b) survive a kill at every injected I/O step of the WAL append and of the
// post-update snapshot with recovery to a consistent acknowledged-update
// prefix, and (c) replay idempotently — a second recovery pass is a no-op
// and byte-identical to the first.
//
// Compaction note: folding delta segments into the base CSR is a pure
// in-memory transform; its only I/O is the compact-on-save inside
// SaveSnapshot. The post-update snapshot sweep below therefore IS the
// crash-mid-compaction sweep: every kill lands while the compacted layout is
// being written, and recovery must serve either the old (delta-free) or the
// new (compacted) model, never a hybrid.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/pipeline.h"
#include "core/update_log.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"

namespace leva {
namespace {

constexpr size_t kStudents = 132;
constexpr size_t kFitRows = 120;  // the last 12 rows arrive via Update

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "leva_update_" + unique + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

LevaConfig TestConfig(EmbeddingMethod method) {
  LevaConfig config;
  config.method = method;
  config.embedding_dim = 8;
  config.walks.epochs = 3;
  config.walks.walk_length = 10;
  config.word2vec.epochs = 1;
  config.seed = 5;
  return config;
}

Table SliceRows(const Table& t, size_t begin, size_t end) {
  Table out(t.name());
  for (const Column& c : t.columns()) {
    Column col;
    col.name = c.name;
    col.type = c.type;
    col.values.assign(c.values.begin() + static_cast<ptrdiff_t>(begin),
                      c.values.begin() + static_cast<ptrdiff_t>(end));
    EXPECT_TRUE(out.AddColumn(std::move(col)).ok());
  }
  return out;
}

// The STUDENT dataset split in two: the model is fitted on the first
// kFitRows base rows, the remainder arrives as an Update batch. The
// dimension tables keep every row, so the late students' key tokens already
// have value nodes — the batch links new row nodes into the existing graph,
// the interesting case for warm refresh and resolver invalidation.
struct Fixture {
  SyntheticDataset ds;
  Database fit_db;
  const Table* full_base = nullptr;  // all kStudents rows
  Table batch;                       // rows [kFitRows, kStudents)
  TargetEncoder encoder;
};

Fixture MakeFixture() {
  Fixture f;
  auto ds = GenerateStudent(kStudents, 0, 3);
  EXPECT_TRUE(ds.ok());
  f.ds = std::move(ds).value();
  f.full_base = f.ds.db.FindTable(f.ds.base_table);
  EXPECT_NE(f.full_base, nullptr);
  f.fit_db = f.ds.db;
  auto idx = f.fit_db.TableIndex(f.ds.base_table);
  EXPECT_TRUE(idx.ok());
  f.fit_db.mutable_tables()[idx.value()] =
      SliceRows(*f.full_base, 0, kFitRows);
  f.batch = SliceRows(*f.full_base, kFitRows, kStudents);
  EXPECT_TRUE(
      f.encoder.Fit(*f.full_base->FindColumn(f.ds.target_column), true).ok());
  return f;
}

// Token-composed features of the FULL base table. Works against any state
// (pre- or post-update — no row nodes required), and discriminates them:
// the warm refresh rewrites touched value vectors, a full refit rewrites
// everything.
MLDataset ComposedOut(const LevaPipeline& p, const Fixture& f) {
  auto r = p.Featurize(*f.full_base, f.ds.target_column, f.encoder,
                       /*rows_in_graph=*/false);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// Row-node features of the full base table; valid only once every row —
// including the appended ones — has a node.
MLDataset RowNodeOut(const LevaPipeline& p, const Fixture& f) {
  auto r = p.Featurize(*f.full_base, f.ds.target_column, f.encoder,
                       /*rows_in_graph=*/true);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

bool SameBits(const MLDataset& a, const MLDataset& b) {
  return a.x.rows() == b.x.rows() && a.x.cols() == b.x.cols() &&
         std::memcmp(a.x.data().data(), b.x.data().data(),
                     a.x.data().size() * sizeof(double)) == 0 &&
         a.y == b.y && a.feature_names == b.feature_names;
}

void ExpectBitIdentical(const MLDataset& a, const MLDataset& b) {
  ASSERT_EQ(a.x.rows(), b.x.rows());
  ASSERT_EQ(a.x.cols(), b.x.cols());
  EXPECT_EQ(0, std::memcmp(a.x.data().data(), b.x.data().data(),
                           a.x.data().size() * sizeof(double)));
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.feature_names, b.feature_names);
}

std::string ReadAll(const std::string& path) {
  auto r = Env::Default()->ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good());
}

using OpKind = FaultInjectionEnv::OpKind;

constexpr OpKind kAllOps[] = {OpKind::kAppend, OpKind::kSync, OpKind::kClose,
                              OpKind::kRename, OpKind::kSyncDir,
                              OpKind::kRead};

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kAppend: return "append";
    case OpKind::kSync: return "sync";
    case OpKind::kClose: return "close";
    case OpKind::kRename: return "rename";
    case OpKind::kSyncDir: return "syncdir";
    case OpKind::kRead: return "read";
  }
  return "?";
}

// --- serving semantics -------------------------------------------------------

class UpdateServing : public ::testing::TestWithParam<EmbeddingMethod> {};

TEST_P(UpdateServing, AppendedRowsServeAndUpdateIsDeterministic) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(GetParam()));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const size_t nodes_before = p.graph().NumNodes();
  const MLDataset before = ComposedOut(p, f);
  std::vector<uint64_t> stage_counts;
  for (const auto& [name, histogram] : p.metrics().FitStages()) {
    stage_counts.push_back(histogram->count());
  }

  auto r = p.Update(f.batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const UpdateResult& res = r.value();
  // The refresh embeds through Fit's stage code but records none of its
  // spans: the Fit-stage histograms count Fit calls alone.
  size_t stage = 0;
  for (const auto& [name, histogram] : p.metrics().FitStages()) {
    EXPECT_EQ(histogram->count(), stage_counts[stage++]) << name;
  }
  EXPECT_EQ(res.rows_applied, kStudents - kFitRows);
  EXPECT_EQ(res.new_row_nodes, kStudents - kFitRows);
  EXPECT_GT(res.new_edges, 0u);
  if (GetParam() == EmbeddingMethod::kRandomWalk) {
    // Warm path: only the new + touched vectors were rewritten.
    EXPECT_FALSE(res.full_refit);
    EXPECT_GT(res.refreshed_vectors, 0u);
    EXPECT_LT(res.refreshed_vectors, p.graph().NumNodes());
  } else {
    // MF and LINE have no incremental form: compaction + full re-embed.
    EXPECT_TRUE(res.full_refit);
    EXPECT_TRUE(res.compacted);
    EXPECT_EQ(res.refreshed_vectors, p.graph().NumNodes());
  }
  EXPECT_GT(p.graph().NumNodes(), nodes_before);

  // Every row of the grown base table — appended ones included — now has a
  // servable row node, and the update visibly moved the composed features.
  const MLDataset in_graph = RowNodeOut(p, f);
  EXPECT_EQ(in_graph.x.rows(), kStudents);
  const MLDataset after = ComposedOut(p, f);
  ASSERT_FALSE(SameBits(before, after))
      << "update left the composed features untouched — the differential "
         "checks below would be vacuous";

  // Same fit + same batch on a second pipeline: bit-identical published
  // model (the refresh seed is a pure function of config seed and record
  // index, never of wall clock or address space).
  LevaPipeline q(TestConfig(GetParam()));
  ASSERT_TRUE(q.Fit(f.fit_db).ok());
  ASSERT_TRUE(q.Update(f.batch).ok());
  ExpectBitIdentical(after, ComposedOut(q, f));
  ExpectBitIdentical(in_graph, RowNodeOut(q, f));
}

INSTANTIATE_TEST_SUITE_P(Methods, UpdateServing,
                         ::testing::Values(EmbeddingMethod::kMatrixFactorization,
                                           EmbeddingMethod::kRandomWalk,
                                           EmbeddingMethod::kLine),
                         [](const auto& info) {
                           switch (info.param) {
                             case EmbeddingMethod::kMatrixFactorization:
                               return "MF";
                             case EmbeddingMethod::kLine:
                               return "Line";
                             default:
                               return "RandomWalk";
                           }
                         });

// Stored rows of a quantized store, for byte comparisons.
bool SameRowBytes(const Embedding& a, size_t ia, const Embedding& b,
                  size_t ib) {
  const size_t dim = a.dim();
  if (a.tier() == StorageTier::kBf16) {
    return std::memcmp(a.Bf16RowPtr(ia), b.Bf16RowPtr(ib),
                       dim * sizeof(uint16_t)) == 0;
  }
  return std::memcmp(a.Int8RowPtr(ia), b.Int8RowPtr(ib), dim) == 0 &&
         a.RowScale(ia) == b.RowScale(ib);
}

bool SameStore(const Embedding& a, const Embedding& b) {
  if (a.tier() != b.tier() || a.keys() != b.keys()) return false;
  for (size_t id = 0; id < a.size(); ++id) {
    if (!SameRowBytes(a, id, b, id)) return false;
  }
  return true;
}

// An Update never changes the tier a model serves: the warm refresh encodes
// each refreshed row at the loaded tier, and the full refit re-encodes the
// whole store at it. So the operator's same-tier reload guard keeps
// accepting the snapshot the model was loaded from.
class UpdateTier : public ::testing::TestWithParam<EmbeddingMethod> {};

TEST_P(UpdateTier, QuantizedModelKeepsItsTier) {
  const Fixture f = MakeFixture();
  for (const StorageTier tier : {StorageTier::kInt8, StorageTier::kBf16}) {
    SCOPED_TRACE(StorageTierName(tier));
    const std::string tag = StorageTierName(tier);
    LevaPipeline fitted(TestConfig(GetParam()));
    ASSERT_TRUE(fitted.Fit(f.fit_db).ok());
    const std::string snap = TempPath(tag + ".leva");
    ASSERT_TRUE(fitted.SaveSnapshot(snap, tier).ok());

    LevaPipeline live;
    ASSERT_TRUE(live.LoadSnapshot(snap).ok());
    ASSERT_EQ(live.embedding().tier(), tier);
    const Embedding before = live.embedding().WithTier(tier);
    const std::string wal_path = TempPath(tag + ".wal");
    {
      auto wal = UpdateLog::Open(wal_path);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      auto r = live.Update(f.batch, wal.value().get());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->full_refit,
                GetParam() == EmbeddingMethod::kMatrixFactorization);
      ASSERT_TRUE(wal.value()->Close().ok());
    }
    const Embedding& after = live.embedding();
    ASSERT_EQ(after.tier(), tier);

    if (GetParam() == EmbeddingMethod::kRandomWalk) {
      // The warm refresh rewrites the new nodes and the existing nodes they
      // link to; every other row keeps its stored bytes.
      const LevaGraph& g = live.graph();
      std::set<NodeId> touched;
      for (NodeId n = static_cast<NodeId>(before.size()); n < g.NumNodes();
           ++n) {
        for (const auto nbrs : {g.Neighbors(n), g.DeltaNeighbors(n)}) {
          for (const NodeId v : nbrs) {
            if (v < before.size()) touched.insert(v);
          }
        }
      }
      ASSERT_LT(touched.size(), before.size());
      for (size_t id = 0; id < before.size(); ++id) {
        if (touched.count(static_cast<NodeId>(id)) != 0) continue;
        EXPECT_TRUE(SameRowBytes(before, id, after, id)) << "row " << id;
      }
    }

    // Replaying the log onto the loaded snapshot rebuilds the same bytes.
    LevaPipeline recovered;
    ASSERT_TRUE(recovered.LoadSnapshot(snap).ok());
    auto replayed = recovered.RecoverFromLog(wal_path);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(replayed.value(), 1u);
    EXPECT_TRUE(SameStore(after, recovered.embedding()));

    // Saving at the served tier and loading back serves the same features.
    const std::string resaved = TempPath(tag + "_resaved.leva");
    ASSERT_TRUE(live.SaveSnapshot(resaved, tier).ok());
    LevaPipeline reloaded;
    ASSERT_TRUE(reloaded.LoadSnapshot(resaved).ok());
    ExpectBitIdentical(RowNodeOut(live, f), RowNodeOut(reloaded, f));
    ExpectBitIdentical(ComposedOut(live, f), ComposedOut(reloaded, f));

    // The same-tier guard accepts the snapshot the model was loaded from.
    SnapshotLoadOptions strict;
    strict.require_same_tier = true;
    const Status reload = live.ReloadSnapshot(snap, nullptr, strict);
    EXPECT_TRUE(reload.ok()) << reload.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, UpdateTier,
                         ::testing::Values(EmbeddingMethod::kMatrixFactorization,
                                           EmbeddingMethod::kRandomWalk),
                         [](const auto& info) {
                           return info.param ==
                                          EmbeddingMethod::kMatrixFactorization
                                      ? "MF"
                                      : "RandomWalk";
                         });

TEST(UpdateTest, UpdateUnknownTableIsRejected) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  Table stranger("no_such_table");
  Column col;
  col.name = "x";
  col.values.push_back(Value(int64_t{1}));
  ASSERT_TRUE(stranger.AddColumn(std::move(col)).ok());
  const MLDataset before = ComposedOut(p, f);
  EXPECT_FALSE(p.Update(stranger).ok());
  // A rejected batch must not have touched the served model.
  ExpectBitIdentical(before, ComposedOut(p, f));
}

TEST(UpdateTest, SnapshotAfterUpdateRoundTripsAndRecordsWalPosition) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());

  const std::string wal_path = TempPath("upd.wal");
  auto wal = UpdateLog::Open(wal_path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(p.Update(f.batch, wal.value().get()).ok());
  EXPECT_TRUE(p.graph().HasDelta());
  ASSERT_TRUE(wal.value()->Close().ok());

  const std::string snap = TempPath("upd.leva");
  ASSERT_TRUE(p.SaveSnapshot(snap).ok());

  // The snapshot compacts the delta on save and records the applied WAL
  // position, so the loaded model serves identically...
  LevaPipeline loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(snap).ok());
  EXPECT_FALSE(loaded.graph().HasDelta());
  ExpectBitIdentical(RowNodeOut(p, f), RowNodeOut(loaded, f));
  ExpectBitIdentical(ComposedOut(p, f), ComposedOut(loaded, f));

  // ...and replaying the log against it is a no-op: every record is already
  // inside the snapshot's applied prefix.
  auto replayed = loaded.RecoverFromLog(wal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value(), 0u);
  ExpectBitIdentical(RowNodeOut(p, f), RowNodeOut(loaded, f));
}

// Runs at 1 and at 4 threads: the live and the recovered model must match
// each other at each thread count, and across the two.
TEST(UpdateTest, RecoveryReplaysTailAndIsIdempotent) {
  const Fixture f = MakeFixture();
  MLDataset at_one_thread;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    LevaConfig config = TestConfig(EmbeddingMethod::kRandomWalk);
    config.threads = threads;
    LevaPipeline p(config);
    ASSERT_TRUE(p.Fit(f.fit_db).ok());
    const std::string base_snap = TempPath("base" + tag + ".leva");
    ASSERT_TRUE(p.SaveSnapshot(base_snap).ok());

    // Two acknowledged batches after the snapshot.
    const size_t half = kFitRows + (kStudents - kFitRows) / 2;
    const Table batch1 = SliceRows(*f.full_base, kFitRows, half);
    const Table batch2 = SliceRows(*f.full_base, half, kStudents);
    const std::string wal_path = TempPath("tail" + tag + ".wal");
    {
      auto wal = UpdateLog::Open(wal_path);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE(p.Update(batch1, wal.value().get()).ok());
      ASSERT_TRUE(p.Update(batch2, wal.value().get()).ok());
      ASSERT_TRUE(wal.value()->Close().ok());
    }
    const MLDataset expected = RowNodeOut(p, f);
    if (threads == 1) {
      at_one_thread = expected;
    } else {
      ExpectBitIdentical(at_one_thread, expected);
    }

    // Crash-restart: load the pre-update snapshot and replay the tail. The
    // recovered model must be bit-identical to the one the live updates
    // built.
    LevaPipeline r1;
    ASSERT_TRUE(r1.LoadSnapshot(base_snap).ok());
    auto n1 = r1.RecoverFromLog(wal_path);
    ASSERT_TRUE(n1.ok()) << n1.status().ToString();
    EXPECT_EQ(n1.value(), 2u);
    ExpectBitIdentical(expected, RowNodeOut(r1, f));

    // Idempotence, form 1: a second replay on the same pipeline applies
    // nothing and changes nothing.
    auto n2 = r1.RecoverFromLog(wal_path);
    ASSERT_TRUE(n2.ok());
    EXPECT_EQ(n2.value(), 0u);
    ExpectBitIdentical(expected, RowNodeOut(r1, f));

    // Idempotence, form 2: recovery run twice from scratch is byte-identical
    // to recovery run once.
    LevaPipeline r2;
    ASSERT_TRUE(r2.LoadSnapshot(base_snap).ok());
    ASSERT_TRUE(r2.RecoverFromLog(wal_path).ok());
    ASSERT_TRUE(r2.RecoverFromLog(wal_path).ok());
    ExpectBitIdentical(RowNodeOut(r1, f), RowNodeOut(r2, f));
    ExpectBitIdentical(ComposedOut(r1, f), ComposedOut(r2, f));
  }
}

TEST(UpdateTest, TornTrailingRecordIsSkippedAndTruncatedOnReopen) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string base_snap = TempPath("base.leva");
  ASSERT_TRUE(p.SaveSnapshot(base_snap).ok());

  const size_t half = kFitRows + (kStudents - kFitRows) / 2;
  const Table batch1 = SliceRows(*f.full_base, kFitRows, half);
  const Table batch2 = SliceRows(*f.full_base, half, kStudents);
  const std::string wal_path = TempPath("torn.wal");
  uint64_t after_first = 0;
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(p.Update(batch1, wal.value().get()).ok());
    after_first = wal.value()->end_offset();
    ASSERT_TRUE(p.Update(batch2, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }

  // Tear the second record in half, as a crash mid-append would.
  const std::string bytes = ReadAll(wal_path);
  ASSERT_GT(bytes.size(), after_first + 4);
  WriteAll(wal_path, bytes.substr(0, (after_first + bytes.size()) / 2));

  auto replay = UpdateLog::Read(wal_path, UpdateLog::kHeaderSize);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().records.size(), 1u);
  EXPECT_TRUE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().end_offset, after_first);

  // Recovery applies exactly the acknowledged prefix: batch1 only.
  LevaPipeline only1(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(only1.Fit(f.fit_db).ok());
  ASSERT_TRUE(only1.Update(batch1).ok());
  LevaPipeline recovered;
  ASSERT_TRUE(recovered.LoadSnapshot(base_snap).ok());
  auto n = recovered.RecoverFromLog(wal_path);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  ExpectBitIdentical(ComposedOut(only1, f), ComposedOut(recovered, f));

  // Reopening for append truncates the torn tail, and the batch can be
  // re-acknowledged cleanly on top of the surviving prefix.
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->end_offset(), after_first);
    EXPECT_EQ(wal.value()->record_count(), 1u);
    ASSERT_TRUE(recovered.Update(batch2, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  auto full = UpdateLog::Read(wal_path, UpdateLog::kHeaderSize);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().records.size(), 2u);
  EXPECT_FALSE(full.value().torn_tail);
  ExpectBitIdentical(RowNodeOut(p, f), RowNodeOut(recovered, f));
}

TEST(UpdateTest, CorruptRecordChecksumTerminatesReplayCleanly) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string wal_path = TempPath("crc.wal");
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(p.Update(f.batch, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  std::string bytes = ReadAll(wal_path);
  bytes[bytes.size() - 1] ^= 0x10;  // flip a payload bit
  WriteAll(wal_path, bytes);
  auto replay = UpdateLog::Read(wal_path, UpdateLog::kHeaderSize);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 0u);
  EXPECT_TRUE(replay.value().torn_tail);
}

// --- fault injection ---------------------------------------------------------

// Kill-at-every-I/O-step over the WAL open+append path. Whatever step dies,
// a restart (clean reopen + replay against the pre-update snapshot) must
// serve exactly the base model or exactly the updated one — a record is
// either fully durable or invisible, never torn into the model.
TEST(UpdateFaultTest, WalKillAtEveryIoStepRecoversAcknowledgedPrefix) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string base_snap = TempPath("base.leva");
  ASSERT_TRUE(p.SaveSnapshot(base_snap).ok());
  const MLDataset base_out = ComposedOut(p, f);

  LevaPipeline updated(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(updated.Fit(f.fit_db).ok());
  ASSERT_TRUE(updated.Update(f.batch).ok());
  const MLDataset updated_out = ComposedOut(updated, f);
  ASSERT_FALSE(SameBits(base_out, updated_out));

  // Learn the fault points of one open+append (fresh file, no Close).
  FaultInjectionEnv probe;
  size_t probe_ops[FaultInjectionEnv::kNumOpKinds];
  {
    const std::string probe_path = TempPath("probe.wal");
    auto wal = UpdateLog::Open(probe_path, &probe);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    LevaPipeline fresh;
    ASSERT_TRUE(fresh.LoadSnapshot(base_snap).ok());
    ASSERT_TRUE(fresh.Update(f.batch, wal.value().get()).ok());
    for (const OpKind kind : kAllOps) {
      probe_ops[static_cast<size_t>(kind)] = probe.ops(kind);
    }
  }
  ASSERT_GT(probe_ops[static_cast<size_t>(OpKind::kAppend)], 0u);
  ASSERT_GT(probe_ops[static_cast<size_t>(OpKind::kSync)], 0u);

  for (const auto append_mode : {FaultInjectionEnv::AppendFault::kFailCleanly,
                                 FaultInjectionEnv::AppendFault::kTornWrite}) {
    for (const OpKind kind : kAllOps) {
      for (size_t nth = 1; nth <= probe_ops[static_cast<size_t>(kind)];
           ++nth) {
        SCOPED_TRACE(std::string(OpName(kind)) + " #" + std::to_string(nth) +
                     (append_mode == FaultInjectionEnv::AppendFault::kTornWrite
                          ? " (torn)"
                          : ""));
        const std::string wal_path =
            TempPath("sweep_" + std::string(OpName(kind)) + "_" +
                     std::to_string(nth) +
                     (append_mode ==
                              FaultInjectionEnv::AppendFault::kTornWrite
                          ? "_torn"
                          : "_clean") +
                     ".wal");
        FaultInjectionEnv env;
        env.set_append_fault(append_mode);
        env.FailAtOp(kind, nth);

        LevaPipeline victim;
        ASSERT_TRUE(victim.LoadSnapshot(base_snap).ok());
        bool update_ok = false;
        {
          auto wal = UpdateLog::Open(wal_path, &env);
          if (wal.ok()) {
            update_ok = victim.Update(f.batch, wal.value().get()).ok();
          }
        }
        EXPECT_FALSE(update_ok);  // the armed fault fires inside the WAL I/O
        EXPECT_TRUE(env.crashed());
        // A failed append is not acknowledged, so the served model is
        // untouched.
        ExpectBitIdentical(base_out, ComposedOut(victim, f));

        // "Restart": replay whatever the crash made durable.
        LevaPipeline recovered;
        ASSERT_TRUE(recovered.LoadSnapshot(base_snap).ok());
        auto n = recovered.RecoverFromLog(wal_path);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        EXPECT_LE(n.value(), 1u);
        const MLDataset out = ComposedOut(recovered, f);
        const bool is_base = SameBits(out, base_out);
        const bool is_updated = SameBits(out, updated_out);
        EXPECT_TRUE(is_base || is_updated)
            << "recovery produced neither the base nor the updated model";
        EXPECT_EQ(is_updated, n.value() == 1u);
      }
    }
  }
}

// After a torn WAL crash, a clean reopen truncates the tail and the same
// batch can be re-acknowledged; recovery then yields exactly the updated
// model.
TEST(UpdateFaultTest, RetryAfterWalCrashSucceeds) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string base_snap = TempPath("base.leva");
  ASSERT_TRUE(p.SaveSnapshot(base_snap).ok());
  ASSERT_TRUE(p.Update(f.batch).ok());
  const MLDataset updated_out = ComposedOut(p, f);

  const std::string wal_path = TempPath("retry.wal");
  {
    FaultInjectionEnv env;
    env.set_append_fault(FaultInjectionEnv::AppendFault::kTornWrite);
    env.FailAtOp(OpKind::kAppend, 2);  // #1 writes the magic, #2 the record
    auto wal = UpdateLog::Open(wal_path, &env);
    ASSERT_TRUE(wal.ok());
    LevaPipeline victim;
    ASSERT_TRUE(victim.LoadSnapshot(base_snap).ok());
    EXPECT_FALSE(victim.Update(f.batch, wal.value().get()).ok());
  }

  // Restart: reopen (truncating the torn record) and retry the batch.
  LevaPipeline retry;
  ASSERT_TRUE(retry.LoadSnapshot(base_snap).ok());
  ASSERT_TRUE(retry.RecoverFromLog(wal_path).ok());
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->record_count(), 0u);
    ASSERT_TRUE(retry.Update(f.batch, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  ExpectBitIdentical(updated_out, ComposedOut(retry, f));

  LevaPipeline recovered;
  ASSERT_TRUE(recovered.LoadSnapshot(base_snap).ok());
  auto n = recovered.RecoverFromLog(wal_path);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  ExpectBitIdentical(updated_out, ComposedOut(recovered, f));
}

// Kill-at-every-I/O-step over the post-update snapshot — the save that folds
// the delta segments into a compacted base CSR. Every kill must leave the
// previous (pre-update) snapshot loadable, and pre-update + WAL replay must
// reconstruct the updated model exactly. This is the crash-mid-compaction
// matrix: the compacted layout is what the interrupted save was writing.
TEST(UpdateFaultTest, PostUpdateSnapshotKillAtEveryIoStep) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string snap = TempPath("snap.leva");
  ASSERT_TRUE(p.SaveSnapshot(snap).ok());
  const std::string base_bytes = ReadAll(snap);
  const MLDataset base_out = ComposedOut(p, f);

  const std::string wal_path = TempPath("snap.wal");
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(p.Update(f.batch, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  ASSERT_TRUE(p.graph().HasDelta());
  const MLDataset updated_out = ComposedOut(p, f);
  ASSERT_FALSE(SameBits(base_out, updated_out));

  FaultInjectionEnv probe;
  ASSERT_TRUE(p.SaveSnapshot(snap, &probe).ok());

  for (const OpKind kind : kAllOps) {
    if (probe.ops(kind) == 0) continue;
    // Stride the appends (early/mid/late) to keep the sweep fast under
    // sanitizers; commit-step kinds have few ops and are swept exhaustively.
    std::vector<size_t> nths = {1, probe.ops(kind)};
    for (size_t nth = 2; nth < probe.ops(kind); nth += 3) nths.push_back(nth);
    for (const size_t nth : nths) {
      if (nth == 0 || nth > probe.ops(kind)) continue;
      SCOPED_TRACE(std::string(OpName(kind)) + " #" + std::to_string(nth));
      WriteAll(snap, base_bytes);  // fresh previous snapshot
      FaultInjectionEnv env;
      env.set_append_fault(FaultInjectionEnv::AppendFault::kTornWrite);
      env.FailAtOp(kind, nth);
      EXPECT_FALSE(p.SaveSnapshot(snap, &env).ok());
      EXPECT_TRUE(env.crashed());

      // "Restart": the snapshot must load as exactly one complete model...
      LevaPipeline recovered;
      const Status load = recovered.LoadSnapshot(snap);
      ASSERT_TRUE(load.ok())
          << "crash left an unloadable snapshot: " << load.ToString();
      const MLDataset out = ComposedOut(recovered, f);
      const bool is_base = SameBits(out, base_out);
      const bool is_updated = SameBits(out, updated_out);
      EXPECT_TRUE(is_base || is_updated)
          << "crashed save left neither the old nor the new model";

      // ...and replaying the WAL on top must land on the updated model
      // regardless of which snapshot survived (idempotent replay: 0 records
      // when the new snapshot's applied offset already covers the log).
      auto n = recovered.RecoverFromLog(wal_path);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      EXPECT_EQ(n.value(), is_base ? 1u : 0u);
      ExpectBitIdentical(updated_out, ComposedOut(recovered, f));
    }
  }
}

// Read-side faults (satellite of the same methodology): a kill during WAL
// replay must fail cleanly, leave the incumbent model serving, and succeed
// on retry after the "restart".
TEST(UpdateFaultTest, ReadFaultDuringReplayFailsCleanlyAndRetrySucceeds) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string base_snap = TempPath("base.leva");
  ASSERT_TRUE(p.SaveSnapshot(base_snap).ok());
  const MLDataset base_out = ComposedOut(p, f);
  const std::string wal_path = TempPath("read.wal");
  {
    auto wal = UpdateLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(p.Update(f.batch, wal.value().get()).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  const MLDataset updated_out = ComposedOut(p, f);

  LevaPipeline recovered;
  ASSERT_TRUE(recovered.LoadSnapshot(base_snap).ok());
  FaultInjectionEnv env;
  env.FailAtOp(OpKind::kRead, 1);
  auto n = recovered.RecoverFromLog(wal_path, &env);
  EXPECT_FALSE(n.ok());
  EXPECT_TRUE(env.crashed());
  // The failed replay must not have published anything.
  ExpectBitIdentical(base_out, ComposedOut(recovered, f));

  env.Heal();
  auto retry = recovered.RecoverFromLog(wal_path, &env);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value(), 1u);
  ExpectBitIdentical(updated_out, ComposedOut(recovered, f));

  // Reopening the log for append is also a read fault point (the scan of the
  // existing file): it too must fail cleanly and succeed after healing.
  FaultInjectionEnv env2;
  env2.FailAtOp(OpKind::kRead, 1);
  EXPECT_FALSE(UpdateLog::Open(wal_path, &env2).ok());
  env2.Heal();
  auto reopened = UpdateLog::Open(wal_path, &env2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->record_count(), 1u);
}

// --- reload/update race (runs under TSan in CI) ------------------------------

// ReloadSnapshot racing an in-flight Update: every Featurize — concurrent or
// final — must serve one COMPLETE model (the loaded snapshot or snapshot +
// batch), never a half-applied delta. The two reachable models are known
// bit-exactly up front, so membership is the whole assertion.
TEST(UpdateRaceTest, ReloadRacingUpdateAlwaysServesACompleteModel) {
  const Fixture f = MakeFixture();
  LevaPipeline p(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(p.Fit(f.fit_db).ok());
  const std::string snap = TempPath("race.leva");
  ASSERT_TRUE(p.SaveSnapshot(snap).ok());
  const MLDataset base_out = ComposedOut(p, f);

  // The update is deterministic, so the post-update model is known exactly
  // whether it applies to the fitted state or a freshly reloaded one (they
  // are bit-identical).
  const MLDataset updated_out = [&] {
    LevaPipeline q;
    EXPECT_TRUE(q.LoadSnapshot(snap).ok());
    EXPECT_TRUE(q.Update(f.batch).ok());
    return ComposedOut(q, f);
  }();
  ASSERT_FALSE(SameBits(base_out, updated_out));

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reloader([&] {
    for (int i = 0; i < 6; ++i) {
      if (!p.ReloadSnapshot(snap).ok()) ++bad;
    }
  });
  std::thread updater([&] {
    if (!p.Update(f.batch).ok()) ++bad;
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MLDataset out = ComposedOut(p, f);
      if (!SameBits(out, base_out) && !SameBits(out, updated_out)) ++bad;
    }
  });
  reloader.join();
  updater.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0) << "a concurrent Featurize saw a model that is "
                              "neither complete serving state";

  // The final state is whichever publish won — but always a complete one.
  const MLDataset final_out = ComposedOut(p, f);
  EXPECT_TRUE(SameBits(final_out, base_out) ||
              SameBits(final_out, updated_out));
}

}  // namespace
}  // namespace leva
