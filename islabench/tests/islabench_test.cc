// Tests of the benchmark's own parts: the response parser and the exact
// oracle, which must agree with the engine's `USING exact` full scan on
// every statement shape the workloads generate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "answer.h"
#include "engine/session.h"
#include "oracle.h"
#include "storage/block.h"
#include "storage/file_block.h"
#include "storage/table.h"

namespace islabench {
namespace {

TEST(ParseAnswer, UngroupedEngineAnswer) {
  auto a = ParseAnswer(
      "ok\nAVG = 99.6647  [method=isla, samples=19713, 1.0439 ms]\n"
      "  sketch0=99.3474 sigma=19.8635 blocks=8 precision=+/-0.3000 @0.9500 "
      "kernels=avx2");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->ok);
  EXPECT_EQ(a->aggregate, "AVG");
  EXPECT_FALSE(a->grouped);
  EXPECT_EQ(a->samples, 19713u);
  EXPECT_DOUBLE_EQ(a->precision, 0.3);
  EXPECT_DOUBLE_EQ(a->confidence, 0.95);
  ASSERT_EQ(a->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(a->rows[0].value, 99.6647);
}

TEST(ParseAnswer, StreamedAnswerReadsRounds) {
  auto a = ParseAnswer(
      "ok\nSUM = 996646848.5000  [method=isla, rounds=4, samples=17557, "
      "1.5432 ms]\n  sketch0=99.8498 sigma=19.6779 blocks=8 "
      "precision=+/-0.1000 @0.9500 kernels=avx2");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->aggregate, "SUM");
  EXPECT_EQ(a->rounds, 4u);
  EXPECT_EQ(a->samples, 17557u);
  EXPECT_DOUBLE_EQ(a->rows[0].value, 996646848.5);
  EXPECT_DOUBLE_EQ(a->precision, 0.1);
}

TEST(ParseAnswer, UngroupedIntervalAndQuantileBand) {
  auto c = ParseAnswer(
      "ok\nCOUNT = 3070923.5367  [method=isla, samples=14719, 0.7180 ms]\n"
      "  avg +/- 0.3194 @0.9500, count~3070923.5367, n=4213");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->aggregate, "COUNT");
  EXPECT_DOUBLE_EQ(c->rows[0].avg_half_width, 0.3194);
  EXPECT_DOUBLE_EQ(c->rows[0].count, 3070923.5367);
  EXPECT_EQ(c->rows[0].n, 4213u);

  auto q = ParseAnswer(
      "ok\nQUANTILE = 132.4317  [method=isla, samples=439991, 24.8592 ms]\n"
      "  rank +/- 0.0365 @0.9500, value in [129.4586, 136.5000], "
      "count~4995546.6057, n=219300");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggregate, "QUANTILE");
  EXPECT_DOUBLE_EQ(q->rows[0].value, 132.4317);
  EXPECT_DOUBLE_EQ(q->rows[0].rank_error, 0.0365);
  EXPECT_DOUBLE_EQ(q->rows[0].lo, 129.4586);
  EXPECT_DOUBLE_EQ(q->rows[0].hi, 136.5);
  EXPECT_EQ(q->rows[0].n, 219300u);
}

TEST(ParseAnswer, GroupsAndTopK) {
  auto g = ParseAnswer(
      "ok\ntop 2 of 16 group(s)  [method=isla, samples=142687, 5.1652 ms]\n"
      "  grp=9.0000  COUNT = 636473.3532  [avg +/- 0.4137 @0.9500, "
      "count~636473.3532, n=9018]\n"
      "  grp=15.0000  COUNT = 631603.4640  [avg +/- 0.4094 @0.9500, "
      "count~631603.4640, n=8949]");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->grouped);
  EXPECT_EQ(g->total_groups, 16u);
  EXPECT_EQ(g->samples, 142687u);
  ASSERT_EQ(g->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(g->rows[1].key, 15.0);
  EXPECT_DOUBLE_EQ(g->rows[1].value, 631603.464);
  EXPECT_DOUBLE_EQ(g->rows[1].avg_half_width, 0.4094);
  EXPECT_EQ(g->rows[1].n, 8949u);

  auto all = ParseAnswer(
      "ok\n2 group(s)  [method=isla, samples=10, 1.0 ms]\n"
      "  grp=0.0000  AVG = 1.5000  [avg +/- 0.1000 @0.9000, count~4.0000, n=4]\n"
      "  grp=1.0000  AVG = 2.5000  [avg +/- 0.2000 @0.9000, count~6.0000, n=6]");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->total_groups, 2u);
  EXPECT_DOUBLE_EQ(all->confidence, 0.9);
}

TEST(ParseAnswer, ErrorsAndOtherStatements) {
  auto e = ParseAnswer("error: NotFound: no table t");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->ok);
  EXPECT_EQ(e->error, "NotFound: no table t");

  auto ddl = ParseAnswer("ok\ncreated table d from Normal(100, 20^2)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_TRUE(ddl->ok);
  EXPECT_TRUE(ddl->aggregate.empty());

  EXPECT_FALSE(ParseAnswer("AVG = 1").ok());
  EXPECT_FALSE(ParseAnswer("ok\nAVG: 1  [method=isla, samples=1, 1 ms]").ok());
}

TEST(StripTiming, RemovesOnlyTheWallClock) {
  EXPECT_EQ(StripTiming("ok\n2 group(s)  [method=isla, samples=10, 1.2345 ms]\n"
                        "  grp=0.0000  AVG = 1.5000  [avg +/- 0.1 @0.9, "
                        "count~4.0, n=4]"),
            "ok\n2 group(s)  [method=isla, samples=10]\n"
            "  grp=0.0000  AVG = 1.5000  [avg +/- 0.1 @0.9, count~4.0, n=4]");
  EXPECT_EQ(StripTiming("ok\nset stream = 4"), "ok\nset stream = 4");
}

TEST(ExactOracle, QuantileRankConvention) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  isla::storage::Column col("value");
  ASSERT_TRUE(
      col.AppendBlock(std::make_shared<isla::storage::MemoryBlock>(v)).ok());
  auto o = ExactOracle::Build(col, nullptr);
  ASSERT_TRUE(o.ok());
  StmtSpec s;
  s.agg = Agg::kQuantile;
  s.q = 0.5;
  EXPECT_DOUBLE_EQ(o->Quantile(s), 51.0);  // rank floor(0.5·100) = 50
  s.has_pred = true;
  s.op = '>';
  s.literal = 50.0;
  s.q = 0.1;
  EXPECT_DOUBLE_EQ(o->Quantile(s), 56.0);  // 51..100, rank 5
  s.op = '<';
  s.q = 1.0;
  EXPECT_DOUBLE_EQ(o->Quantile(s), 49.0);  // 1..49, clamped to the last
  const GroupTruth t = o->Groups(s, false).front();
  EXPECT_EQ(t.count, 49u);
  EXPECT_DOUBLE_EQ(t.sum, 49.0 * 50.0 / 2.0);
}

/// The statement shapes of the four workloads, on table `t`.
std::vector<StmtSpec> WorkloadShapes(bool keyed) {
  std::vector<StmtSpec> out;
  auto add = [&](Agg agg, bool pred, char op, bool grouped, uint64_t top_k) {
    StmtSpec s;
    s.table = "t";
    s.agg = agg;
    s.has_pred = pred;
    s.op = op;
    s.literal = AsPrinted(93.1234, 4);
    s.grouped = grouped;
    s.top_k = top_k;
    s.precision = 0.5;
    out.push_back(s);
  };
  add(Agg::kAvg, false, '>', false, 0);  // adhoc_avg, cluster_avg
  add(Agg::kSum, false, '>', false, 0);
  add(Agg::kAvg, true, '>', false, 0);   // dashboard
  add(Agg::kAvg, true, '<', false, 0);
  add(Agg::kCount, true, '>', false, 0);
  add(Agg::kSum, true, '>', false, 0);
  if (keyed) {
    add(Agg::kAvg, true, '>', true, 0);    // dashboard, adhoc_grouped
    add(Agg::kAvg, true, '<', true, 0);
    add(Agg::kCount, true, '>', true, 0);
    add(Agg::kCount, true, '<', true, 0);
    add(Agg::kSum, false, '>', true, 0);
    add(Agg::kSum, true, '>', true, 0);
    add(Agg::kAvg, true, '>', true, 3);    // adhoc_grouped TOP k
    add(Agg::kCount, true, '>', true, 5);
  }
  StmtSpec q;
  q.table = "t";
  q.agg = Agg::kQuantile;
  q.has_pred = true;
  q.literal = AsPrinted(87.4321, 4);
  q.q = 0.37;
  q.precision = 0.05;
  out.push_back(q);
  return out;
}

/// Runs every shape with USING exact and compares each answered value
/// with the oracle (the response prints 4 decimals).
void ExpectOracleMatchesExactScan(isla::engine::Session* session,
                                  const ExactOracle& oracle, bool keyed) {
  for (const StmtSpec& s : WorkloadShapes(keyed)) {
    SCOPED_TRACE(s.Sql());
    auto text = session->Execute(s.Sql() + " USING exact");
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    auto a = ParseAnswer("ok\n" + *text);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_EQ(a->grouped, s.grouped);
    if (s.agg == Agg::kQuantile) {
      const double truth = oracle.Quantile(s);
      EXPECT_GE(truth, a->rows[0].lo);
      EXPECT_LE(truth, a->rows[0].hi);
      EXPECT_EQ(CheckAnswer(s, *a, oracle).misses, 0u);
      continue;
    }
    std::map<double, GroupTruth> truth;
    for (const GroupTruth& t : oracle.Groups(s, s.grouped)) truth[t.key] = t;
    if (s.grouped && s.top_k == 0) EXPECT_EQ(a->rows.size(), truth.size());
    for (const AnswerRow& row : a->rows) {
      const GroupTruth& t = truth.at(row.has_key ? row.key : 0.0);
      const double want = s.agg == Agg::kAvg   ? t.avg()
                          : s.agg == Agg::kSum ? t.sum
                                               : static_cast<double>(t.count);
      EXPECT_NEAR(row.value, want, 5e-5 + 1e-12 * std::fabs(want));
    }
  }
}

TEST(ExactOracle, AgreesWithExactScanOnGeneratorTable) {
  isla::engine::Session session;
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE t FROM NORMAL(100, 20) ROWS 2e5 "
                           "BLOCKS 4 SEED 9 GROUPS 8")
                  .ok());
  auto table = session.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  auto values = (*table)->GetColumn("value");
  auto keys = (*table)->GetColumn("grp");
  ASSERT_TRUE(values.ok() && keys.ok());
  auto oracle = ExactOracle::Build(**values, *keys);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(oracle->rows(), 200000u);
  ExpectOracleMatchesExactScan(&session, *oracle, true);
}

TEST(ExactOracle, AgreesWithExactScanOnFileTable) {
  const std::filesystem::path dir = ".bench_work/islabench_test_files";
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  isla::storage::Column col("value");
  for (int i = 0; i < 3; ++i) {
    std::vector<double> v;
    for (int r = 0; r < 30000; ++r) {
      v.push_back(std::fmod(r * 7.31 + i * 13.7, 200.0) + 0.001 * r);
    }
    paths.push_back((dir / ("s" + std::to_string(i) + ".islb")).string());
    ASSERT_TRUE(isla::storage::WriteBlockFile(paths.back(), v).ok());
    auto block = isla::storage::FileBlock::Open(paths.back());
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(col.AppendBlock(*block).ok());
  }
  auto oracle = ExactOracle::Build(col, nullptr);
  ASSERT_TRUE(oracle.ok());
  isla::engine::Session session;
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE t FROM FILES('" + paths[0] + "', '" +
                           paths[1] + "', '" + paths[2] + "')")
                  .ok());
  ExpectOracleMatchesExactScan(&session, *oracle, false);
  std::filesystem::remove_all(dir);
}

TEST(CheckAnswer, CountsMissesAndFlagsDefects) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8};
  isla::storage::Column values("value"), keys("grp");
  ASSERT_TRUE(values.AppendBlock(std::make_shared<isla::storage::MemoryBlock>(v)).ok());
  ASSERT_TRUE(keys.AppendBlock(std::make_shared<isla::storage::MemoryBlock>(
                                   std::vector<double>{0, 1, 0, 1, 0, 1, 0, 1}))
                  .ok());
  auto oracle = ExactOracle::Build(values, &keys);
  ASSERT_TRUE(oracle.ok());
  StmtSpec s;
  s.table = "t";
  s.grouped = true;
  // Truth: group 0 → avg 4, group 1 → avg 5.
  auto a = ParseAnswer(
      "ok\n2 group(s)  [method=isla, samples=8, 1.0 ms]\n"
      "  grp=0.0000  AVG = 4.2000  [avg +/- 0.5000 @0.9500, count~4.0, n=4]\n"
      "  grp=1.0000  AVG = 5.9000  [avg +/- 0.5000 @0.9500, count~4.0, n=4]");
  ASSERT_TRUE(a.ok());
  CheckResult r = CheckAnswer(s, *a, *oracle);
  EXPECT_TRUE(r.defect.empty());
  EXPECT_EQ(r.values, 2u);
  EXPECT_EQ(r.misses, 1u);

  auto stray = ParseAnswer(
      "ok\n1 group(s)  [method=isla, samples=8, 1.0 ms]\n"
      "  grp=7.0000  AVG = 4.0000  [avg +/- 0.5000 @0.9500, count~4.0, n=4]");
  ASSERT_TRUE(stray.ok());
  EXPECT_FALSE(CheckAnswer(s, *stray, *oracle).defect.empty());

  s.agg = Agg::kSum;  // AVG = 4 carries its aggregate name: a defect
  EXPECT_FALSE(CheckAnswer(s, *a, *oracle).defect.empty());
}

}  // namespace
}  // namespace islabench
