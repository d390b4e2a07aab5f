#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "env/env.h"
#include "gtest/gtest.h"
#include "metrics.h"
#include "spans.h"
#include "stats.h"

namespace wallbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.1), 1);
  std::vector<double> one = {7.5};
  EXPECT_EQ(Percentile(one, 99), 7.5);
  std::vector<double> none;
  EXPECT_EQ(Percentile(none, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // lower middle: nearest rank
}

TEST(PercentileTest, InterquartileMean) {
  EXPECT_EQ(InterquartileMean({}), 0);
  EXPECT_EQ(InterquartileMean({5}), 5);
  EXPECT_EQ(InterquartileMean({1, 2, 6}), 3);
  // The lowest and highest quarter are dropped: outliers do not count.
  EXPECT_EQ(InterquartileMean({1000, 1, 2, 3, 4, 5, 6, -1000}), 3.5);
  // Two modes: the result moves with the share of each, where the median
  // would jump from 10 to 20.
  EXPECT_EQ(InterquartileMean({10, 10, 10, 10, 20, 20, 20, 20}), 15);
  EXPECT_EQ(Median({10, 10, 10, 10, 20, 20, 20, 20}), 10);
  EXPECT_EQ(Median({10, 10, 10, 20, 20, 20, 20, 20}), 20);
}

TEST(PercentileTest, SamplesBeyondTheTail) {
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 50), 500u);
  // The smallest sample that leaves ten samples beyond p99 is 1000.
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_GE(SamplesBeyond(MinSamplesFor(99), 99), kMinSamplesBeyond);
  EXPECT_LT(SamplesBeyond(MinSamplesFor(99) - 1, 99), kMinSamplesBeyond);
  EXPECT_EQ(MinSamplesFor(50), 20u);  // the 11th to 20th lie beyond
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedSpans) {
  // txn [0,100) > Commit [10,60) > wal write [20,30); Read [70,80).
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 60),
                                   MakeSpan(1, 20, 30), MakeSpan(0, 70, 80)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{40, 40, 10, 10}));
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Parallel reads under one engine call: [10,50) and [30,70) cover
  // [10,70), a child sticking out of the parent is clipped at 100.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 50),
                                   MakeSpan(0, 30, 70), MakeSpan(0, 90, 120),
                                   MakeSpan(0, 40, 45)};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfTimeTest, RecorderFoldsTotals) {
  SpanRecorder rec(/*keep_cap=*/2);
  const uint32_t outer = rec.Intern("outer");
  const uint32_t leaf = rec.Intern("leaf");
  EXPECT_EQ(rec.Intern("outer"), outer);
  rec.set_enabled(true);
  const int32_t s = rec.Open(outer, 1000);
  rec.Leaf(leaf, 1100, 1400);
  rec.Close(s, 2000);
  rec.Fold();
  EXPECT_EQ(rec.totals(outer).count, 1u);
  EXPECT_EQ(rec.totals(outer).total_ns, 1000);
  EXPECT_EQ(rec.totals(outer).self_ns, 700);
  EXPECT_EQ(rec.totals(leaf).self_ns, 300);
  EXPECT_EQ(rec.spans_recorded(), 2u);
}

TEST(BenchEnvTest, ClassifiesAndCounts) {
  EXPECT_EQ(ClassifyPath("d/wal.log"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("d/wal.log.3"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("wal.log.tmp"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("d/backup_1.db"), FileClass::kBackup);
  EXPECT_EQ(ClassifyPath("d/CHECKPOINT"), FileClass::kMeta);
  EXPECT_EQ(ClassifyPath("d/CHECKPOINT.tmp"), FileClass::kMeta);
  EXPECT_EQ(ClassifyPath("d/audit.log"), FileClass::kAudit);
  EXPECT_EQ(ClassifyPath("d/other"), FileClass::kOther);

  std::unique_ptr<mmdb::Env> mem = mmdb::NewMemEnv();
  SpanRecorder rec(0);
  BenchEnv env(mem.get(), &rec);
  ASSERT_TRUE(env.WriteStringToFile("d/audit.log", "abcd", true).ok());
  std::string out;
  ASSERT_TRUE(env.ReadFileToString("d/audit.log", &out).ok());
  const EnvTotals t = env.Snapshot();
  const auto& audit = t[static_cast<size_t>(FileClass::kAudit)];
  EXPECT_EQ(audit[static_cast<size_t>(FileOp::kWrite)].ops, 1u);
  EXPECT_EQ(audit[static_cast<size_t>(FileOp::kWrite)].bytes, 4u);
  EXPECT_EQ(audit[static_cast<size_t>(FileOp::kSync)].ops, 1u);
  EXPECT_GE(audit[static_cast<size_t>(FileOp::kRead)].bytes, 4u);
  // Untimed while the recorder is off.
  EXPECT_EQ(audit[static_cast<size_t>(FileOp::kWrite)].ns, 0);
  // Timed and recorded as a span while it is on; syncs are counted only.
  rec.set_enabled(true);
  ASSERT_TRUE(env.WriteStringToFile("d/CHECKPOINT", "m", true).ok());
  rec.Fold();
  const EnvTotals t2 = env.Snapshot();
  const auto& meta = t2[static_cast<size_t>(FileClass::kMeta)];
  EXPECT_GT(meta[static_cast<size_t>(FileOp::kWrite)].ns, 0);
  EXPECT_EQ(meta[static_cast<size_t>(FileOp::kSync)].ops, 1u);
  EXPECT_EQ(meta[static_cast<size_t>(FileOp::kSync)].ns, 0);
  EXPECT_EQ(rec.spans_recorded(), 1u);
}

TEST(BenchEnvTest, CountsReadsFromManyThreads) {
  // Parallel recovery reads backup segments from pool threads while the
  // engine thread is inside OpenExisting; each read must be counted once
  // and parented to that call.
  std::unique_ptr<mmdb::Env> mem = mmdb::NewMemEnv();
  ASSERT_TRUE(mem->WriteStringToFile("d/backup_0.db", std::string(4096, 'b'),
                                     false).ok());
  SpanRecorder rec(/*keep_cap=*/0);
  const uint32_t open_call = rec.Intern("OpenExisting");
  BenchEnv env(mem.get(), &rec);
  constexpr int kThreads = 4, kReads = 500;
  std::vector<std::unique_ptr<mmdb::RandomAccessFile>> files;
  for (int t = 0; t < kThreads; ++t) {
    auto f = env.NewRandomAccessFile("d/backup_0.db");
    ASSERT_TRUE(f.ok());
    files.push_back(std::move(*f));
  }
  rec.set_enabled(true);
  const int32_t span = rec.Open(open_call, NowNs());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string out;
      for (int i = 0; i < kReads; ++i) {
        EXPECT_TRUE(files[t]->Read(0, 512, &out).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  rec.Close(span, NowNs());
  rec.Fold();
  const EnvTotals totals = env.Snapshot();
  const OpTotals& reads = totals[static_cast<size_t>(FileClass::kBackup)]
                                [static_cast<size_t>(FileOp::kRead)];
  EXPECT_EQ(reads.ops, uint64_t{kThreads * kReads});
  EXPECT_EQ(reads.bytes, uint64_t{kThreads * kReads * 512});
  EXPECT_EQ(rec.spans_recorded(), uint64_t{kThreads * kReads + 1});
  EXPECT_EQ(rec.totals(open_call).count, 1u);
  EXPECT_LE(rec.totals(open_call).self_ns, rec.totals(open_call).total_ns);
}

TEST(BenchEnvTest, MirrorDirMakesAnExactCopy) {
  std::unique_ptr<mmdb::Env> a = mmdb::NewMemEnv();
  std::unique_ptr<mmdb::Env> b = mmdb::NewMemEnv();
  const std::string big(3 << 20, 'q');
  ASSERT_TRUE(a->WriteStringToFile("x/big", big, false).ok());
  ASSERT_TRUE(a->WriteStringToFile("x/same", "same", false).ok());
  ASSERT_TRUE(a->WriteStringToFile("x/changed", "new", false).ok());
  ASSERT_TRUE(b->WriteStringToFile("y/stale", "s", false).ok());
  ASSERT_TRUE(b->WriteStringToFile("y/same", "same", false).ok());
  ASSERT_TRUE(b->WriteStringToFile("y/changed", "old", false).ok());
  // A handle on the identical file sees later appends only if MirrorDir
  // left that file in place.
  auto same = b->NewAppendableFile("y/same");
  ASSERT_TRUE(same.ok());
  ASSERT_TRUE(MirrorDir(a.get(), "x", b.get(), "y").ok());
  ASSERT_TRUE((*same)->Append("!").ok());
  EXPECT_FALSE(b->FileExists("y/stale"));
  std::string out;
  ASSERT_TRUE(b->ReadFileToString("y/big", &out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(b->ReadFileToString("y/changed", &out).ok());
  EXPECT_EQ(out, "new");
  ASSERT_TRUE(b->ReadFileToString("y/same", &out).ok());
  EXPECT_EQ(out, "same!");
}

TEST(MetricSetTest, JsonAndMissing) {
  static constexpr MetricDef kDefs[] = {{"a_s", "s"}, {"b", "count"}};
  MetricSet m;
  m.Set("a_s", 0.25);
  EXPECT_EQ(m.Missing(kDefs), "b");
  m.Set("b", 3);
  EXPECT_EQ(m.Missing(kDefs), "");
  EXPECT_EQ(m.ToJson(kDefs),
            "{\"a_s\":{\"value\":0.25,\"unit\":\"s\"},"
            "\"b\":{\"value\":3,\"unit\":\"count\"}}");
}

}  // namespace
}  // namespace wallbench
