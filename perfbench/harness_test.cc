// Self-tests of the benchmark's measurement harness (perfbench/harness.h).
// Run with: python3 perfbench/run.py --selftest

#include "harness.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "tensor/ops.h"

namespace perfbench {
namespace {

using adamine::Tensor;
using adamine::serve::ScoredHit;

TEST(NearestRankTest, HandComputedCases) {
  EXPECT_EQ(NearestRank({}, 50), 0.0);
  EXPECT_EQ(NearestRank({7.0}, 0), 7.0);
  EXPECT_EQ(NearestRank({7.0}, 100), 7.0);
  // n = 4: p50 -> rank ceil(2) = 2; p51 -> rank ceil(2.04) = 3.
  const std::vector<double> four = {40, 10, 30, 20};
  EXPECT_EQ(NearestRank(four, 50), 20);
  EXPECT_EQ(NearestRank(four, 51), 30);
  EXPECT_EQ(NearestRank(four, 25), 10);
  EXPECT_EQ(NearestRank(four, 100), 40);
  EXPECT_EQ(NearestRank(four, 0), 10);
  // n = 5: the median is the 3rd value, never an interpolation.
  EXPECT_EQ(Median({5, 1, 4, 2, 3}), 3);
  // 1..100: p95 is 95 and p99 is 99, both observed values.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(NearestRank(hundred, 95), 95);
  EXPECT_EQ(NearestRank(hundred, 99), 99);
  EXPECT_EQ(NearestRank(hundred, 99.5), 100);
  // p is clamped.
  EXPECT_EQ(NearestRank(hundred, 150), 100);
  EXPECT_EQ(NearestRank(hundred, -3), 1);
}

TEST(ZipfSamplerTest, ProbabilitiesFollowOneOverRank) {
  const ZipfSampler zipf(8192, 1.0);
  double harmonic = 0.0;
  for (int r = 1; r <= 8192; ++r) harmonic += 1.0 / r;
  EXPECT_NEAR(zipf.Probability(0), 1.0 / harmonic, 1e-12);
  EXPECT_NEAR(zipf.Probability(9), 0.1 / harmonic, 1e-12);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(3), 4.0, 1e-9);
}

TEST(ZipfSamplerTest, SampleFrequenciesMatch) {
  const ZipfSampler zipf(1000, 1.0);
  adamine::Rng rng(5);
  const int n = 400000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < n; ++i) {
    const int64_t r = zipf.Sample(rng);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 1000);
    ++counts[static_cast<size_t>(r)];
  }
  for (int r : {0, 1, 2, 9, 99}) {
    const double expected = zipf.Probability(r) * n;
    // Four binomial standard deviations.
    EXPECT_NEAR(counts[static_cast<size_t>(r)], expected,
                4.0 * std::sqrt(expected))
        << "rank " << r;
  }
  // The tail half of the ranks holds its share too.
  double tail_expected = 0.0;
  int tail = 0;
  for (int r = 500; r < 1000; ++r) {
    tail_expected += zipf.Probability(r) * n;
    tail += counts[static_cast<size_t>(r)];
  }
  EXPECT_NEAR(tail, tail_expected, 4.0 * std::sqrt(tail_expected));
}

TEST(ZipfSamplerTest, SameSeedSameStream) {
  const ZipfSampler zipf(8192, 1.0);
  adamine::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.Sample(a), zipf.Sample(b));
}

TEST(ProcReadersTest, ParseProcField) {
  const std::string status =
      "Name:\tserve_bench\nVmHWM:\t  123456 kB\nThreads:\t7\n";
  EXPECT_EQ(ParseProcField(status, "VmHWM:"), 123456);
  EXPECT_EQ(ParseProcField(status, "Threads:"), 7);
  EXPECT_EQ(ParseProcField(status, "VmRSS:"), -1);
  EXPECT_EQ(ParseProcField("write_bytes: 4096\n", "write_bytes:"), 4096);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(ProcReadersTest, CpuTimeCountsEveryThread) {
  // Each thread spins for 100 ms of its own CPU time, so the check holds
  // however busy the machine is; the process total must include both.
  const auto spin = [] {
    const double start = ThreadCpuMs();
    double x = 0.0;
    while (ThreadCpuMs() - start < 100.0) x += std::sqrt(x + 1.0);
    volatile double sink = x;
    (void)sink;
  };
  const ProcessUsage before = ReadProcessUsage();
  std::thread other(spin);
  spin();
  other.join();
  const double cpu_ms = ReadProcessUsage().cpu_ms - before.cpu_ms;
  EXPECT_GE(cpu_ms, 195.0);
  EXPECT_LT(cpu_ms, 300.0);
}

TEST(ProcReadersTest, ContextSwitchesCountSleeps) {
  const int64_t before = ReadProcessUsage().ctx_switches;
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ReadProcessUsage().ctx_switches - before, 20);
}

TEST(ProcReadersTest, PeakRssRisesWithTouchedMemory) {
  const double before = PeakRssMiB();
  ASSERT_GT(before, 0.0);
  const size_t bytes = size_t{96} << 20;
  std::vector<char> block(bytes);
  std::memset(block.data(), 1, bytes);
  EXPECT_GE(PeakRssMiB(), before + 64.0);
  EXPECT_EQ(block[bytes / 2], 1);
}

TEST(ProcReadersTest, ThreadCountSeesAThread) {
  const int64_t before = ThreadCount();
  ASSERT_GE(before, 1);
  std::atomic<bool> go{false};
  int64_t during = 0;
  std::thread t([&] {
    while (!go.load()) std::this_thread::yield();
  });
  during = ThreadCount();
  go = true;
  t.join();
  EXPECT_EQ(during, before + 1);
  EXPECT_GE(IoWriteBytes(), -1);
}

TEST(PhaseClockTest, PausedTimeIsExcluded) {
  PhaseClock clock;
  clock.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  clock.Pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  clock.Resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  clock.Stop();
  EXPECT_GE(clock.wall_s(), 0.058);
  EXPECT_LT(clock.wall_s(), 0.13);  // 0.16 if the pause counted.
}

TEST(WriterLatenessTest, OnTimeEarlyAndLateOps) {
  const TimePoint start = Clock::now();
  const FixedRateSchedule schedule(start, 5.0);
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_NEAR(MillisBetween(start, schedule.Due(200)), 1000.0, 1e-6);
  LatenessLog log;
  // On time, early (counts as 0), 2 ms late.
  log.Record(schedule.Due(0), schedule.Due(0));
  log.Record(schedule.Due(1), schedule.Due(1) - std::chrono::milliseconds(1));
  log.Record(schedule.Due(2), schedule.Due(2) + std::chrono::milliseconds(2));
  EXPECT_EQ(log.lateness_ms()[0], 0.0);
  EXPECT_EQ(log.lateness_ms()[1], 0.0);
  EXPECT_NEAR(log.lateness_ms()[2], 2.0, 1e-6);
  EXPECT_NEAR(log.Max(), 2.0, 1e-6);
}

TEST(WriterLatenessTest, StallMakesTheBacklogLate) {
  // A writer that never skips: a 22 ms stall at op 0 of a 5 ms schedule
  // leaves ops 1..4 late by 17, 12, 7 and 2 ms, then it is back on time.
  const TimePoint start = Clock::now();
  const FixedRateSchedule schedule(start, 5.0);
  LatenessLog log;
  TimePoint free_at = start;
  const double cost_ms[] = {22, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 7; ++i) {
    const TimePoint begin = std::max(free_at, schedule.Due(i));
    log.Record(schedule.Due(i), begin);
    free_at = begin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              cost_ms[i]));
  }
  const std::vector<double> want = {0, 17, 12, 7, 2, 0, 0};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(log.lateness_ms()[i], want[i], 1e-6) << "op " << i;
  }
  EXPECT_NEAR(log.Percentile(50), 2.0, 1e-6);
}

TEST(OracleTest, AcceptsExactAndRejectsPerturbedAnswers) {
  adamine::Rng rng(3);
  Tensor rows = adamine::L2NormalizeRows(Tensor::Randn({300, 16}, rng));
  Tensor queries = adamine::L2NormalizeRows(Tensor::Randn({5, 16}, rng));
  const Oracle oracle(rows);
  const auto want = oracle.TopK(queries, 10, 3);
  ASSERT_EQ(want.size(), 5u);
  // The same backend answers identically; the oracle's thread split does
  // not change bits.
  EXPECT_EQ(oracle.TopK(queries, 10, 1), want);
  for (const auto& hits : want) EXPECT_TRUE(SameHits(hits, hits));

  auto ulp = want[2];
  ulp[4].score = std::nextafter(ulp[4].score, 2.0f);
  EXPECT_FALSE(SameHits(ulp, want[2]));
  EXPECT_TRUE(SameIds({ulp[0].index, ulp[1].index, ulp[2].index, ulp[3].index,
                       ulp[4].index, ulp[5].index, ulp[6].index, ulp[7].index,
                       ulp[8].index, ulp[9].index},
                      want[2]));

  auto swapped = want[0];
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(SameHits(swapped, want[0]));
  std::vector<int64_t> ids;
  for (const auto& h : swapped) ids.push_back(h.index);
  EXPECT_FALSE(SameIds(ids, want[0]));
  ids.pop_back();
  EXPECT_FALSE(SameIds(ids, want[0]));
}

TEST(OracleTest, MapsRowsToIds) {
  adamine::Rng rng(4);
  Tensor rows = adamine::L2NormalizeRows(Tensor::Randn({50, 8}, rng));
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 50; ++i) ids.push_back(1000 + 3 * i);
  const auto plain = Oracle(rows).TopK(adamine::SliceRows(rows, 7, 8), 3, 1);
  const auto mapped =
      Oracle(rows, ids).TopK(adamine::SliceRows(rows, 7, 8), 3, 1);
  ASSERT_EQ(plain[0].size(), 3u);
  EXPECT_EQ(plain[0][0].index, 7);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(mapped[0][i].index, 1000 + 3 * plain[0][i].index);
    EXPECT_EQ(mapped[0][i].score, plain[0][i].score);
  }
}

TEST(DigestTest, SensitiveToEveryByte) {
  Digest a, b, c;
  a.Add(std::string("garlic olive_oil"));
  b.Add(std::string("garlic olive_oil"));
  c.Add(std::string("garlic olive_oiL"));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfChildren) {
  const TimePoint o = Clock::now();
  const auto at = [o](int ms) { return o + std::chrono::milliseconds(ms); };
  SpanLog log(o, 0);
  const int32_t root = log.Add("request", 1, -1, at(0), at(10));
  log.Add("a", 1, root, at(1), at(4));
  log.Add("b", 1, root, at(3), at(6));       // Overlaps a: union is 1..6.
  log.Add("replay", 1, root, at(12), at(20));  // After the root: no cover.
  const int32_t other = log.Add("request", 2, -1, at(20), at(25));
  EXPECT_NEAR(log.SelfMs(root), 5.0, 1e-9);
  EXPECT_NEAR(log.SelfMs(other), 5.0, 1e-9);
  std::string out;
  log.WriteJsonLines(&out);
  EXPECT_NE(out.find("\"name\":\"replay\""), std::string::npos);
  EXPECT_NE(out.find("\"replay\":true"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(SpanLogTest, ScopedSpanOnNullLogIsFree) {
  ScopedSpan span(nullptr, "x", 0, -1);
  EXPECT_EQ(span.id(), -1);
}

}  // namespace
}  // namespace perfbench
