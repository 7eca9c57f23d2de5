#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/parse_number.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "reference/sampler_reference.h"

namespace dpcopula {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NumericalError("x").code(), StatusCode::kNumericalError);
  EXPECT_EQ(Status::PrivacyBudgetExceeded("x").code(),
            StatusCode::kPrivacyBudgetExceeded);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyIsCheapAndEqual) {
  Status s = Status::IOError("disk");
  Status t = s;  // NOLINT
  EXPECT_EQ(s, t);
  EXPECT_EQ(t.message(), "disk");
}

Status Fails() { return Status::Internal("boom"); }
Status PropagatesFailure() {
  DPC_RETURN_NOT_OK(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatesFailure().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  DPC_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = QuarterEven(6);  // 6 -> 3 (odd at second step).
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, DoubleOpenNeverZeroOrOne) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDoubleOpen();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(RngTest, BoundedIntsCoverRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextUint64Below(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, IntInRangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.NextInt64InRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values should appear in 1000 draws.
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0, sum_cube = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.NextGaussian();
    sum += z;
    sum_sq += z * z;
    sum_cube += z * z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cube / n, 0.0, 0.05);  // Symmetry.
}

TEST(RngTest, PolarGaussianMoments) {
  // The polar source of the sampler oracle must stay statistically sound —
  // the sampler's distribution tests compare against it.
  Rng rng(19);
  reference::PolarGaussian polar(&rng);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0, sum_cube = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = polar.Next();
    sum += z;
    sum_sq += z * z;
    sum_cube += z * z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cube / n, 0.0, 0.05);
}

TEST(RngTest, ZigguratTailFrequency) {
  // P(|Z| > 3.442619855899) ≈ 5.76e-4 — the ziggurat's explicit tail
  // branch. A broken tail sampler would skew this directly.
  Rng rng(29);
  const int n = 2000000;
  int tail = 0;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(rng.NextGaussian()) > 3.442619855899) ++tail;
  }
  // 2 * (1 - Phi(R)) * n ≈ 1153 at n = 2e6.
  const double expected = std::erfc(3.442619855899 / std::sqrt(2.0)) * n;
  EXPECT_NEAR(static_cast<double>(tail), expected, 5.0 * std::sqrt(expected));
}

TEST(RngTest, FillGaussianMatchesSequentialDraws) {
  Rng a(31), b(31);
  double block[257];
  a.FillGaussian(block, 257);
  for (int i = 0; i < 257; ++i) {
    ASSERT_DOUBLE_EQ(block[i], b.NextGaussian()) << "i=" << i;
  }
}

TEST(RngTest, SplitDecorrelates) {
  Rng parent(23);
  Rng child = parent.Split();
  // Child stream should not reproduce the parent stream.
  Rng parent_copy(23);
  parent_copy.Split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextUint64() == parent.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(ParallelTest, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(-3), 1);
  EXPECT_EQ(ResolveNumThreads(5), 5);
  EXPECT_EQ(ResolveNumThreads(0), HardwareThreads());
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelTest, MakeShardsCoversRangeExactlyOnce) {
  for (std::size_t n : {0UL, 1UL, 7UL, 100UL, 1000UL}) {
    for (std::size_t grain : {1UL, 3UL, 64UL, 5000UL}) {
      const auto shards = MakeShards(0, n, grain);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (const auto& s : shards) {
        EXPECT_EQ(s.begin, expect_begin);
        EXPECT_LT(s.begin, s.end);
        EXPECT_LE(s.end - s.begin, grain);
        covered += s.end - s.begin;
        expect_begin = s.end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    ParallelFor(
        0, n, 17,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            visits[i].fetch_add(1);
          }
        },
        threads);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelTest, ParallelForShardedIsThreadCountInvariant) {
  // Per-shard RNG streams: filling a buffer must give identical bytes for
  // any thread count, and must advance the parent identically.
  auto fill = [](int threads, std::vector<std::uint64_t>* out,
                 std::uint64_t* parent_after) {
    Rng rng(321);
    out->assign(1000, 0);
    ParallelForSharded(
        0, 1000, 64, &rng,
        [&](std::size_t begin, std::size_t end, Rng* shard_rng) {
          for (std::size_t i = begin; i < end; ++i) {
            (*out)[i] = shard_rng->NextUint64();
          }
        },
        threads);
    *parent_after = rng.NextUint64();
  };
  std::vector<std::uint64_t> base, other;
  std::uint64_t base_parent = 0, other_parent = 0;
  fill(1, &base, &base_parent);
  for (int threads : {2, 3, 16}) {
    fill(threads, &other, &other_parent);
    EXPECT_EQ(base, other) << "threads=" << threads;
    EXPECT_EQ(base_parent, other_parent) << "threads=" << threads;
  }
}

TEST(ParallelTest, NestedParallelForFinishesWithMoreTasksThanWorkers) {
  // Three levels of nesting, with more outer tasks than the pool has
  // workers: every worker can be blocked in a nested Run while that Run's
  // helpers sit in the queue. Each caller claims the tasks nobody started,
  // so the whole nest must finish.
  const std::size_t outer = 2 * static_cast<std::size_t>(
                                    ThreadPool::Global().num_workers()) +
                            3;
  std::vector<std::atomic<int>> visits(outer * 6 * 50);
  for (auto& v : visits) v.store(0);
  ParallelFor(
      0, outer, 1,
      [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) {
          ParallelFor(
              0, 6, 1,
              [&](std::size_t b1, std::size_t e1) {
                for (std::size_t j = b1; j < e1; ++j) {
                  ParallelFor(
                      0, 50, 7,
                      [&](std::size_t b2, std::size_t e2) {
                        for (std::size_t k = b2; k < e2; ++k) {
                          visits[(i * 6 + j) * 50 + k].fetch_add(1);
                        }
                      },
                      0);
                }
              },
              0);
        }
      },
      0);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, NestedParallelForFansOutToIdleWorkers) {
  // A loop started from inside a pool task runs on more than one thread
  // when workers are idle: here the one outer task leaves all but one
  // thread free. Each inner shard waits (boundedly) for another thread to
  // join, so a run on two threads is seen even on a loaded host.
  if (ThreadPool::Global().num_workers() < 3) {
    GTEST_SKIP() << "needs a pool of at least 3 workers";
  }
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  std::atomic<int> running{0};
  ThreadPool::Global().Run(2, 2, [&](std::size_t task) {
    if (task != 0) return;  // Task 1 frees its thread straight away.
    ParallelFor(
        0, 8, 1,
        [&](std::size_t, std::size_t) {
          {
            std::lock_guard<std::mutex> lock(mu);
            inner_threads.insert(std::this_thread::get_id());
          }
          running.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (running.load() < 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        4);
  });
  EXPECT_GE(inner_threads.size(), 2u);
}

TEST(ParallelTest, EmptyAndSingleRangesWork) {
  int calls = 0;
  ParallelFor(
      5, 5, 4, [&](std::size_t, std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
  Rng rng(1);
  ParallelForSharded(
      0, 1, 4, &rng, [&](std::size_t, std::size_t, Rng*) { ++calls; }, 8);
  EXPECT_EQ(calls, 1);
}

TEST(ParseNumberTest, DoubleTakesWholeDecimalOrExponentForms) {
  const std::vector<std::pair<std::string, double>> good = {
      {"0", 0.0},    {"12", 12.0},  {"-3.5", -3.5}, {"+4", 4.0},
      {"1e3", 1e3},  {"2E-2", 2e-2}, {".5", 0.5},   {"5.", 5.0},
      {"007", 7.0},  {"-0", -0.0},  {"+1e+2", 1e2},
  };
  for (const auto& [text, want] : good) {
    double got = 99.0;
    EXPECT_TRUE(ParseDouble(text, &got)) << text;
    EXPECT_EQ(got, want) << text;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << text;
  }
  double nan = 0.0, inf = 0.0;
  EXPECT_TRUE(ParseDouble("nan", &nan));
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_TRUE(ParseDouble("-Infinity", &inf));
  EXPECT_TRUE(std::isinf(inf) && inf < 0);
}

TEST(ParseNumberTest, DoubleRefusesPartialAndForeignForms) {
  for (const std::string text :
       {"", "+", "-", "abc", "5abc", "5 ", " 5", "0x10", "0x1p3", "+-5",
        "++5", "--5", "1e", "1.2.3", "1e400", "-1e400", "1e-400", "1,5"}) {
    double got = 99.0;
    EXPECT_FALSE(ParseDouble(text, &got)) << text;
    EXPECT_EQ(got, 99.0) << text;  // Untouched on failure.
  }
}

TEST(ParseNumberTest, Uint64TakesDigitsOnly) {
  std::uint64_t got = 0;
  EXPECT_TRUE(ParseUint64("0", &got));
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(ParseUint64("42", &got));
  EXPECT_EQ(got, 42u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &got));
  EXPECT_EQ(got, UINT64_MAX);
  for (const std::string text :
       {"", "-1", "+1", "4x", " 4", "4 ", "1.0", "1e3", "0x10",
        "18446744073709551616", "abc"}) {
    got = 7;
    EXPECT_FALSE(ParseUint64(text, &got)) << text;
    EXPECT_EQ(got, 7u) << text;
  }
}

}  // namespace
}  // namespace dpcopula
