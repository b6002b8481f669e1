// Hand-computed fixtures for stats.hpp. Exits non-zero on the first
// mismatch; run.py runs it after every build, before any measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

void expect_true(const char* what, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++g_failures;
  }
}

std::vector<double> range(int lo, int hi) {  // lo..hi inclusive, shuffled order
  std::vector<double> v;
  for (int i = hi; i >= lo; --i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect_near("median odd", median({3, 1, 2}), 2.0);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median single", median({7}), 7.0);
  expect_near("median empty", median({}), 0.0);

  // statistics.quantiles(..., n=4) values, worked by hand from its formula.
  Quartiles q = quartiles(range(1, 10));
  expect_near("quartiles 1..10 q1", q.q1, 2.75);
  expect_near("quartiles 1..10 q2", q.q2, 5.5);
  expect_near("quartiles 1..10 q3", q.q3, 8.25);
  q = quartiles({1, 2, 3, 4, 5});
  expect_near("quartiles 1..5 q1", q.q1, 1.5);
  expect_near("quartiles 1..5 q2", q.q2, 3.0);
  expect_near("quartiles 1..5 q3", q.q3, 4.5);
  q = quartiles({5, 1, 3});
  expect_near("quartiles n=3 q1", q.q1, 1.0);
  expect_near("quartiles n=3 q3", q.q3, 5.0);
  // Two samples: the exclusive method extrapolates past both ends.
  q = quartiles({2, 1});
  expect_near("quartiles n=2 q1", q.q1, 0.75);
  expect_near("quartiles n=2 q2", q.q2, 1.5);
  expect_near("quartiles n=2 q3", q.q3, 2.25);
  q = quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 1000});
  expect_near("quartiles outlier q1", q.q1, 27.5);
  expect_near("quartiles outlier q3", q.q3, 82.5);
  // (82.5 - 27.5) / 55
  expect_near("relative iqr", relative_iqr({10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}), 1.0);

  // p99 needs 1000 samples: rank ceil(0.99 * 1000) = 990 leaves exactly 10.
  Tail t = tail(range(1, 1000));
  expect_true("tail 1000 available", t.available);
  expect_near("tail 1000 value", t.value, 990);
  expect_near("tail 1000 percentile", t.percentile, 99.0);
  expect_true("tail 1000 count", t.count == 1000);
  t = tail(range(1, 2000));
  expect_near("tail 2000 value", t.value, 1980);
  expect_near("tail 2000 percentile", t.percentile, 99.0);
  // 999 samples are one short of p99: rank 989 (10 beyond), p = 98.998...
  t = tail(range(1, 999));
  expect_near("tail 999 value", t.value, 989);
  expect_near("tail 999 percentile", t.percentile, 100.0 * 989 / 999);
  // Too small for p99: 500 samples support p98 (rank 490, 10 beyond).
  t = tail(range(1, 500));
  expect_near("tail 500 value", t.value, 490);
  expect_near("tail 500 percentile", t.percentile, 98.0);
  // 20 samples support the median only.
  t = tail(range(1, 20));
  expect_near("tail 20 value", t.value, 10);
  expect_near("tail 20 percentile", t.percentile, 50.0);
  // Eleven samples: the smallest sample still has ten beyond it.
  t = tail(range(1, 11));
  expect_true("tail 11 available", t.available);
  expect_near("tail 11 value", t.value, 1);
  // Ten or fewer: no percentile has ten samples beyond it.
  t = tail(range(1, 10));
  expect_true("tail 10 unavailable", !t.available);
  expect_true("tail 10 count", t.count == 10);
  expect_true("tail empty unavailable", !tail({}).available);

  // Below capacity the reservoir keeps everything; above it, exactly
  // `capacity` samples drawn from the whole series.
  Reservoir res(100);
  for (int i = 1; i <= 50; ++i) res.add(i);
  expect_true("reservoir keeps all below capacity", res.kept().size() == 50 && res.seen() == 50);
  expect_near("reservoir median below capacity", median(res.kept()), 25.5);
  for (int i = 51; i <= 100000; ++i) res.add(i);
  expect_true("reservoir bounded", res.kept().size() == 100 && res.seen() == 100000);
  const double m = median(res.kept());
  expect_true("reservoir samples the whole series", m > 30000 && m < 70000);

  if (g_failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("stats_test: ok\n");
  return EXIT_SUCCESS;
}
