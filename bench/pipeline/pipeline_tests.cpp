//===- bench/pipeline/pipeline_tests.cpp - Arithmetic tests -----*- C++ -*-===//
///
/// \file
/// Pins the arithmetic bench_pipeline's numbers rest on: the nearest-rank
/// percentile and its "ten samples beyond" guard, span self time, and the
/// seeded Zipf pool.  Plain checks rather than a test framework, so the
/// standalone bench project needs nothing beyond the compiler.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Trace.h"

#include <cstdio>
#include <numeric>
#include <vector>

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

std::vector<double> oneTo(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

void testPercentiles() {
  using namespace pipeline;
  // Nearest rank: ceil(P * N / 100).
  CHECK(nearestRank(100, 99) == 99);
  CHECK(nearestRank(150, 95) == 143);
  CHECK(nearestRank(1, 50) == 1);
  CHECK(percentile(oneTo(100), 50) == 50.0);
  CHECK(percentile(oneTo(100), 99) == 99.0);
  CHECK(percentile(oneTo(10), 95) == 10.0);
  CHECK(percentile({}, 50) == 0.0);
  // Unsorted input gives the same answer.
  CHECK(percentile({5, 1, 4, 2, 3}, 50) == 3.0);

  // The guard: p99 needs 1000 samples, p95 200, p90 100, p50 20.
  CHECK(samplesBeyond(1000, 99) == 10);
  CHECK(samplesBeyond(999, 99) == 9);
  CHECK(supported(1000, 99) && !supported(999, 99));
  CHECK(supported(200, 95) && !supported(199, 95));
  CHECK(supported(100, 90) && !supported(99, 90));
  CHECK(supported(20, 50) && !supported(19, 50));
  CHECK(samplesBeyond(0, 90) == 0 && !supported(0, 50));

  Summary S = summarize(oneTo(150));
  CHECK(S.N == 150 && S.P50 == 75.0 && S.P90 == 135.0);
}

pipeline::Span span(uint64_t Id, uint64_t Parent, int64_t B, int64_t E) {
  pipeline::Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Op = Parent ? Parent : Id;
  S.BeginNs = B;
  S.EndNs = E;
  return S;
}

void testSelfTime() {
  using pipeline::selfTimesNs;
  // An op [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and [90,120) (clipped to 10), recorded in end-time order.
  std::vector<pipeline::Span> Spans = {span(2, 1, 10, 30), span(3, 1, 20, 50),
                                       span(1, 0, 0, 100), span(4, 1, 90, 120)};
  std::vector<int64_t> Self = selfTimesNs(Spans);
  CHECK(Self.size() == 4);
  CHECK(Self[2] == 100 - 40 - 10);
  CHECK(Self[0] == 20 && Self[1] == 30 && Self[3] == 30);

  // Nested: grandchildren count against their parent only.
  std::vector<pipeline::Span> Nested = {span(1, 0, 0, 10), span(2, 1, 0, 8),
                                        span(3, 2, 1, 7)};
  Self = selfTimesNs(Nested);
  CHECK(Self[0] == 2 && Self[1] == 2 && Self[2] == 6);

  // A span whose parent was never recorded keeps its whole duration.
  Self = selfTimesNs({span(5, 99, 0, 7)});
  CHECK(Self[0] == 7);

  // Recorded spans keep their ids and parents.
  pipeline::Tracer Tr;
  pipeline::TraceLog &Log = Tr.log("t");
  {
    pipeline::ScopedSpan Op(&Log, "op");
    pipeline::ScopedSpan Child(&Log, "child", Op);
  }
  pipeline::ScopedSpan Off(nullptr, "ignored");
  std::vector<pipeline::Span> Rec = Tr.spans();
  CHECK(Rec.size() == 2);
  CHECK(Rec[1].Parent == 0 && Rec[1].Op == Rec[1].Id);
  CHECK(Rec[0].Parent == Rec[1].Id && Rec[0].Op == Rec[1].Id);
}

void testZipfPool() {
  pipeline::ZipfPoolSpec Spec;
  Spec.Shards = 4;
  std::vector<std::string> A = pipeline::zipfPool(42, Spec, 7);
  std::vector<std::string> B = pipeline::zipfPool(42, Spec, 7);
  std::vector<std::string> C = pipeline::zipfPool(43, Spec, 7);
  CHECK(A.size() == 4);
  CHECK(A == B);
  CHECK(A != C);
  for (size_t I = 1; I != A.size(); ++I)
    CHECK(A[I] != A[0]);
}

} // namespace

int main() {
  testPercentiles();
  testSelfTime();
  testZipfPool();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("pipeline_tests: all checks passed\n");
  return 0;
}
