//===- bench/pipeline/Measure.h - Percentiles and seeded pools -*- C++ -*-===//
///
/// \file
/// The two pieces of bench_pipeline arithmetic that its unit tests pin:
///
///  * nearest-rank percentiles with the "at least ten samples beyond"
///    guard.  The benchmark reports every latency as p50 and p90: p90
///    needs 100 samples, which every workload exceeds, and it repeats far
///    better across runs than p99 on a shared host;
///  * the seeded synthetic shard pool of the ingest-wide workload: Zipf
///    draws over a large key space per profile kind, byte-identical for a
///    given seed and different across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef ARS_BENCH_PIPELINE_MEASURE_H
#define ARS_BENCH_PIPELINE_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pipeline {

/// Samples that must lie beyond a reported percentile.
constexpr size_t MinSamplesBeyond = 10;

/// 1-based rank of the nearest-rank \p Pct-th percentile of \p N samples:
/// ceil(Pct * N / 100), at least 1.
size_t nearestRank(size_t N, unsigned Pct);

/// Samples strictly above the nearest-rank \p Pct-th percentile.
size_t samplesBeyond(size_t N, unsigned Pct);

/// Whether \p N samples leave MinSamplesBeyond beyond the \p Pct-th.
bool supported(size_t N, unsigned Pct);

/// Nearest-rank percentile of \p Values (unsorted; copied).  0 when empty.
double percentile(std::vector<double> Values, unsigned Pct);

/// A latency distribution as the benchmark reports it.
struct Summary {
  size_t N = 0;
  double P50 = 0.0;
  double P90 = 0.0;
};
Summary summarize(const std::vector<double> &Values);

/// Shape of the ingest-wide shard pool.  Keys are Zipf-ranked; each shard
/// holds exactly the given number of distinct keys per kind.  Field ids
/// come from a smaller space because the .arsp field section is a dense
/// per-field vector (one varint per field id up to the largest).
struct ZipfPoolSpec {
  size_t Shards = 64;
  uint32_t KeySpace = 65536;
  uint32_t FieldSpace = 1024;
  double Exponent = 1.1;
  size_t CallEdges = 600;
  size_t BlockCounts = 400;
  size_t Paths = 200;
  size_t FieldCounters = 300;
};

/// Encoded .arsp shards drawn from \p Seed (fingerprint \p Fingerprint).
std::vector<std::string> zipfPool(uint64_t Seed, const ZipfPoolSpec &Spec,
                                  uint64_t Fingerprint);

} // namespace pipeline

#endif // ARS_BENCH_PIPELINE_MEASURE_H
