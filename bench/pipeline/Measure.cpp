//===- bench/pipeline/Measure.cpp -----------------------------*- C++ -*-===//

#include "Measure.h"

#include "profile/Profiles.h"
#include "profstore/ProfileIO.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace pipeline {

size_t nearestRank(size_t N, unsigned Pct) {
  size_t Rank = (static_cast<size_t>(Pct) * N + 99) / 100;
  return Rank < 1 ? 1 : Rank;
}

size_t samplesBeyond(size_t N, unsigned Pct) {
  return N == 0 ? 0 : N - nearestRank(N, Pct);
}

bool supported(size_t N, unsigned Pct) {
  return samplesBeyond(N, Pct) >= MinSamplesBeyond;
}

double percentile(std::vector<double> Values, unsigned Pct) {
  if (Values.empty())
    return 0.0;
  size_t Rank = nearestRank(Values.size(), Pct);
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1),
                   Values.end());
  return Values[Rank - 1];
}

Summary summarize(const std::vector<double> &Values) {
  Summary S;
  S.N = Values.size();
  S.P50 = percentile(Values, 50);
  S.P90 = percentile(Values, 90);
  return S;
}

namespace {

/// Inverse-CDF Zipf sampler over ranks [0, K).
class ZipfSampler {
public:
  ZipfSampler(uint32_t K, double Exponent) : Cdf(K) {
    double Sum = 0.0;
    for (uint32_t R = 0; R != K; ++R)
      Cdf[R] = (Sum += 1.0 / std::pow(static_cast<double>(R + 1), Exponent));
    for (double &C : Cdf)
      C /= Sum;
  }

  uint32_t draw(ars::support::Xorshift64 &Rng) const {
    double U = static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
    auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
    return static_cast<uint32_t>(
        std::min<size_t>(It - Cdf.begin(), Cdf.size() - 1));
  }

private:
  std::vector<double> Cdf;
};

/// \p Count distinct Zipf-ranked keys, in draw order.
std::vector<uint32_t> distinctDraws(const ZipfSampler &Z, size_t Count,
                                    ars::support::Xorshift64 &Rng) {
  std::set<uint32_t> Seen;
  std::vector<uint32_t> Keys;
  while (Keys.size() < Count) {
    uint32_t K = Z.draw(Rng);
    if (Seen.insert(K).second)
      Keys.push_back(K);
  }
  return Keys;
}

} // namespace

std::vector<std::string> zipfPool(uint64_t Seed, const ZipfPoolSpec &Spec,
                                  uint64_t Fingerprint) {
  const ZipfSampler Keys(Spec.KeySpace, Spec.Exponent);
  const ZipfSampler Fields(Spec.FieldSpace, Spec.Exponent);
  ars::support::Xorshift64 Rng(Seed * 0x9E3779B97F4A7C15ULL + 0x5A17);
  auto count = [&] { return 1 + Rng.nextBelow(64); };
  std::vector<std::string> Pool;
  for (size_t S = 0; S != Spec.Shards; ++S) {
    ars::profile::ProfileBundle B;
    // Each rank maps injectively onto a plausible key of its kind.
    for (uint32_t R : distinctDraws(Keys, Spec.CallEdges, Rng))
      B.CallEdges.record({static_cast<int>(R >> 8),
                          static_cast<int>(R & 0xFF),
                          static_cast<int>((R * 7919u) % 1000u)},
                         count());
    for (uint32_t R : distinctDraws(Keys, Spec.BlockCounts, Rng))
      B.BlockCounts.record(static_cast<int>(R >> 6),
                           static_cast<int>(R & 63), count());
    for (uint32_t R : distinctDraws(Keys, Spec.Paths, Rng))
      B.Paths.record(static_cast<int>(R >> 8), static_cast<int64_t>(R & 0xFF),
                     count());
    for (uint32_t R : distinctDraws(Fields, Spec.FieldCounters, Rng))
      B.FieldAccesses.record(static_cast<int>(R), count());
    Pool.push_back(ars::profstore::encodeBundle(B, Fingerprint));
  }
  return Pool;
}

} // namespace pipeline
