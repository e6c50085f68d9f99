// Open-loop load generation and the sample statistics the benchmark reports.
//
// A rung sends requests on a Poisson schedule fixed before the rung starts,
// whatever the system does: a slow system builds a queue instead of slowing
// the sender. Every request is timed from the moment it was due, so the wait
// a stall imposes on later requests is counted. Requests are executed by a
// fixed set of load threads; a thread that claims a request before it is due
// sleeps until then, and how late it wakes is the generator's own lateness,
// reported apart from the system's latency.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Mixes a seed and an index into an independent 64-bit seed (SplitMix64),
/// so per-request randomness depends only on (seed, request index).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index);

/// Send offsets in seconds for a Poisson process of `rate` per second over
/// `seconds`, conditioned on its count: exactly round(rate * seconds) sends
/// at uniformly random times, so every run of a phase sends the same number
/// of requests and only their timing varies with the seed.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/// Zipf(s) over [0, n): P(i) proportional to (i + 1)^-s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Pick(ppanns::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// What one open-loop run measured.
struct OpenLoopResult {
  double wall_s = 0.0;            ///< first due time to last completion
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;  ///< due time to completion, per request
  std::vector<double> lag_ms;      ///< wake-up lateness of on-time claims
  double drain_ms = 0.0;           ///< last completion after the last due time
};

/// Runs `issue(i, &done)` for every offset on `threads` load threads, each
/// request no earlier than its due time. `issue` returns false for a failed
/// request and may set `done` to when the measured part of the request
/// ended (work after it is not timed); left unset, the request ends when
/// `issue` returns.
using IssueFn =
    std::function<bool(std::size_t, std::chrono::steady_clock::time_point*)>;
OpenLoopResult RunOpenLoop(const std::vector<double>& offsets_s,
                           std::size_t threads, const IssueFn& issue);

/// A timing sample summarized as its median and the highest percentile, at
/// most `want`, that has at least ten samples beyond it.
struct Tail {
  double p50 = 0.0;
  double high = 0.0;
  double quantile = 0.0;  ///< the percentile `high` is, as a fraction
  std::size_t n = 0;
  std::size_t windows = 1;
};
Tail Summarize(std::vector<double> samples, double want = 0.99);

/// Summarize made robust to a stall of the host that covers part of a run:
/// the samples, in send order, are cut into consecutive windows, and each
/// statistic is the median of the windows' values. `p50` uses as many
/// windows of at least 250 samples as the samples fill (at most 16); `high`
/// as many of at least 1000 (at most nine), so that each window's tail has
/// ten samples beyond it. With too few samples for two windows a statistic
/// is Summarize's.
Tail WindowedTail(const std::vector<double>& samples);

double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
