#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {
using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
}  // namespace

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed) {
  ppanns::Rng rng(seed);
  std::vector<double> offsets(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& t : offsets) t = rng.Uniform(0.0, seconds);
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf_[i] = total;
  }
}

std::size_t ZipfSampler::Pick(ppanns::Rng& rng) const {
  const double u = rng.Uniform(0.0, cdf_.back());
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

OpenLoopResult RunOpenLoop(const std::vector<double>& offsets_s,
                           std::size_t threads, const IssueFn& issue) {
  const std::size_t total = offsets_s.size();
  std::vector<double> latency(total, 0.0);
  std::vector<double> lag(total, -1.0);
  std::vector<char> ok(total, 0);
  std::vector<Clock::time_point> done(total);
  std::atomic<std::size_t> next{0};
  // A short lead lets every load thread reach its first claim before the
  // first request is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets_s[i]));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        lag[i] = MillisBetween(due, Clock::now());
      }
      Clock::time_point end{};
      ok[i] = issue(i, &end) ? 1 : 0;
      done[i] = end == Clock::time_point{} ? Clock::now() : end;
      latency[i] = MillisBetween(due, done[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  OpenLoopResult out;
  out.completed = total;
  out.latency_ms = std::move(latency);
  for (std::size_t i = 0; i < total; ++i) {
    if (!ok[i]) ++out.failed;
    if (lag[i] >= 0.0) out.lag_ms.push_back(lag[i]);
  }
  if (total > 0) {
    const Clock::time_point last_done =
        *std::max_element(done.begin(), done.end());
    out.wall_s = MillisBetween(start, last_done) / 1e3;
    out.drain_ms = std::max(
        0.0, MillisBetween(start, last_done) - offsets_s.back() * 1e3);
  }
  return out;
}

Tail Summarize(std::vector<double> samples, double want) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  t.p50 = samples[(n - 1) / 2];
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(want * static_cast<double>(n))) - 1;
  if (n >= 11) rank = std::min(rank, n - 11);
  rank = std::min(rank, n - 1);
  t.high = samples[rank];
  t.quantile = static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

namespace {
/// Summarize of each of `windows` consecutive equal slices of `samples`.
std::vector<Tail> SummarizeWindows(const std::vector<double>& samples,
                                   std::size_t windows) {
  std::vector<Tail> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + w * samples.size() / windows;
    const auto end = samples.begin() + (w + 1) * samples.size() / windows;
    out.push_back(Summarize(std::vector<double>(begin, end)));
  }
  return out;
}

std::size_t WindowCount(std::size_t samples, std::size_t min_window,
                        std::size_t max_windows) {
  return std::min(max_windows, std::max<std::size_t>(1, samples / min_window));
}
}  // namespace

Tail WindowedTail(const std::vector<double>& samples) {
  Tail all = Summarize(samples);
  const std::size_t mid_windows = WindowCount(samples.size(), 250, 16);
  if (mid_windows > 1) {
    std::vector<double> p50s;
    for (const Tail& t : SummarizeWindows(samples, mid_windows)) p50s.push_back(t.p50);
    all.p50 = Median(p50s);
  }
  const std::size_t tail_windows = WindowCount(samples.size(), 1000, 9);
  if (tail_windows > 1) {
    std::vector<double> highs;
    double quantile = 1.0;
    for (const Tail& t : SummarizeWindows(samples, tail_windows)) {
      highs.push_back(t.high);
      quantile = std::min(quantile, t.quantile);
    }
    all.high = Median(highs);
    all.quantile = quantile;
    all.windows = tail_windows;
  }
  return all;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

}  // namespace perfbench
