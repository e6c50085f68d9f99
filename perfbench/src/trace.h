// In-memory span recorder for the traced run.
//
// A span is one call into a layer, timed from the benchmark's side of the
// call: its name ("crypto.trapdoor", "index.filter", "net.filter_rpc", ...),
// start and end, the span that caused it and the request it belongs to.
// Spans go into a fixed-capacity array (one atomic slot claim per span, no
// lock) and are written out as JSON lines when the run ends. A layer's self
// time is its span's duration minus the part of that interval its child
// spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request index in the run
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int32_t shard = -1;    ///< shard the call addressed, -1 = none

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t Now() const;
  void Record(const Span& span);

  /// Lets a call that cannot see its caller's span (a shard transport
  /// running on a pool thread) find it: the caller binds the address of the
  /// object it passes down, the callee looks the address up.
  struct Binding {
    std::uint64_t span = 0;
    std::uint64_t request = 0;
  };
  void Bind(const void* key, Binding binding);
  void Unbind(const void* key);
  Binding Lookup(const void* key) const;

  /// The recorded spans; call once every recording thread has finished.
  std::vector<Span> spans() const;
  std::size_t dropped() const { return dropped_.load(); }
  bool WriteJsonLines(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::vector<Span> slots_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex bindings_mu_;
  std::unordered_map<const void*, Binding> bindings_;
};

/// Records one span over its own lifetime. A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
             std::uint64_t request, std::int32_t shard = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Ends the span now and returns its duration in microseconds.
  double End();

 private:
  Tracer* tracer_;
  Span span_;
  bool ended_ = false;
};

/// Self time in microseconds of every span named `name`, keyed by span id.
std::unordered_map<std::uint64_t, double> SelfTimesUs(
    const std::vector<Span>& spans, const char* name);

/// Durations in microseconds of every span named `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
