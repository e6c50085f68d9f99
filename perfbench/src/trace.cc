#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::size_t capacity)
    : origin_(std::chrono::steady_clock::now()), slots_(capacity) {}

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Record(const Span& span) {
  const std::size_t slot = used_.fetch_add(1, std::memory_order_relaxed);
  if (slot < slots_.size()) {
    slots_[slot] = span;
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::Bind(const void* key, Binding binding) {
  std::lock_guard<std::mutex> lock(bindings_mu_);
  bindings_[key] = binding;
}

void Tracer::Unbind(const void* key) {
  std::lock_guard<std::mutex> lock(bindings_mu_);
  bindings_.erase(key);
}

Tracer::Binding Tracer::Lookup(const void* key) const {
  std::lock_guard<std::mutex> lock(bindings_mu_);
  const auto it = bindings_.find(key);
  return it == bindings_.end() ? Binding{} : it->second;
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(used_.load(), slots_.size());
  return std::vector<Span>(slots_.begin(), slots_.begin() + n);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"shard\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.shard,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::uint64_t request, std::int32_t shard)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.shard = shard;
  span_.start_ns = tracer_->Now();
}

double ScopedSpan::End() {
  if (tracer_ == nullptr || ended_) return span_.micros();
  ended_ = true;
  span_.end_ns = tracer_->Now();
  tracer_->Record(span_);
  return span_.micros();
}

ScopedSpan::~ScopedSpan() { End(); }

std::unordered_map<std::uint64_t, double> SelfTimesUs(
    const std::vector<Span>& spans, const char* name) {
  std::unordered_map<std::uint64_t, const Span*> targets;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) targets.emplace(s.id, &s);
  }
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    const auto it = targets.find(s.parent);
    if (it == targets.end()) continue;
    // Clip to the parent's interval: only the covered part is subtracted.
    const std::int64_t a = std::max(s.start_ns, it->second->start_ns);
    const std::int64_t b = std::min(s.end_ns, it->second->end_ns);
    if (b > a) children[s.parent].emplace_back(a, b);
  }
  std::unordered_map<std::uint64_t, double> out;
  for (const auto& [id, span] : targets) {
    std::int64_t covered = 0;
    auto found = children.find(id);
    if (found != children.end()) {
      auto& intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_a = intervals.front().first;
      std::int64_t cur_b = intervals.front().second;
      for (const auto& [a, b] : intervals) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
        }
        cur_b = std::max(cur_b, b);
      }
      covered += cur_b - cur_a;
    }
    out[id] = static_cast<double>(span->end_ns - span->start_ns - covered) / 1e3;
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.micros());
  }
  return out;
}

}  // namespace perfbench
