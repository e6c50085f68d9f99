// perfbench — the PP-ANNS serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload (sift-local, sift-remote-zipf, gist-churn; see
// deployment.cc and README.md) against the public API under open-loop
// Poisson load, checks the answers, and prints a report whose last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 measures the end-to-end metrics: set-up time (median of the
// workload's set-ups), the highest ladder rate that meets the p99 limit
// (found by a staircase over the ladder), recall and index size; it also
// prints mutation latency and user cost. --trace 1 measures the
// per-layer metrics: it runs the nominal rate once untraced (which gives the
// latencies) and once with spans around every call into a layer, and derives
// layer times, counts and the tracing overhead from them. The spans are
// written to DIR/trace-NAME.jsonl.
//
// Exit codes: 0 success, 1 a correctness check failed (the JSON still
// prints), 2 usage error, 3 invalid run (the load generator fell behind its
// own schedule; no result is printed).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/query_client.h"
#include "deployment.h"
#include "index/brute_force.h"
#include "linalg/kernels.h"
#include "loadgen.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace ppanns;
using Clock = std::chrono::steady_clock;

/// Seconds of the full workload at the nominal rate before anything is
/// measured. After a 0.5 s warm-up the rate the system met kept rising for
/// the whole run.
constexpr double kWarmupSeconds = 5.0;
/// Rungs the staircase moves by at first. The step halves at each reversal
/// of direction, down to one rung, and doubles after kSameWay moves the same
/// way, up to kMaxStep, so that the tries follow a system whose rate moved.
constexpr int kFirstStep = 4;
constexpr int kMaxStep = 8;
constexpr int kSameWay = 3;
/// Every kReplayEvery-th traced request also replays its per-shard filter
/// scans as direct FilterShard calls.
constexpr std::uint64_t kReplayEvery = 8;
/// A run is invalid when the generator's own p99 lateness exceeds this
/// share of the workload's p99 limit.
constexpr double kMaxLagShare = 0.5;
/// Insert/delete pairs whose deletes hit the same shard before moving on.
constexpr std::uint64_t kDeleteBlock = 12;
/// Timed passes over the token pool for the replaying workload's user cost.
constexpr int kTokenCostPasses = 3;
/// Owner encryptions made beyond what the mutation stream needs, so that
/// crypto.dce_encrypt_us is measured on every workload.
constexpr std::size_t kMinInserts = 64;
/// Queries sampled for gist-churn's recall over the live set.
constexpr std::size_t kQuiescedQueries = 100;
/// Start of the index space that keeps mutations, the token pool and the
/// recall check apart from search requests (each one's randomness derives
/// from its index).
constexpr std::uint64_t kCheckBase = 1ull << 40;
constexpr std::uint64_t kClientSalt = 0x51ED270B27ull;
constexpr std::uint64_t kMutationSalt = 0x3A7E5C1Dull;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == nullptr || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_seed && args->seconds >= 1 &&
         args->seconds <= 60 && !args->work_dir.empty() &&
         FindWorkload(args->workload) != nullptr;
}

/// The benchmark's reader/writer gate between searches (shared) and
/// mutations (exclusive) — the facade's contract that callers serialize
/// Insert/Delete against their own searches. Writers take precedence, so
/// a steady stream of readers cannot starve the mutation stream.
class RwGate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void UnlockShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void Lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void Unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

/// What one search left behind; written only by the load thread that ran it.
struct RequestRecord {
  bool ok = false;
  bool cache_hit = false;
  bool id_mismatch = false;     ///< remote: ids differ from the reference
  std::size_t query = 0;
  double user_cost_ms = -1.0;   ///< token generation, fresh-token workloads
  double gate_wait_ms = -1.0;   ///< churn only
  std::size_t nodes = 0;
  std::size_t distances = 0;
  std::size_t dce_comparisons = 0;
  std::size_t hedged = 0;
  std::vector<VectorId> ids;
};

/// What one insert/delete pair left behind; its latency, from its due time,
/// is in Phase::mutations.
struct MutationRecord {
  bool ok = false;
  double compaction_wait_ms = 0.0;  ///< waiting out a pending compaction
  double gate_wait_ms = 0.0;
};

/// One open-loop phase: searches at `rate`, plus the mutation stream on
/// churn workloads.
struct Phase {
  double rate = 0.0;
  std::size_t index = 0;   ///< 1-based try of the staircase; 0 = none
  std::uint64_t base = 0;  ///< request index of the phase's first search
  std::vector<RequestRecord> records;
  OpenLoopResult searches;
  OpenLoopResult mutations;
  std::vector<MutationRecord> mutation_records;

  /// Mutation latencies with every failed pair counted as missing the limit.
  std::vector<double> MutationLatenciesMs() const {
    std::vector<double> out = mutations.latency_ms;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!mutation_records[i].ok) out[i] = std::numeric_limits<double>::infinity();
    }
    return out;
  }

  /// Latencies with every failed request counted as missing the limit.
  std::vector<double> LatenciesMs() const {
    std::vector<double> out = searches.latency_ms;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!records[i].ok) out[i] = std::numeric_limits<double>::infinity();
    }
    return out;
  }
  double AchievedQps() const {
    return searches.wall_s > 0 ? static_cast<double>(searches.completed) /
                                     searches.wall_s
                               : 0.0;
  }
};

/// An open-loop phase before it runs: its search rate, its length, the salt
/// its schedules derive from and its place in the staircase.
struct PhasePlan {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t salt = 0;
  std::size_t index = 0;
};

/// Snapshot of the counters a phase's per-layer numbers are deltas of.
struct CounterSnapshot {
  ResultCacheStats cache;
  std::uint64_t state_version = 0;
  std::size_t wal_bytes = 0;
  std::uint64_t rpc_failed = 0, rpc_bytes = 0, dce_shipped = 0;
};

/// A phase meets the workload's limit when nothing failed, the p99 of all
/// its requests is within the limit and its backlog drained within the
/// limit after the last send.
bool MeetsLimit(const Phase& p, double limit_ms) {
  return p.searches.failed == 0 && Summarize(p.LatenciesMs()).high <= limit_ms &&
         p.searches.drain_ms <= limit_ms;
}

void PrintPhases(const std::vector<Phase>& phases, double limit_ms) {
  std::printf("\n%-5s %-9s %7s %9s %9s %9s %7s %9s %8s %8s %7s\n", "try",
              "rate_qps", "sent", "p50_ms", "p99_ms", "drain_ms", "failed",
              "achieved", "mut", "mut_p50", "limit");
  for (const Phase& p : phases) {
    const Tail t = Summarize(p.LatenciesMs());
    const Tail m = Summarize(p.MutationLatenciesMs());
    std::printf("%-5zu %-9.0f %7zu %9.3f %9.3f %9.3f %7zu %9.1f %8zu %8.3f %7s\n",
                p.index, p.rate, p.searches.completed, t.p50, t.high,
                p.searches.drain_ms, p.searches.failed, p.AchievedQps(),
                p.mutations.completed, m.p50,
                MeetsLimit(p, limit_ms) ? "met" : "missed");
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), seed_(args.seed) {}

  int Run();

 private:
  using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

  PpannsService& serving() { return dep_->serving(); }
  std::size_t Tries() const;
  PhasePlan TryPlan(std::size_t index, int rung) const;
  std::vector<PhasePlan> PossiblePlans(const PhasePlan& warmup) const;
  Phase RunPhase(const PhasePlan& plan, Tracer* tracer);
  std::vector<double> MutationSchedule(const PhasePlan& plan) const;
  bool Search(std::uint64_t g, RequestRecord* rec, Tracer* tracer,
              Clock::time_point* done);
  void ReplayFilters(const QueryToken& token, std::uint64_t parent,
                     std::uint64_t g, Tracer* tracer);
  bool Mutate(std::uint64_t j, Tracer* tracer, MutationRecord* rec);
  double WaitForCompaction() const;
  double QuiescedRecall();
  CounterSnapshot Snapshot(Tracer* tracer);
  void PrepareAfterSetup(std::size_t inserts, Tracer* tracer);
  double AnsweredRecall(const std::vector<Phase>& phases) const;
  double UserCostMs(std::span<const Phase> phases) const;
  Metrics EndToEnd(const std::vector<Phase>& phases,
                   double max_qps, double setup_s, double recall,
                   const Tail& mutate);
  Metrics PerLayer(const Phase& untraced, const Phase& traced,
                   const Tail& mutate,
                   const CounterSnapshot& before, const CounterSnapshot& after,
                   const Tracer& tracer);
  void PrintStamp() const;

  const WorkloadSpec& spec_;
  const Args args_;
  const std::uint64_t seed_;
  Prepared prep_;
  std::unique_ptr<Deployment> dep_;
  SetupTimes setup_;
  double index_mb_ = 0.0;  ///< StorageBytes() of the package as set up
  SecretKeysPtr keys_;
  SearchSettings settings_{.k_prime = kKPrime};
  AsyncOptions async_{};
  std::unique_ptr<ZipfSampler> zipf_;

  // Remote workload: the replayed token pool and each token's reference ids
  // from an uncached in-process Search.
  std::vector<QueryToken> pool_tokens_;
  std::vector<std::vector<VectorId>> reference_;
  std::vector<double> token_cost_ms_;

  // Mutation state, touched only by the single mutation thread (or the
  // main thread when no mutation thread runs).
  std::vector<EncryptedVector> inserts_;
  std::size_t next_insert_ = 0;
  /// Plaintext of every live global id (the recall check's ground truth).
  std::unordered_map<VectorId, const float*> live_;
  /// Live vectors of the initial package, by the shard the owner put them
  /// in (global id i goes to shard i % S); the only delete victims.
  std::vector<std::vector<VectorId>> victims_;
  double tombstone_max_ = 0.0;
  RwGate gate_;

  std::uint64_t next_request_ = 0;
  std::uint64_t next_mutation_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t id_mismatches_ = 0;
  std::vector<double> lag_ms_;
  std::vector<std::size_t> live_stream_samples_;
};

bool Bench::Search(std::uint64_t g, RequestRecord* rec, Tracer* tracer,
                   Clock::time_point* done) {
  Rng rng(MixSeed(seed_, g));
  ScopedSpan request(tracer, "request", 0, g);
  QueryToken own;
  const QueryToken* token = nullptr;
  if (!ReplaysTokens(spec_)) {
    rec->query = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(spec_.query_pool) - 1));
    const float* q = prep_.queries.row(rec->query);
    const std::uint64_t client_seed = MixSeed(seed_ ^ kClientSalt, g);
    Timer t;
    if (tracer == nullptr) {
      QueryClient client(keys_, client_seed);
      own = client.EncryptQuery(q);
    } else {
      // The two calls QueryClient::EncryptQuery makes, in its order and with
      // its randomness, each under its own span: the token is byte-identical.
      Rng client_rng(client_seed);
      own.sap.resize(keys_->dcpe.dim());
      {
        ScopedSpan span(tracer, "crypto.sap_encrypt", request.id(), g);
        keys_->dcpe.Encrypt(q, own.sap.data(), client_rng);
      }
      {
        ScopedSpan span(tracer, "crypto.trapdoor", request.id(), g);
        own.trapdoor = keys_->dce.GenTrapdoor(q, client_rng);
      }
    }
    rec->user_cost_ms = t.ElapsedMillis();
    token = &own;
  } else {
    rec->query = zipf_->Pick(rng);
    token = &pool_tokens_[rec->query];
    if (tracer != nullptr) {
      // A private copy gives the token a unique address to bind the span to
      // (two in-flight requests may replay the same pool token).
      own = *token;
      token = &own;
    }
  }

  if (spec_.churn) {
    Timer wait;
    gate_.LockShared();
    rec->gate_wait_ms = wait.ElapsedMillis();
  }
  auto search = [&]() -> Result<SearchResult> {
    ScopedSpan span(tracer, "core.search", request.id(), g);
    if (tracer != nullptr) tracer->Bind(token, {span.id(), g});
    Result<SearchResult> r =
        Hedged(spec_) ? serving().SearchAsync(*token, kK, settings_, async_)
                     : serving().Search(*token, kK, settings_);
    if (tracer != nullptr) tracer->Unbind(token);
    return r;
  };
  const Result<SearchResult> result = search();
  *done = Clock::now();

  bool ok = result.ok() && !result->partial && result->ids.size() == kK;
  if (ok) {
    const SearchCounters& c = result->counters;
    rec->cache_hit = c.cache_hit;
    rec->nodes = c.nodes_visited;
    rec->distances = c.distance_computations;
    rec->dce_comparisons = c.dce_comparisons;
    rec->hedged = c.hedged_requests;
    rec->ids = result->ids;
    rec->id_mismatch = spec_.remote && rec->ids != reference_[rec->query];
    ok = !rec->id_mismatch;
  }
  if (tracer != nullptr && ok && !rec->cache_hit && g % kReplayEvery == 0) {
    ReplayFilters(*token, request.id(), g, tracer);
  }
  if (spec_.churn) gate_.UnlockShared();
  rec->ok = ok;
  return ok;
}

void Bench::ReplayFilters(const QueryToken& token, std::uint64_t parent,
                          std::uint64_t g, Tracer* tracer) {
  // The server-side scan of every shard for the same token, as the shard
  // server runs it (ciphertexts shipped when the gather is remote).
  ShardFilterOptions options;
  options.k_prime = kKPrime;
  options.want_dce = spec_.remote;
  const ShardedCloudServer& local = dep_->backend->sharded_server();
  for (std::uint32_t s = 0; s < spec_.shards; ++s) {
    SearchContext ctx;
    ShardFilterResult out;
    ScopedSpan span(tracer, "index.filter", parent, g,
                    static_cast<std::int32_t>(s));
    PPANNS_CHECK(local.FilterShard(s, 0, token, options, &ctx, &out).ok());
  }
}

bool Bench::Mutate(std::uint64_t j, Tracer* tracer, MutationRecord* rec) {
  // One mutation is an insert/delete pair under one hold of the gate: the
  // stream is 1:1 by construction and the live set keeps its size. Its
  // latency runs from its due time to the end of the delete, so it counts
  // the wait for a compaction, the wait at the gate and any queueing behind
  // earlier pairs.
  const std::uint64_t id = kCheckBase + j;
  rec->compaction_wait_ms = WaitForCompaction();
  Timer gate_wait;
  gate_.Lock();
  rec->gate_wait_ms = gate_wait.ElapsedMillis();
  PPANNS_CHECK(next_insert_ < inserts_.size());
  bool ok = false;
  {
    ScopedSpan span(tracer, "core.insert", 0, id);
    const Result<VectorId> got = serving().Insert(inserts_[next_insert_]);
    ok = got.ok();
    if (ok) live_[*got] = prep_.extra.row(next_insert_);
    ++next_insert_;
  }
  {
    // Deletes sweep one shard at a time in blocks of kDeleteBlock, so each
    // shard crosses its compaction threshold at a fixed point of the stream
    // and the shards compact one at a time.
    std::vector<VectorId>& pool = victims_[(j / kDeleteBlock) % victims_.size()];
    PPANNS_CHECK(!pool.empty());
    Rng rng(MixSeed(seed_ ^ kMutationSalt, j));
    const std::size_t idx = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
    const VectorId victim = pool[idx];
    ScopedSpan span(tracer, "core.delete", 0, id);
    const bool deleted = serving().Delete(victim).ok();
    if (deleted) {
      pool[idx] = pool.back();
      pool.pop_back();
      live_.erase(victim);
    }
    ok = ok && deleted;
  }
  if (spec_.churn) {
    const ShardedCloudServer& server = dep_->backend->sharded_server();
    for (std::size_t s = 0; s < server.num_shards(); ++s) {
      tombstone_max_ = std::max(tombstone_max_, server.tombstone_ratio(s));
    }
  }
  gate_.Unlock();
  rec->ok = ok;
  return ok;
}

double Bench::WaitForCompaction() const {
  // A shard over the compaction threshold is about to be, or is being,
  // rebuilt by the maintenance worker, which holds the maintenance mutex for
  // the whole rebuild; an Insert or Delete issued now would block on it
  // while holding the gate and stall every search. So the mutation stream
  // waits here, outside the gate, until the rebuilt shard is swapped in.
  // The wait counts in the pair's latency, and core.compaction_wait_ms
  // reports it. Returns the milliseconds waited.
  if (!spec_.churn) return 0.0;
  const ShardedCloudServer& server = dep_->backend->sharded_server();
  auto pending = [&] {
    for (std::size_t s = 0; s < server.num_shards(); ++s) {
      if (server.tombstone_ratio(s) >= spec_.compact_threshold) return true;
    }
    return false;
  };
  Timer waited;
  while (pending()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return waited.ElapsedMillis();
}

/// The staircase's tries fill --seconds.
std::size_t Bench::Tries() const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(args_.seconds / spec_.try_seconds));
}

PhasePlan Bench::TryPlan(std::size_t index, int rung) const {
  return {.rate = RungRate(spec_, rung),
          .seconds = spec_.try_seconds,
          .salt = 1000 + index,
          .index = index + 1};
}

std::vector<PhasePlan> Bench::PossiblePlans(const PhasePlan& warmup) const {
  // Every phase the run may take: the warm-up, then the staircase's tries
  // (untraced run; their rates are not known in advance, but the mutation
  // schedules do not depend on them) or the nominal rate untraced and
  // traced.
  std::vector<PhasePlan> plans = {warmup};
  if (args_.trace) {
    plans.push_back({warmup.rate, 0.5 * args_.seconds, 10});
    plans.push_back({warmup.rate, 0.5 * args_.seconds, 11});
    return plans;
  }
  for (std::size_t t = 0; t < Tries(); ++t) {
    plans.push_back(TryPlan(t, kNominalRung));
  }
  return plans;
}

std::vector<double> Bench::MutationSchedule(const PhasePlan& plan) const {
  if (!spec_.churn) return {};
  return PoissonSchedule(spec_.mutation_rate, plan.seconds,
                         MixSeed(seed_ ^ kMutationSalt, plan.salt));
}

Phase Bench::RunPhase(const PhasePlan& plan, Tracer* tracer) {
  Phase phase;
  phase.rate = plan.rate;
  phase.index = plan.index;
  const std::vector<double> offsets =
      PoissonSchedule(plan.rate, plan.seconds, MixSeed(seed_, plan.salt));
  phase.base = next_request_;
  next_request_ += offsets.size();
  phase.records.resize(offsets.size());

  std::thread mutator;
  const std::vector<double> mutation_offsets = MutationSchedule(plan);
  if (!mutation_offsets.empty()) {
    phase.mutation_records.resize(mutation_offsets.size());
    const std::uint64_t first = next_mutation_;
    next_mutation_ += mutation_offsets.size();
    mutator = std::thread([this, &phase, mutation_offsets, first, tracer] {
      phase.mutations = RunOpenLoop(
          mutation_offsets, 1,
          [&](std::size_t i, Clock::time_point*) {
            return Mutate(first + i, tracer, &phase.mutation_records[i]);
          });
    });
  }
  const std::size_t live_before = dep_->LiveStreams();
  phase.searches = RunOpenLoop(
      offsets, kSearchThreads,
      [&](std::size_t i, Clock::time_point* done) {
        return Search(phase.base + i, &phase.records[i], tracer, done);
      });
  if (mutator.joinable()) mutator.join();
  if (spec_.remote) {
    live_stream_samples_.push_back(std::min(live_before, dep_->LiveStreams()));
  }

  attempted_ += phase.searches.completed + phase.mutations.completed;
  failed_ += phase.searches.failed + phase.mutations.failed;
  for (const RequestRecord& r : phase.records) {
    if (r.id_mismatch) ++id_mismatches_;
  }
  lag_ms_.insert(lag_ms_.end(), phase.searches.lag_ms.begin(),
                 phase.searches.lag_ms.end());
  lag_ms_.insert(lag_ms_.end(), phase.mutations.lag_ms.begin(),
                 phase.mutations.lag_ms.end());
  return phase;
}

void Bench::PrepareAfterSetup(std::size_t inserts, Tracer* tracer) {
  keys_ = dep_->owner->ShareKeys();
  if (ReplaysTokens(spec_)) {
    zipf_ = std::make_unique<ZipfSampler>(spec_.query_pool, spec_.zipf_s);
    QueryClient client(keys_, MixSeed(seed_ ^ kClientSalt, kCheckBase));
    for (std::size_t i = 0; i < spec_.query_pool; ++i) {
      pool_tokens_.push_back(client.EncryptQuery(prep_.queries.row(i)));
      // The reference: an uncached in-process Search of the same token.
      const Result<SearchResult> ref =
          dep_->backend->Search(pool_tokens_.back(), kK, settings_);
      PPANNS_CHECK(ref.ok() && !ref->partial);
      reference_.push_back(ref->ids);
    }
    // The user cost of the pool's tokens, timed over a few more passes so
    // that the median does not rest on one cold pass.
    for (int pass = 0; pass < kTokenCostPasses; ++pass) {
      for (std::size_t i = 0; i < spec_.query_pool; ++i) {
        Timer t;
        static_cast<void>(client.EncryptQuery(prep_.queries.row(i)));
        token_cost_ms_.push_back(t.ElapsedMillis());
      }
    }
  }
  // Owner-encrypted vectors for the mutation stream, one per insert/delete
  // pair the run may make.
  PPANNS_CHECK(inserts <= prep_.extra.size());
  inserts_.reserve(inserts);
  for (std::size_t i = 0; i < inserts; ++i) {
    ScopedSpan span(tracer, "crypto.dce_encrypt", 0, kCheckBase + i);
    inserts_.push_back(dep_->owner->EncryptOne(prep_.extra.row(i)));
  }
  victims_.assign(spec_.shards, {});
  for (std::size_t i = 0; i < spec_.n; ++i) {
    live_[static_cast<VectorId>(i)] = prep_.base.row(i);
    victims_[i % spec_.shards].push_back(static_cast<VectorId>(i));
  }
}

double Bench::QuiescedRecall() {
  FloatMatrix live(0, prep_.base.dim());
  std::vector<VectorId> ids;
  ids.reserve(live_.size());
  for (const auto& [id, row] : live_) {
    live.Append(row);
    ids.push_back(id);
  }
  FloatMatrix queries(0, prep_.queries.dim());
  const std::size_t nq = std::min(kQuiescedQueries, prep_.queries.size());
  for (std::size_t i = 0; i < nq; ++i) queries.Append(prep_.queries.row(i));
  const auto truth = BruteForceKnnBatch(live, queries, kK);
  double hits = 0.0;
  for (std::size_t i = 0; i < nq; ++i) {
    QueryClient client(keys_, MixSeed(seed_ ^ kClientSalt, kCheckBase + i));
    const QueryToken token = client.EncryptQuery(queries.row(i));
    const Result<SearchResult> r =
        Hedged(spec_) ? serving().SearchAsync(token, kK, settings_, async_)
                     : serving().Search(token, kK, settings_);
    ++attempted_;
    if (!r.ok() || r->partial) {
      ++failed_;
      continue;
    }
    std::set<VectorId> expect;
    for (const Neighbor& nb : truth[i]) expect.insert(ids[nb.id]);
    for (const VectorId id : r->ids) hits += expect.count(id);
  }
  return hits / static_cast<double>(nq * kK);
}

CounterSnapshot Bench::Snapshot(Tracer* tracer) {
  CounterSnapshot s;
  s.cache = serving().result_cache_stats();
  if (spec_.churn) {
    s.state_version = dep_->backend->sharded_server().state_version();
    ScopedSpan span(tracer, "wal.stats", 0, 0);
    s.wal_bytes = dep_->backend->wal_stats().bytes;
  }
  s.rpc_failed = dep_->net->failed.load();
  s.rpc_bytes = dep_->net->bytes.load();
  s.dce_shipped = dep_->net->dce_shipped.load();
  return s;
}

double Bench::AnsweredRecall(const std::vector<Phase>& phases) const {
  double hits = 0.0;
  std::size_t answered = 0;
  for (const Phase& p : phases) {
    for (const RequestRecord& r : p.records) {
      if (!r.ok) continue;
      for (const VectorId id : r.ids) {
        for (const Neighbor& nb : prep_.truth[r.query]) hits += nb.id == id;
      }
      ++answered;
    }
  }
  return answered > 0 ? hits / static_cast<double>(answered * kK) : 0.0;
}

double Bench::UserCostMs(std::span<const Phase> phases) const {
  std::vector<double> user_cost = token_cost_ms_;
  for (const Phase& p : phases) {
    for (const RequestRecord& r : p.records) {
      if (r.user_cost_ms >= 0) user_cost.push_back(r.user_cost_ms);
    }
  }
  return Median(user_cost);
}

Bench::Metrics Bench::EndToEnd(const std::vector<Phase>& phases,
                               double max_qps, double setup_s,
                               double recall, const Tail& mutate) {
  // Mutation latency and user cost are printed here and gated nowhere; the
  // search latencies at the nominal rate come from the traced run (see the
  // per-layer metrics).
  std::printf("mutate_p50_ms %s ms, mutate_p99_ms %s ms\n",
              FormatDouble(mutate.p50).c_str(), FormatDouble(mutate.high).c_str());
  std::printf("user_cost_ms %s ms\n", FormatDouble(UserCostMs(phases)).c_str());

  return {
      {"setup_s", {setup_s, "s"}},
      {"max_qps_at_slo", {max_qps, "1/s"}},
      {"recall_at_10", {recall, "ratio"}},
      {"index_mb", {index_mb_, "MB"}},
  };
}

Bench::Metrics Bench::PerLayer(const Phase& untraced, const Phase& traced,
                               const Tail& mutate,
                               const CounterSnapshot& before,
                               const CounterSnapshot& after,
                               const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  auto median_of = [&](const char* name) {
    return Median(DurationsUs(spans, name));
  };

  // Work counters of the traced requests that did filter/refine work.
  std::size_t misses = 0;
  double nodes = 0, distances = 0, comparisons = 0, hedged = 0;
  std::vector<double> gate_waits;
  std::vector<double> compaction_waits;
  for (const MutationRecord& m : traced.mutation_records) {
    gate_waits.push_back(m.gate_wait_ms);
    if (m.compaction_wait_ms > 1.0) compaction_waits.push_back(m.compaction_wait_ms);
  }
  for (const RequestRecord& r : traced.records) {
    if (r.gate_wait_ms >= 0) gate_waits.push_back(r.gate_wait_ms);
    if (!r.ok || r.cache_hit) continue;
    ++misses;
    nodes += static_cast<double>(r.nodes);
    distances += static_cast<double>(r.distances);
    comparisons += static_cast<double>(r.dce_comparisons);
    hedged += static_cast<double>(r.hedged);
  }
  auto per_miss = [&](double total) {
    return misses > 0 ? total / static_cast<double>(misses) : 0.0;
  };

  // Filter replays and RPCs by (request, shard); each request's slowest
  // replayed filter.
  std::map<std::pair<std::uint64_t, std::int32_t>, double> filter_us;
  std::unordered_map<std::uint64_t, double> slowest_filter_us;
  std::set<std::uint64_t> rpc_parents;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "index.filter") == 0) {
      filter_us[{s.request, s.shard}] = s.micros();
      double& slowest = slowest_filter_us[s.request];
      slowest = std::max(slowest, s.micros());
    } else if (std::strcmp(s.name, "net.filter_rpc") == 0) {
      rpc_parents.insert(s.parent);
    }
  }
  std::vector<double> wire_tax_us;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "net.filter_rpc") != 0) continue;
    const auto it = filter_us.find({s.request, s.shard});
    if (it != filter_us.end()) wire_tax_us.push_back(s.micros() - it->second);
  }

  // Merge/refine: remote, the Search span's self time outside its RPC
  // children; in-process, where the per-shard scans run inside Search
  // unseen, its duration minus the slowest replayed scan of the same token
  // (the shards scan in parallel).
  std::vector<double> merge_refine_us;
  const auto self_us = SelfTimesUs(spans, "core.search");
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "core.search") != 0) continue;
    if (spec_.remote) {
      if (rpc_parents.count(s.id)) merge_refine_us.push_back(self_us.at(s.id));
    } else {
      const auto it = slowest_filter_us.find(s.request);
      if (it != slowest_filter_us.end()) {
        merge_refine_us.push_back(std::max(0.0, s.micros() - it->second));
      }
    }
  }

  const std::uint64_t hits = after.cache.hits - before.cache.hits;
  const std::uint64_t lookups = hits + after.cache.misses - before.cache.misses;
  const std::uint64_t cache_misses = after.cache.misses - before.cache.misses;
  const std::uint64_t shipped = after.dce_shipped - before.dce_shipped;
  const std::size_t mutations = traced.mutations.completed;
  const double dim = static_cast<double>(prep_.base.dim());
  const double block = static_cast<double>(DceScheme::TransformedDim(prep_.base.dim()));
  const double untraced_p50 = WindowedTail(untraced.LatenciesMs()).p50;
  const double traced_p50 = WindowedTail(traced.LatenciesMs()).p50;
  const std::size_t live_min =
      live_stream_samples_.empty()
          ? 0
          : *std::min_element(live_stream_samples_.begin(),
                              live_stream_samples_.end());

  // The span table: how to read where a request's time went.
  std::printf("\n%-20s %8s %12s %12s\n", "span", "count", "p50_us", "p50_self_us");
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) durations[s.name].push_back(s.micros());
  for (const auto& [name, d] : durations) {
    std::vector<double> self;
    for (const auto& [id, us] : SelfTimesUs(spans, name.c_str())) self.push_back(us);
    std::printf("%-20s %8zu %12.1f %12.1f\n", name.c_str(), d.size(), Median(d),
                Median(self));
  }
  if (spec_.remote) {
    std::printf(
        "miss path (median us): token %.1f (made by the user before the "
        "run; 0 on the request path), filter %.1f, wire %.1f, "
        "merge/refine %.1f\n",
        1e3 * Median(token_cost_ms_), median_of("index.filter"),
        Median(wire_tax_us), Median(merge_refine_us));
  }
  if (tracer.dropped() > 0) {
    std::printf("warning: %zu spans dropped (tracer full)\n", tracer.dropped());
  }

  return {
      // Search latency of the untraced phase, mutation latency and user
      // cost. They are reported here rather than with the end-to-end
      // metrics because on a shared host they follow the host's scheduling
      // and vary run to run by more than any bound would allow.
      {"search_p50_ms", {untraced_p50, "ms"}},
      {"search_p99_ms", {WindowedTail(untraced.LatenciesMs()).high, "ms"}},
      {"mutate_p50_ms", {mutate.p50, "ms"}},
      {"mutate_p99_ms", {mutate.high, "ms"}},
      {"user_cost_ms", {UserCostMs({&untraced, 1}), "ms"}},
      {"crypto.trapdoor_us", {median_of("crypto.trapdoor"), "us"}},
      {"crypto.sap_encrypt_us", {median_of("crypto.sap_encrypt"), "us"}},
      {"crypto.dce_encrypt_us", {median_of("crypto.dce_encrypt"), "us"}},
      {"crypto.dce_comparisons_per_query", {per_miss(comparisons), "count"}},
      {"index.filter_us", {median_of("index.filter"), "us"}},
      {"index.nodes_visited_per_query", {per_miss(nodes), "count"}},
      {"index.distance_computations_per_query", {per_miss(distances), "count"}},
      {"linalg.filter_bytes_per_query",
       {per_miss(distances) * dim * sizeof(float), "B"}},
      {"linalg.refine_bytes_per_query",
       {per_miss(comparisons) * 5.0 * block * sizeof(double), "B"}},
      {"core.merge_refine_us", {Median(merge_refine_us), "us"}},
      {"core.cache_hit_rate",
       {lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
        "ratio"}},
      {"core.cache_evictions",
       {static_cast<double>(after.cache.evictions - before.cache.evictions), "count"}},
      {"core.cache_stale_evictions",
       {static_cast<double>(after.cache.stale_evictions - before.cache.stale_evictions),
        "count"}},
      {"core.hedged_per_query", {per_miss(hedged), "count"}},
      {"core.compactions",
       {static_cast<double>(after.state_version - before.state_version), "count"}},
      {"core.tombstone_ratio_max", {tombstone_max_, "ratio"}},
      {"core.gate_wait_p99_ms", {Summarize(gate_waits).high, "ms"}},
      {"core.compaction_wait_ms", {Median(compaction_waits), "ms"}},
      {"wal.bytes_per_mutation",
       {mutations > 0 ? static_cast<double>(after.wal_bytes - before.wal_bytes) /
                            static_cast<double>(mutations)
                      : 0.0,
        "B"}},
      {"net.filter_rpc_us", {median_of("net.filter_rpc"), "us"}},
      {"net.wire_tax_us", {Median(wire_tax_us), "us"}},
      {"net.bytes_per_query",
       {cache_misses > 0 && spec_.remote
            ? static_cast<double>(after.rpc_bytes - before.rpc_bytes) /
                  static_cast<double>(cache_misses)
            : 0.0,
        "B"}},
      {"net.dce_useful_ratio",
       {shipped > 0 ? static_cast<double>(cache_misses * kKPrime) /
                          static_cast<double>(shipped)
                    : 0.0,
        "ratio"}},
      {"net.failed_rpcs",
       {static_cast<double>(after.rpc_failed - before.rpc_failed), "count"}},
      {"net.live_streams_min", {static_cast<double>(live_min), "count"}},
      {"setup.keygen_s", {setup_.keygen_s, "s"}},
      {"setup.encrypt_index_s", {setup_.encrypt_index_s, "s"}},
      {"setup.load_s", {setup_.load_s, "s"}},
      {"setup.connect_s", {setup_.connect_s, "s"}},
      {"loadgen.lag_p99_ms", {Summarize(lag_ms_).high, "ms"}},
      {"trace.overhead_frac",
       {untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0,
        "ratio"}},
      {"error_rate",
       {attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                       : 0.0,
        "ratio"}},
  };
}

void Bench::PrintStamp() const {
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %u, \"kernel\": \"%s\", \"build_type\": "
      "\"%s\", \"n\": %zu, \"d\": %zu, \"shards\": %u, \"replicas\": %u, "
      "\"topology\": \"%s\", \"k\": %zu, \"k_prime\": %zu, \"beta\": %s, "
      "\"cache_capacity\": %zu, \"ladder_qps\": {\"from\": %s, \"to\": %s, "
      "\"rungs_per_octave\": %d}, \"nominal_qps\": %s, "
      "\"p99_limit_ms\": %s, \"recall_floor\": %s, \"load_threads\": %zu, "
      "\"mutation_rate\": %s}}\n",
      spec_.name, static_cast<unsigned long long>(seed_), args_.seconds,
      args_.trace ? 1 : 0, std::thread::hardware_concurrency(),
      ActiveKernelName(), PERFBENCH_BUILD_TYPE, spec_.n, prep_.base.dim(),
      spec_.shards, spec_.replicas, spec_.remote ? "loopback-rpc" : "in-process",
      kK, kKPrime, FormatDouble(prep_.beta).c_str(), spec_.cache_capacity,
      FormatDouble(RungRate(spec_, kLowestRung)).c_str(),
      FormatDouble(RungRate(spec_, kHighestRung)).c_str(), kRungsPerOctave,
      FormatDouble(NominalRate(spec_)).c_str(),
      FormatDouble(spec_.p99_limit_ms).c_str(),
      FormatDouble(spec_.recall_floor).c_str(),
      kSearchThreads + (spec_.churn ? 1 : 0),
      FormatDouble(spec_.mutation_rate).c_str());
}

int Bench::Run() {
  Timer wall;
  // The phases the run may take are fixed before it starts, so the insert
  // pool can be sized for the longest run.
  const PhasePlan warmup{NominalRate(spec_), kWarmupSeconds, 99};
  std::size_t inserts = kMinInserts;
  for (const PhasePlan& plan : PossiblePlans(warmup)) {
    inserts += MutationSchedule(plan).size();
  }
  prep_ = Prepare(spec_, seed_, inserts);
  PrintStamp();
  const std::string wal_dir = args_.work_dir + "/wal-" + spec_.name;
  std::unique_ptr<Tracer> tracer;
  if (args_.trace) tracer = std::make_unique<Tracer>(1 << 19);

  // Set-up, timed end to end; the last deployment is the one served.
  std::vector<double> setup_totals;
  const int repeats = args_.trace ? 1 : spec_.setup_repeats;
  for (int i = 0; i < repeats; ++i) {
    dep_.reset();
    dep_ = Deploy(spec_, prep_, wal_dir, tracer.get(), &setup_);
    setup_totals.push_back(setup_.total());
  }
  index_mb_ = static_cast<double>(dep_->backend->StorageBytes()) / 1e6;
  std::printf("setup_s: %s (keygen %.3f, encrypt+index %.3f, load %.3f, "
              "connect %.3f)\n",
              FormatDouble(Median(setup_totals)).c_str(), setup_.keygen_s,
              setup_.encrypt_index_s, setup_.load_s, setup_.connect_s);
  PrepareAfterSetup(inserts, tracer.get());

  if (spec_.churn) {
    ShardedCloudServer::MaintenanceOptions maintenance;
    maintenance.compact_threshold = spec_.compact_threshold;
    maintenance.build_threads = 2;
    dep_->backend->sharded_server_mutable().StartMaintenance(maintenance);
  }
  RunPhase(warmup, nullptr);
  std::vector<Phase> phases;
  // Untraced: a staircase over the ladder, from the knee rung. Each try runs
  // one rung; a try that meets the limit moves up, one that misses moves
  // down, by a step of one to kMaxStep rungs, so the tries gather around the
  // highest rate the system meets. max_qps_at_slo is the highest delivered
  // rate of a try that met the limit (0 if none did). A spell of contention
  // from the host's other tenants only ever lowers a try, and a try's
  // delivered rate counts the time its backlog took to drain, so it cannot
  // read much above what the system sustains.
  double max_qps = 0.0;
  // Traced: the nominal rate untraced, then traced.
  CounterSnapshot before, after;
  if (!args_.trace) {
    int rung = 0;
    int step = kFirstStep;
    int last = 0;          // direction of the previous move
    int same = 0;          // moves in a row in that direction
    for (std::size_t t = 0; t < Tries(); ++t) {
      phases.push_back(RunPhase(TryPlan(t, rung), nullptr));
      const bool met = MeetsLimit(phases.back(), spec_.p99_limit_ms);
      if (met) max_qps = std::max(max_qps, phases.back().AchievedQps());
      const int direction = met ? 1 : -1;
      if (direction != last) {
        if (last != 0) step = std::max(1, step / 2);
        same = 1;
      } else if (++same == kSameWay) {
        step = std::min(kMaxStep, 2 * step);
        same = 0;
      }
      last = direction;
      rung = std::clamp(rung + direction * step, kLowestRung, kHighestRung);
    }
  } else {
    const std::vector<PhasePlan> plans = PossiblePlans(warmup);
    phases.push_back(RunPhase(plans[1], nullptr));
    before = Snapshot(tracer.get());
    dep_->net->tracer.store(tracer.get());
    phases.push_back(RunPhase(plans[2], tracer.get()));
    dep_->net->tracer.store(nullptr);
    after = Snapshot(tracer.get());
  }
  if (spec_.churn) dep_->backend->sharded_server_mutable().StopMaintenance();

  PrintPhases(phases, spec_.p99_limit_ms);

  // Recall@10 against exact ground truth: over every answered request on
  // read-only workloads, over the live set after quiescing on churn.
  const double recall = spec_.churn ? QuiescedRecall() : AnsweredRecall(phases);
  std::printf("recall_at_10: %s (floor %s)\n", FormatDouble(recall).c_str(),
              FormatDouble(spec_.recall_floor).c_str());
  // Mutation latency, from each pair's due time (churn only; the read-only
  // workloads make no mutations and report 0).
  std::vector<double> mutate_ms;
  std::vector<double> compaction_waits;
  for (const Phase& p : phases) {
    const std::vector<double> ms = p.MutationLatenciesMs();
    mutate_ms.insert(mutate_ms.end(), ms.begin(), ms.end());
    for (const MutationRecord& m : p.mutation_records) {
      if (m.compaction_wait_ms > 1.0) compaction_waits.push_back(m.compaction_wait_ms);
    }
  }
  const Tail mutate = WindowedTail(mutate_ms);
  if (spec_.churn) {
    std::printf("mutations: p50 and p%.1f of %zu samples (median of %zu "
                "windows); compactions: %llu; compaction waits: %zu, median "
                "%.1f ms\n",
                100.0 * mutate.quantile, mutate.n, mutate.windows,
                static_cast<unsigned long long>(
                    dep_->backend->sharded_server().state_version()),
                compaction_waits.size(), Median(compaction_waits));
  }
  Metrics metrics;
  if (!args_.trace) {
    metrics = EndToEnd(phases, max_qps, Median(setup_totals), recall, mutate);
  } else {
    metrics = PerLayer(phases[0], phases[1], mutate, before, after, *tracer);
    const std::string path =
        args_.work_dir + "/trace-" + spec_.name + ".jsonl";
    if (tracer->WriteJsonLines(path)) std::printf("spans: %s\n", path.c_str());
  }
  std::filesystem::remove_all(wal_dir);

  // Checks.
  bool correct = failed_ == 0;
  if (id_mismatches_ > 0) {
    std::printf("CHECK FAILED: %zu answers differ from the in-process "
                "reference ids\n", id_mismatches_);
  }
  if (recall < spec_.recall_floor) {
    std::printf("CHECK FAILED: recall_at_10 %.4f below the floor %.2f\n",
                recall, spec_.recall_floor);
    correct = false;
  }
  if (failed_ > 0) {
    std::printf("CHECK FAILED: %zu of %zu operations failed\n", failed_,
                attempted_);
  }
  const double lag_p99 = Summarize(lag_ms_).high;
  std::printf("generator lateness p99 %.3f ms; run wall %.1f s; "
              "error_rate %s\n",
              lag_p99, wall.ElapsedSeconds(),
              FormatDouble(attempted_ ? static_cast<double>(failed_) /
                                            static_cast<double>(attempted_)
                                      : 0.0)
                  .c_str());
  if (lag_p99 > kMaxLagShare * spec_.p99_limit_ms) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the load generator ran %.3f ms late "
                 "at p99 (limit %.3f ms), so its latencies are not the "
                 "system's\n",
                 lag_p99, kMaxLagShare * spec_.p99_limit_ms);
    return 3;
  }

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            FormatDouble(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sift-local|sift-remote-zipf|"
                 "gist-churn --seed N --seconds 1..60 --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  perfbench::Bench bench(*perfbench::FindWorkload(args.workload), args);
  return bench.Run();
}
