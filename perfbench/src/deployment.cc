#include "deployment.h"

#include <filesystem>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "index/brute_force.h"
#include "net/remote_shard.h"

namespace perfbench {

using namespace ppanns;

namespace {

/// Gather-side decorator over a real RemoteShardClient: counts every filter
/// RPC at the boundary (failures, bytes each way, ciphertexts shipped) and,
/// in the traced run, records a "net.filter_rpc" span under the Search span
/// that caused it. The caller binds the token's address to
/// its span (Tracer::Bind); the transport sees the same token object
/// because the synchronous gather passes it down by reference.
class TracedTransport final : public ShardTransport {
 public:
  TracedTransport(std::unique_ptr<ShardTransport> inner, std::int32_t shard,
                  NetProbe* probe)
      : inner_(std::move(inner)), shard_(shard), probe_(probe) {}

  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    Tracer* tracer = probe_->tracer.load(std::memory_order_acquire);
    const Tracer::Binding caller =
        tracer != nullptr ? tracer->Lookup(&token) : Tracer::Binding{};
    ScopedSpan span(tracer, "net.filter_rpc", caller.span, caller.request,
                    shard_);
    const Status st = inner_->Filter(token, options, ctx, out);
    span.End();
    std::uint64_t bytes = token.ByteSize() +
                          out->candidates.size() * sizeof(Neighbor);
    for (const DceCiphertext& c : out->dce) bytes += c.data.size() * sizeof(double);
    if (!st.ok()) probe_->failed.fetch_add(1, std::memory_order_relaxed);
    probe_->bytes.fetch_add(bytes, std::memory_order_relaxed);
    probe_->dce_shipped.fetch_add(out->dce.size(), std::memory_order_relaxed);
    return st;
  }
  bool Healthy() const override { return inner_->Healthy(); }
  bool remote() const override { return inner_->remote(); }

 private:
  std::unique_ptr<ShardTransport> inner_;
  std::int32_t shard_;
  NetProbe* probe_;
};

/// Seed of the fixed corpus (see Prepare).
constexpr std::uint64_t kDatasetSeed = 20250;

// The knee rates and limits below were set once from this code's measured
// capacity on a 4-core x86-64 host (AVX2 kernels, Release build): each
// knee_qps is about the highest rate whose p99 met the limit there, so the
// ladder (RungRate) is centred on it and a change in throughput moves the
// rungs the staircase settles on. Each limit is several times the p99 at the
// nominal rate, so that the queue that builds past the knee, not the spread
// of single requests, decides whether a try meets it. See README.md.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "sift-local",
       .kind = SyntheticKind::kSiftLike,
       .n = 20000,
       .shards = 2,
       .replicas = 1,
       .remote = false,
       .churn = false,
       .query_pool = 1000,
       .cache_capacity = 4096,
       .zipf_s = 0.0,
       .knee_qps = 9000,
       .p99_limit_ms = 20.0,
       .try_seconds = 0.2,
       .recall_floor = 0.9,
       .mutation_rate = 0.0,
       .compact_threshold = 0.0,
       .setup_repeats = 3},
      {.name = "sift-remote-zipf",
       .kind = SyntheticKind::kSiftLike,
       .n = 20000,
       .shards = 2,
       .replicas = 1,
       .remote = true,
       .churn = false,
       .query_pool = 1024,
       .cache_capacity = 256,
       .zipf_s = 1.1,
       .knee_qps = 13500,
       .p99_limit_ms = 20.0,
       .try_seconds = 0.2,
       .recall_floor = 0.9,
       .mutation_rate = 0.0,
       .compact_threshold = 0.0,
       .setup_repeats = 3},
      {.name = "gist-churn",
       .kind = SyntheticKind::kGistLike,
       .n = 2000,
       .shards = 2,
       .replicas = 2,
       .remote = false,
       .churn = true,
       .query_pool = 500,
       .cache_capacity = 4096,
       .zipf_s = 0.0,
       .knee_qps = 650,
       .p99_limit_ms = 100.0,
       .try_seconds = 0.5,
       .recall_floor = 0.85,
       .mutation_rate = 8.0,
       .compact_threshold = 0.015,
       .setup_repeats = 1},
  };
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Prepared Prepare(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t inserts) {
  // The corpus is fixed, as a real benchmark's SIFT or GIST file is; the
  // seed drives everything drawn per run (keys, encryption randomness, the
  // graph's levels, arrival times, query picks, mutation victims).
  Dataset ds = MakeDataset(spec.kind, spec.n + inserts,
                           spec.query_pool, 0, kDatasetSeed);
  Prepared prep;
  prep.base = FloatMatrix(0, ds.base.dim());
  prep.extra = FloatMatrix(0, ds.base.dim());
  for (std::size_t i = 0; i < ds.base.size(); ++i) {
    (i < spec.n ? prep.base : prep.extra).Append(ds.base.row(i));
  }
  prep.queries = std::move(ds.queries);
  prep.truth = BruteForceKnnBatch(prep.base, prep.queries, kK);

  // The paper's configuration, chosen the way the figure benches choose it:
  // beta = 0.5 x the mean k-NN distance, DCE blinding at the mean norm, the
  // scaled HNSW parameters.
  Dataset for_beta;
  for_beta.ground_truth = prep.truth;
  prep.beta = bench::ChooseBeta(for_beta, kK, 0.5);
  Rng stat_rng(seed + 17);
  const DatasetStats stats = ComputeStats(prep.base, stat_rng);
  prep.params.dcpe_beta = prep.beta;
  prep.params.dce_scale_hint = std::max(stats.mean_norm, 1e-3);
  prep.params.index_kind = IndexKind::kHnsw;
  prep.params.hnsw = bench::DefaultHnsw(seed);
  prep.params.num_shards = spec.shards;
  prep.params.num_replicas = spec.replicas;
  prep.params.seed = seed;
  return prep;
}

std::size_t Deployment::LiveStreams() const {
  std::size_t live = 0;
  for (const auto& pool : pools) live += pool->live_streams();
  return live;
}

std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const Prepared& prep,
                                   const std::string& wal_dir, Tracer* tracer,
                                   SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  const ResultCacheOptions cache{.capacity = spec.cache_capacity};
  {
    ScopedSpan span(tracer, "setup.keygen", 0, 0);
    Timer t;
    auto owner = DataOwner::Create(prep.base.dim(), prep.params);
    PPANNS_CHECK(owner.ok());
    d->owner = std::make_unique<DataOwner>(std::move(*owner));
    times->keygen_s = t.ElapsedSeconds();
  }
  ShardedEncryptedDatabase db;
  {
    ScopedSpan span(tracer, "setup.encrypt_index", 0, 0);
    Timer t;
    db = d->owner->EncryptAndIndexSharded(prep.base);
    times->encrypt_index_s = t.ElapsedSeconds();
  }
  {
    ScopedSpan span(tracer, "setup.load", 0, 0);
    Timer t;
    d->backend =
        std::make_unique<PpannsService>(ShardedCloudServer(std::move(db)));
    if (!spec.remote) d->backend->EnableResultCache(cache);
    if (spec.churn) {
      std::filesystem::remove_all(wal_dir);
      const Status st = d->backend->AttachWal(wal_dir);
      PPANNS_CHECK(st.ok());
    }
    times->load_s = t.ElapsedSeconds();
  }
  if (!spec.remote) return d;

  ScopedSpan span(tracer, "setup.connect", 0, 0);
  Timer t;
  RpcChannelPool::Options pool_options;
  pool_options.pool_size = 2;
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      spec.shards);
  for (std::uint32_t s = 0; s < spec.shards; ++s) {
    d->servers.push_back(std::make_unique<ShardServer>(
        d->backend.get(), std::vector<std::uint32_t>{s}));
    PPANNS_CHECK(d->servers.back()->Start(0).ok());
    auto pool = RpcChannelPool::Connect(
        "127.0.0.1:" + std::to_string(d->servers.back()->port()), pool_options);
    PPANNS_CHECK(pool.ok());
    d->pools.push_back(*pool);
    transports[s].push_back(std::make_unique<TracedTransport>(
        std::make_unique<RemoteShardClient>(*pool, s, 0),
        static_cast<std::int32_t>(s), d->net.get()));
  }
  const HelloOkMessage& info = d->pools.front()->server_info();
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = info.num_shards;
  topology.num_replicas = info.num_replicas;
  topology.dim = static_cast<std::size_t>(info.dim);
  topology.index_kind = static_cast<IndexKind>(info.index_kind);
  topology.size = static_cast<std::size_t>(info.size);
  topology.capacity = static_cast<std::size_t>(info.capacity);
  topology.storage_bytes = static_cast<std::size_t>(info.storage_bytes);
  d->gather = std::make_unique<PpannsService>(
      ShardedCloudServer(topology, std::move(transports)));
  d->gather->EnableResultCache(cache);
  // Both endpoints front the same in-process package, so mutations go
  // through one of them; broadcasting to both would apply each twice.
  std::vector<std::unique_ptr<MutationTransport>> mutation;
  mutation.push_back(std::make_unique<RemoteMutationClient>(d->pools.front()));
  ShardedCloudServer& gather = d->gather->sharded_server_mutable();
  gather.AttachMutationTransports(std::move(mutation));
  gather.AttachRemoteEpochFence(
      std::make_shared<std::atomic<std::uint64_t>>(info.state_version));
  times->connect_s = t.ElapsedSeconds();
  return d;
}

}  // namespace perfbench
