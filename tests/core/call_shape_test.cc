// Every call shape runs one search pipeline: Search (no hedge), SearchAsync
// (hedged or not) and SearchBatch (flat or hedged) must agree on ids and on
// every work counter, and a shard that does not answer must make the result
// partial on every shape — never a truncated answer the result cache keeps.
// A single-shard "PPDB" package is one more topology (a 1x1 set) whose every
// shape must also equal the paper core, CloudServer::Search, and whose
// unmutated checkpoint must reproduce the package bytes.

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/thread_pool.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/result_cache.h"
#include "core/sharded_cloud_server.h"
#include "datagen/synthetic.h"
#include "net/remote_shard.h"
#include "net/rpc_channel.h"
#include "net/shard_server.h"
#include "net/shard_transport.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;
constexpr std::size_t kK = 8;

PpannsParams BaseParams(IndexKind kind, std::uint32_t num_shards,
                        std::uint32_t num_replicas, std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.ivf = IvfParams{.num_lists = 8, .train_iters = 5, .seed = seed};
  params.lsh = LshParams{.num_tables = 8, .num_hashes = 4, .bucket_width = 8.0,
                         .seed = seed};
  params.num_shards = num_shards;
  params.num_replicas = num_replicas;
  params.seed = seed;
  return params;
}

DataOwner MakeOwner(const PpannsParams& params) {
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  return std::move(*owner);
}

std::vector<QueryToken> MakeTokens(const DataOwner& owner, const Dataset& ds,
                                   std::uint64_t seed) {
  QueryClient client(owner.ShareKeys(), seed);
  std::vector<QueryToken> tokens;
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    tokens.push_back(client.EncryptQuery(ds.queries.row(i)));
  }
  return tokens;
}

/// Forwards to a real transport, except that while `fail` is raised every
/// Filter returns IOError — and Healthy() keeps reporting the inner
/// transport's health, like one dead stream in a pool of two.
class FailingTransport final : public ShardTransport {
 public:
  FailingTransport(std::unique_ptr<ShardTransport> inner,
                   const std::atomic<bool>* fail)
      : inner_(std::move(inner)), fail_(fail) {}

  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    if (fail_->load(std::memory_order_acquire)) {
      return Status::IOError("injected dispatch failure");
    }
    return inner_->Filter(token, options, ctx, out);
  }
  bool Healthy() const override { return inner_->Healthy(); }
  bool remote() const override { return inner_->remote(); }

 private:
  std::unique_ptr<ShardTransport> inner_;
  const std::atomic<bool>* fail_;
};

/// A loopback cluster: an in-process twin, the same package behind a
/// ShardServer, and a gather node whose transports are RemoteShardClients
/// over one channel pool, each wrapped in a FailingTransport keyed by its
/// shard. Members are declared so the gather dies before the server.
struct LoopbackCluster {
  LoopbackCluster(IndexKind kind, std::uint32_t num_shards,
                  std::uint32_t num_replicas, const Dataset& ds,
                  std::uint64_t seed)
      : fail(num_shards) {
    DataOwner twin_owner = MakeOwner(BaseParams(kind, num_shards,
                                                num_replicas, seed));
    owner = std::make_unique<DataOwner>(
        MakeOwner(BaseParams(kind, num_shards, num_replicas, seed)));
    twin = std::make_unique<PpannsService>(
        ShardedCloudServer(twin_owner.EncryptAndIndexSharded(ds.base)));
    backend = std::make_unique<PpannsService>(
        ShardedCloudServer(owner->EncryptAndIndexSharded(ds.base)));
    server = std::make_unique<ShardServer>(backend.get(),
                                           std::vector<std::uint32_t>{});
    PPANNS_CHECK(server->Start(0).ok());
    auto pool = RpcChannelPool::Connect(
        "127.0.0.1:" + std::to_string(server->port()));
    PPANNS_CHECK(pool.ok());
    const HelloOkMessage& info = (*pool)->server_info();
    ShardedCloudServer::RemoteTopology topology;
    topology.num_shards = info.num_shards;
    topology.num_replicas = info.num_replicas;
    topology.dim = static_cast<std::size_t>(info.dim);
    topology.index_kind = static_cast<IndexKind>(info.index_kind);
    topology.size = static_cast<std::size_t>(info.size);
    topology.capacity = static_cast<std::size_t>(info.capacity);
    topology.storage_bytes = static_cast<std::size_t>(info.storage_bytes);
    std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
        num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (std::uint32_t r = 0; r < num_replicas; ++r) {
        transports[s].push_back(std::make_unique<FailingTransport>(
            std::make_unique<RemoteShardClient>(*pool, s, r), &fail[s]));
      }
    }
    gather = std::make_unique<PpannsService>(
        ShardedCloudServer(topology, std::move(transports)));
  }

  std::vector<std::atomic<bool>> fail;  ///< per shard
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<PpannsService> twin;
  std::unique_ptr<PpannsService> backend;  ///< behind the socket
  std::unique_ptr<ShardServer> server;
  std::unique_ptr<PpannsService> gather;
};

// ---------------------------------------------------------------------------
// Call-shape equivalence

struct Topology {
  std::string name;
  IndexKind kind;
  std::uint32_t shards;
  std::uint32_t replicas;
  bool remote;
  /// Served from a single-shard "PPDB" package (shards = replicas = 1).
  bool ppdb = false;
};

class ShardedCallShapeTest : public ::testing::TestWithParam<Topology> {};

void ExpectSameAnswer(const SearchResult& got, const SearchResult& want,
                      const std::string& shape, std::size_t query) {
  EXPECT_EQ(got.ids, want.ids) << shape << ", query " << query;
  EXPECT_EQ(got.counters.nodes_visited, want.counters.nodes_visited)
      << shape << ", query " << query;
  EXPECT_EQ(got.counters.distance_computations,
            want.counters.distance_computations)
      << shape << ", query " << query;
  EXPECT_EQ(got.counters.dce_comparisons, want.counters.dce_comparisons)
      << shape << ", query " << query;
  EXPECT_EQ(got.counters.replicas_skipped, want.counters.replicas_skipped)
      << shape << ", query " << query;
  EXPECT_FALSE(got.partial) << shape << ", query " << query;
}

TEST_P(ShardedCallShapeTest, EveryShapeReturnsTheSameAnswer) {
  const Topology& topo = GetParam();
  const Dataset ds =
      MakeDataset(SyntheticKind::kGloveLike, 300, 6, /*gt_k=*/0, 51, kDim);
  std::unique_ptr<LoopbackCluster> cluster;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<PpannsService> local;
  std::unique_ptr<CloudServer> paper_core;  ///< the PPDB rows' reference
  const PpannsService* service = nullptr;
  if (topo.remote) {
    cluster = std::make_unique<LoopbackCluster>(topo.kind, topo.shards,
                                                topo.replicas, ds, 51);
    owner = std::move(cluster->owner);
    service = cluster->gather.get();
  } else if (topo.ppdb) {
    owner = std::make_unique<DataOwner>(
        MakeOwner(BaseParams(topo.kind, 1, 1, 51)));
    BinaryWriter package;
    owner->EncryptAndIndex(ds.base).Serialize(&package);
    BinaryReader as_set(package.buffer());
    auto db = ShardedEncryptedDatabase::Deserialize(&as_set);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE(db->bare);
    local = std::make_unique<PpannsService>(ShardedCloudServer(std::move(*db)));
    ASSERT_EQ(local->num_shards(), 1u);
    ASSERT_EQ(local->num_replicas(), 1u);
    BinaryReader as_single(package.buffer());
    auto single = EncryptedDatabase::Deserialize(&as_single);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    paper_core = std::make_unique<CloudServer>(std::move(*single));

    // An unmutated package checkpoints to its own bytes.
    const std::string path =
        ::testing::TempDir() + "call_shape_" + topo.name + ".ppanns";
    ASSERT_TRUE(local->Checkpoint(path).ok());
    auto written = ReadFile(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, package.buffer());
    service = local.get();
  } else {
    owner = std::make_unique<DataOwner>(
        MakeOwner(BaseParams(topo.kind, topo.shards, topo.replicas, 51)));
    local = std::make_unique<PpannsService>(
        ShardedCloudServer(owner->EncryptAndIndexSharded(ds.base)));
    service = local.get();
  }
  const std::vector<QueryToken> tokens = MakeTokens(*owner, ds, 53);

  // A generous hedge deadline: no hedge fires on a healthy cluster, so the
  // hedged shapes take the coordinator path and must still agree.
  const AsyncOptions flat{.hedge_ms = 0.0};
  const AsyncOptions hedged{.hedge_ms = 1000.0};
  auto flat_batch = service->SearchBatch(tokens, kK, {}, flat);
  auto hedged_batch = service->SearchBatch(tokens, kK, {}, hedged);
  ASSERT_TRUE(flat_batch.ok()) << flat_batch.status().ToString();
  ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto sync = service->Search(tokens[i], kK);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_FALSE(sync->partial);
    EXPECT_FALSE(sync->ids.empty());
    auto async_flat = service->SearchAsync(tokens[i], kK, {}, flat);
    auto async_hedged = service->SearchAsync(tokens[i], kK, {}, hedged);
    ASSERT_TRUE(async_flat.ok()) << async_flat.status().ToString();
    ASSERT_TRUE(async_hedged.ok()) << async_hedged.status().ToString();
    ExpectSameAnswer(*async_flat, *sync, "SearchAsync hedge_ms=0", i);
    ExpectSameAnswer(*async_hedged, *sync, "SearchAsync hedge_ms=1000", i);
    ExpectSameAnswer(flat_batch->results[i], *sync, "SearchBatch hedge_ms=0",
                     i);
    ExpectSameAnswer(hedged_batch->results[i], *sync,
                     "SearchBatch hedge_ms=1000", i);
    if (paper_core != nullptr) {
      ExpectSameAnswer(*sync, paper_core->Search(tokens[i], kK),
                       "Search vs CloudServer::Search", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ShardedCallShapeTest,
    ::testing::Values(Topology{"brute_4x2", IndexKind::kBruteForce, 4, 2, false},
                      Topology{"hnsw_2x2", IndexKind::kHnsw, 2, 2, false},
                      Topology{"remote_2x1", IndexKind::kHnsw, 2, 1, true},
                      Topology{"ppdb_brute_1x1", IndexKind::kBruteForce, 1, 1,
                               false, true},
                      Topology{"ppdb_hnsw_1x1", IndexKind::kHnsw, 1, 1, false,
                               true},
                      Topology{"ppdb_ivf_1x1", IndexKind::kIvf, 1, 1, false,
                               true},
                      Topology{"ppdb_lsh_1x1", IndexKind::kLsh, 1, 1, false,
                               true}),
    [](const ::testing::TestParamInfo<Topology>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Dispatch failure: partial on every shape, never cached

// A dispatch that fails while its transport still reports healthy (a dead
// stream in a pool of two, a server-side shed) leaves its shard out of the
// answer. Every shape must flag that answer partial, so the result cache
// never keeps it; once the transport recovers, answers equal the twin's.
TEST(ShardedDispatchFailureTest, FailedDispatchIsPartialOnEveryShape) {
  const Dataset ds =
      MakeDataset(SyntheticKind::kGloveLike, 300, 4, /*gt_k=*/0, 61, kDim);
  LoopbackCluster cluster(IndexKind::kBruteForce, 2, 1, ds, 61);
  cluster.gather->EnableResultCache(ResultCacheOptions{});
  const std::vector<QueryToken> tokens = MakeTokens(*cluster.owner, ds, 63);
  const AsyncOptions hedged{.hedge_ms = 1000.0};
  const AsyncOptions flat{.hedge_ms = 0.0};

  cluster.fail[1].store(true, std::memory_order_release);
  const std::uint64_t inserts = cluster.gather->result_cache_stats().insertions;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto sync = cluster.gather->Search(tokens[i], kK);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_TRUE(sync->partial) << "Search, query " << i;
    auto async = cluster.gather->SearchAsync(tokens[i], kK, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_TRUE(async->partial) << "hedged SearchAsync, query " << i;
  }
  for (const AsyncOptions& async : {flat, hedged}) {
    auto batch = cluster.gather->SearchBatch(tokens, kK, {}, async);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_TRUE(batch->results[i].partial)
          << "SearchBatch hedge_ms=" << async.hedge_ms << ", query " << i;
    }
  }
  EXPECT_EQ(cluster.gather->result_cache_stats().insertions, inserts)
      << "a partial answer was cached";

  // Recovered: every shape answers in full, identical to the twin.
  cluster.fail[1].store(false, std::memory_order_release);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto want = cluster.twin->Search(tokens[i], kK);
    ASSERT_TRUE(want.ok());
    auto async = cluster.gather->SearchAsync(tokens[i], kK, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_FALSE(async->partial);
    EXPECT_EQ(async->ids, want->ids) << "query " << i;
  }
  auto batch = cluster.gather->SearchBatch(tokens, kK, {}, flat);
  ASSERT_TRUE(batch.ok());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto want = cluster.twin->Search(tokens[i], kK);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(batch->results[i].ids, want->ids) << "batch query " << i;
  }
}

// SearchAsync's Status policy is a property of the outcome, not of the
// calling thread: from a pool worker (flat dispatch) it must fail exactly
// where the hedged call off the pool fails.
TEST(ShardedDispatchFailureTest, SearchAsyncPolicyIgnoresTheCallingThread) {
  const Dataset ds =
      MakeDataset(SyntheticKind::kGloveLike, 240, 2, /*gt_k=*/0, 71, kDim);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 2, 71));
  PpannsService service(
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base)));
  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 73);
  ShardedCloudServer& cluster = service.sharded_server_mutable();

  const auto both_threads = [&](const AsyncOptions& async) {
    std::vector<Result<SearchResult>> out;
    out.push_back(service.SearchAsync(tokens[0], kK, {}, async));
    out.push_back(ThreadPool::Global()
                      .Async([&] {
                        return service.SearchAsync(tokens[0], kK, {}, async);
                      })
                      .get());
    return out;
  };

  // One shard down, partial results forbidden: a Status on both threads.
  cluster.SetReplicaDown(1, 0, true);
  cluster.SetReplicaDown(1, 1, true);
  const AsyncOptions strict{.hedge_ms = 1000.0, .allow_partial = false};
  for (const auto& r : both_threads(strict)) {
    EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
  }
  // Partial results allowed: a partial answer on both threads.
  for (const auto& r : both_threads(AsyncOptions{.hedge_ms = 1000.0})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
  }

  // Every replica down: nothing answered, a Status on both threads.
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    for (std::size_t r = 0; r < cluster.replication_factor(); ++r) {
      cluster.SetReplicaDown(s, r, true);
    }
  }
  for (const auto& r : both_threads(AsyncOptions{.hedge_ms = 1000.0})) {
    EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace ppanns
