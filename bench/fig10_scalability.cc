// Fig. 10 + sharding: scalability with database size and shard count.
//
// Part 1 reproduces the paper's claim (Section VII-C): per-query latency at
// fixed accuracy grows sublinearly as the database grows (the paper samples
// Sift1B/Deep1B at 25/50/75/100M; we sweep four sizes in the same 1:2:3:4
// ratio, default 10k..40k, paper scale via PPANNS_BENCH_FULL /
// PPANNS_BENCH_N).
//
// Part 2 goes beyond the paper along the ROADMAP north-star: it sweeps
// num_shards in {1, 2, 4, 8} at the smallest and largest size and measures
// (a) build time — per-shard graph construction parallelizes across cores;
// the shards=1 baseline (EncryptAndIndexParallel) builds its single graph
// sequentially with the same parallel DCE pass, so the speedup column
// isolates the graph-build parallelism — and (b) batched search throughput
// and recall through the PpannsService scatter-gather path at the same
// total candidate budget.
//
// Every measured point is also emitted as one JSON line into
// BENCH_fig10_scalability.json (override with PPANNS_BENCH_JSON) so the
// perf trajectory is machine-readable across PRs.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/ppanns_service.h"
#include "core/sharded_cloud_server.h"
#include "eval/metrics.h"

namespace {

using namespace ppanns;
using namespace ppanns::bench;

struct ShardPoint {
  std::size_t n = 0;
  std::size_t num_shards = 0;
  double build_seconds = 0.0;
  double batch_wall_seconds = 0.0;
  double batch_qps = 0.0;
  double recall = 0.0;
};

/// Builds the stack at `num_shards` (1 = the paper's sequential single-index
/// build) and measures build time plus one batched scatter-gather pass.
ShardPoint MeasureSharded(const Dataset& dataset, double beta, double scale,
                          std::size_t num_shards, std::size_t k,
                          const SearchSettings& settings, std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = beta;
  params.dce_scale_hint = scale;
  params.hnsw = DefaultHnsw(seed);
  params.num_shards = static_cast<std::uint32_t>(num_shards);
  params.seed = seed;

  auto owner = DataOwner::Create(dataset.base.dim(), params);
  PPANNS_CHECK(owner.ok());

  ShardPoint point;
  point.n = dataset.base.size();
  point.num_shards = num_shards;

  // The shards=1 baseline uses EncryptAndIndexParallel: its graph build is
  // the sequential single-index one, but its DCE pass and SAP stream match
  // the sharded builder's, so the speedup column isolates the per-shard
  // graph parallelism and the recall rows share identical ciphertexts.
  Timer build;
  PpannsService service =
      num_shards == 1
          ? PpannsService{ShardedCloudServer(
                ShardedEncryptedDatabase::FromSingleShard(
                    owner->EncryptAndIndexParallel(dataset.base)))}
          : PpannsService{ShardedCloudServer(
                owner->EncryptAndIndexSharded(dataset.base))};
  point.build_seconds = build.ElapsedSeconds();

  QueryClient client(owner->ShareKeys(), seed + 23);
  const std::vector<QueryToken> tokens = EncryptQueries(client, dataset.queries);
  auto batch = service.SearchBatch(tokens, k, settings);
  PPANNS_CHECK(batch.ok());
  point.batch_wall_seconds = batch->counters.wall_seconds;
  point.batch_qps = tokens.size() / batch->counters.wall_seconds;

  std::vector<std::vector<VectorId>> ids;
  ids.reserve(batch->results.size());
  for (const SearchResult& r : batch->results) ids.push_back(r.ids);
  point.recall = MeanRecallAtK(ids, dataset.ground_truth, k);
  return point;
}

void EmitJson(std::FILE* json, const std::string& dataset,
              const ShardPoint& p, std::size_t k,
              const SearchSettings& settings) {
  if (json == nullptr) return;
  std::fprintf(json,
               "{\"bench\":\"fig10_scalability\",\"dataset\":\"%s\","
               "\"n\":%zu,\"num_shards\":%zu,\"k\":%zu,\"k_prime\":%zu,"
               "\"ef_search\":%zu,\"build_seconds\":%.4f,"
               "\"batch_wall_seconds\":%.4f,\"batch_qps\":%.1f,"
               "\"recall_at_k\":%.4f}\n",
               dataset.c_str(), p.n, p.num_shards, k, settings.k_prime,
               settings.ef_search, p.build_seconds, p.batch_wall_seconds,
               p.batch_qps, p.recall);
  std::fflush(json);
}

}  // namespace

int main() {
  PrintBanner("Fig. 10: scalability with database size and shard count",
              "Figure 10 (Section VII-C) + sharded scatter-gather serving");

  const std::size_t k = 10;
  const std::size_t base = EnvSize("PPANNS_BENCH_N", FullScale() ? 25'000'000 : 10'000);
  const std::vector<std::size_t> sizes = {base, 2 * base, 3 * base, 4 * base};
  const SearchSettings settings{.k_prime = 16 * k, .ef_search = 200};
  std::FILE* json = OpenBenchJson("fig10_scalability");

  // ---- Part 1: latency vs n at one shard (the paper's figure).
  std::printf("%s\n", FormatHeader().c_str());
  for (SyntheticKind kind : {SyntheticKind::kSiftLike, SyntheticKind::kDeepLike}) {
    for (std::size_t n : sizes) {
      BenchSystem sys = BuildSystem(kind, n, DefaultQ(), k, /*seed=*/707);
      OperatingPoint p = MeasureServer(*sys.server, sys.tokens,
                                      sys.dataset.ground_truth, k, settings);
      char param[32];
      std::snprintf(param, sizeof(param), "n=%zu", n);
      std::printf("%s\n", FormatRow(sys.dataset.name, param, p).c_str());
    }
    std::printf("\n");
  }
  std::printf("expected shape (paper): latency grows sublinearly — 4x data "
              "should cost well under 4x latency (graph search is ~log n).\n\n");

  // ---- Part 2: shard sweep at the smallest and largest size.
  std::printf("sharded build + batched scatter-gather (SIFT-like):\n");
  std::printf("%-10s %-8s %12s %12s %10s %8s\n", "n", "shards",
              "build(s)", "speedup", "batch QPS", "recall");
  for (std::size_t n : {sizes.front(), sizes.back()}) {
    Dataset dataset = MakeOrLoadDataset(SyntheticKind::kSiftLike, n,
                                        DefaultQ(), k, /*seed=*/707);
    Rng stat_rng(707 + 17);
    const DatasetStats stats = ComputeStats(dataset.base, stat_rng);
    const double beta = ChooseBeta(dataset, k, 0.5);
    const double scale = std::max(stats.mean_norm, 1e-3);

    double sequential_build = 0.0;
    for (std::size_t num_shards : {1, 2, 4, 8}) {
      ShardPoint p = MeasureSharded(dataset, beta, scale, num_shards, k,
                                    settings, /*seed=*/707);
      if (num_shards == 1) sequential_build = p.build_seconds;
      std::printf("%-10zu %-8zu %12.2f %11.2fx %10.1f %8.3f\n", p.n,
                  p.num_shards, p.build_seconds,
                  sequential_build / p.build_seconds, p.batch_qps, p.recall);
      EmitJson(json, dataset.name, p, k, settings);
    }
    std::printf("\n");
  }
  std::printf("expected shape: build time drops with shard count (independent "
              "per-shard graphs build in parallel) while recall holds — the "
              "merge refines the same total candidate budget.\n");
  if (json != nullptr) std::fclose(json);
  return 0;
}
