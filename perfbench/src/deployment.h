// The three frozen workloads and the deployment each one serves from.
//
// Everything here goes through the public API: DataOwner builds the sharded
// package, PpannsService fronts it, and on the remote workload ShardServer
// endpoints serve it over loopback sockets to a gather node assembled from
// RpcChannelPool + RemoteShardClient through the public
// ShardedCloudServer(RemoteTopology, transports) constructor. The gather's
// transports are wrapped in a benchmark-side decorator that counts and traces
// every filter RPC, which is how spans reach below the facade without any
// change to the library.

#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "datagen/synthetic.h"
#include "net/rpc_channel.h"
#include "net/shard_server.h"
#include "trace.h"

namespace perfbench {

/// One workload's frozen configuration. The knee rate and the p99 limit
/// were derived once from the measured capacity of this code on a 4-core
/// host and are not tuned per run (see perfbench/README.md).
struct WorkloadSpec {
  const char* name;
  ppanns::SyntheticKind kind;
  std::size_t n;                 ///< vectors in the initial package
  std::uint32_t shards;
  std::uint32_t replicas;
  bool remote;                   ///< served over loopback ShardServers
  bool churn;                    ///< insert/delete stream + WAL + maintenance
  std::size_t query_pool;        ///< plaintext queries (or pre-encrypted tokens)
  std::size_t cache_capacity;
  /// > 0: requests replay a pool of pre-encrypted tokens under Zipf(s);
  /// 0: every request encrypts a fresh token.
  double zipf_s;
  /// The highest rate (searches/s) that met the p99 limit when the ladder
  /// was frozen; the ladder's rungs are fixed multiples of it.
  double knee_qps;
  double p99_limit_ms;
  /// Length of one try of the staircase: at least five times the limit, so
  /// that a rate 20% past what the system sustains leaves a backlog that
  /// takes longer than the limit to drain.
  double try_seconds;
  double recall_floor;
  double mutation_rate;          ///< insert/delete pairs/s beside the reads
  double compact_threshold;      ///< maintenance trigger (churn)
  int setup_repeats;             ///< set-ups per run; setup_s is their median
};

/// Every workload's rate ladder: rung i offers knee_qps x 2^(i /
/// kRungsPerOctave) searches/s, so neighbouring rungs are 3% apart. It runs
/// from a quarter of the knee to about 2.5 times it, so that a slower system
/// reads lower and a faster one has rungs left to pass.
constexpr int kRungsPerOctave = 24;
constexpr int kLowestRung = -2 * kRungsPerOctave;
constexpr int kHighestRung = 32;
/// Half the knee: latencies are reported at this rung's rate.
constexpr int kNominalRung = -kRungsPerOctave;
inline double RungRate(const WorkloadSpec& spec, int rung) {
  return spec.knee_qps *
         std::exp2(static_cast<double>(rung) / kRungsPerOctave);
}
inline double NominalRate(const WorkloadSpec& spec) {
  return RungRate(spec, kNominalRung);
}

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

constexpr std::size_t kK = 10;
constexpr std::size_t kKPrime = 4 * kK;
/// Load threads issuing searches; a churn workload runs its mutation stream
/// on one more. Each search also keeps up to one thread of the library's pool
/// per shard busy, so two keep a 4-core host busy without oversubscribing it.
constexpr std::size_t kSearchThreads = 2;

/// Requests replay pre-encrypted tokens instead of encrypting fresh ones.
inline bool ReplaysTokens(const WorkloadSpec& spec) { return spec.zipf_s > 0; }
/// Searches go through the hedged async path, which needs replicas to
/// hedge onto; otherwise through the synchronous Search.
inline bool Hedged(const WorkloadSpec& spec) { return spec.replicas > 1; }
/// Benchmark-only inputs, made from the seed before set-up starts.
struct Prepared {
  ppanns::FloatMatrix base;     ///< the initial package's plaintexts
  ppanns::FloatMatrix extra;    ///< plaintexts of the insert pool
  ppanns::FloatMatrix queries;  ///< the plaintext query pool
  std::vector<std::vector<ppanns::Neighbor>> truth;  ///< exact top-k of each
  ppanns::PpannsParams params;
  double beta = 0.0;
};
/// `inserts` plaintexts beyond the package are kept for the mutation stream.
Prepared Prepare(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t inserts);

/// Wall seconds of each set-up phase; `total` is what setup_s reports.
struct SetupTimes {
  double keygen_s = 0.0;
  double encrypt_index_s = 0.0;
  double load_s = 0.0;
  double connect_s = 0.0;
  double total() const { return keygen_s + encrypt_index_s + load_s + connect_s; }
};

/// Counters the gather-side transport decorator keeps at the RPC boundary.
struct NetProbe {
  std::atomic<Tracer*> tracer{nullptr};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> bytes{0};          ///< token up + answer down
  std::atomic<std::uint64_t> dce_shipped{0};    ///< ciphertexts in answers
};

/// A served workload. Member order is teardown order in reverse: the gather
/// and its connections close before the endpoints stop, and the endpoints
/// stop before the package they serve is released.
struct Deployment {
  std::unique_ptr<ppanns::DataOwner> owner;
  std::unique_ptr<ppanns::PpannsService> backend;  ///< holds the package
  std::vector<std::unique_ptr<ppanns::ShardServer>> servers;
  std::unique_ptr<NetProbe> net = std::make_unique<NetProbe>();
  std::vector<std::shared_ptr<ppanns::RpcChannelPool>> pools;
  std::unique_ptr<ppanns::PpannsService> gather;   ///< remote only

  /// The facade requests go to.
  ppanns::PpannsService& serving() { return gather ? *gather : *backend; }
  /// Live streams summed over the gather's connection pools.
  std::size_t LiveStreams() const;
};

/// Runs the system set-up the workload measures: key generation, sharded
/// encryption and indexing, service construction (with cache and WAL), and
/// on the remote workload endpoint start plus connect. `wal_dir` is used on
/// churn workloads only. Spans go to `tracer` when it is not null.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const Prepared& prep,
                                   const std::string& wal_dir, Tracer* tracer,
                                   SetupTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
