// Hierarchical Navigable Small World proximity graph (Malkov & Yashunin,
// TPAMI 2020) — the k-ANNS substrate of the paper's privacy-preserving index
// (Section V-A). Implemented from scratch.
//
// In the PP-ANNS scheme the HNSW graph is built over DCPE/SAP *ciphertexts*
// (never plaintexts), so its edges encode only approximate neighborhoods;
// the index itself is agnostic to what the float vectors are.
//
// Supported operations:
//  * Add            — incremental insertion (Algorithm 1 of the HNSW paper,
//                     with the diversifying neighbor-selection heuristic),
//  * AddBatchParallel — bulk insertion fanned across build threads with
//                     fine-grained (striped per-node) locking; one graph's
//                     construction scales with cores, compounding with the
//                     cross-shard parallelism of the sharded builder,
//  * Search         — ef-bounded best-first search (Algorithms 2 & 5),
//  * Remove         — deletion with in-neighbor repair, the maintenance
//                     strategy of Section V-D of the PP-ANNS paper,
//  * Serialize/Deserialize — byte-exact persistence.

#ifndef PPANNS_INDEX_HNSW_H_
#define PPANNS_INDEX_HNSW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"

namespace ppanns {

class ThreadPool;

/// HNSW construction parameters (paper defaults in parentheses follow the
/// evaluation setup of Section VII-A: m=40, ef_construction=600; the library
/// defaults are the common general-purpose values).
struct HnswParams {
  std::size_t m = 16;                ///< max out-degree on levels > 0
  std::size_t ef_construction = 200; ///< beam width during insertion
  std::uint64_t seed = 0x5eed;       ///< level-assignment randomness

  /// Max out-degree at level 0 (2*m per the HNSW paper).
  std::size_t max_m0() const { return 2 * m; }
};

/// Aggregate graph statistics (used by tests and DESIGN.md ablations).
struct HnswStats {
  std::size_t num_nodes = 0;       ///< live (non-deleted) nodes
  std::size_t num_deleted = 0;
  int max_level = -1;
  std::size_t total_edges_level0 = 0;
  double avg_out_degree_level0 = 0.0;
};

/// The HNSW index. Owns a copy of the inserted vectors.
///
/// Thread-safety contract: `Search` is const and safe to call concurrently
/// with other `Search` calls. `AddBatchParallel` synchronizes its own build
/// stripes internally (striped per-node adjacency locks, atomic entry
/// state) but is exclusive against everything else: no Search (its
/// adjacency reads are lock-free), no other mutation (Add/Remove/another
/// batch), and no move of the index object may overlap it.
class HnswIndex {
 public:
  HnswIndex(std::size_t dim, HnswParams params);

  // The entry state is an atomic member, so the compiler-generated moves are
  // deleted; these move the packed value. Never move mid-build.
  HnswIndex(HnswIndex&& other) noexcept;
  HnswIndex& operator=(HnswIndex&& other) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Inserts a vector, returning its id (dense, monotonically increasing;
  /// ids of removed vectors are not reused).
  VectorId Add(const float* v);

  /// Inserts all rows of `data` in order.
  void AddBatch(const FloatMatrix& data);

  /// Inserts all rows of `data` with the construction fanned across
  /// `num_threads` workers (0 picks the pool's width, or 1 without a pool).
  ///
  /// Determinism contract: the build is byte-reproducible regardless of the
  /// thread count. Every node's level comes from ONE stream seeded
  /// `params.seed` (mixed with the batch's base id so successive batches get
  /// fresh streams), and num_threads >= 2 runs a wave-barrier schedule —
  /// each wave's items search the *frozen* committed graph in parallel
  /// (read-only; their edge selections depend only on that snapshot), then
  /// commit sequentially in ascending id order. Any T >= 2 therefore
  /// produces the identical graph, and a serialized package built with
  /// build_threads=8 equals one built with build_threads=2 bit for bit
  /// (pinned by tests/index/hnsw_parallel_build_test.cc). num_threads == 1
  /// keeps the original one-at-a-time insertion order and stays
  /// bit-identical to AddBatch on an empty index; its graph differs from the
  /// wave-built one (each insert sees all previous ones, a wave's items do
  /// not see each other), with recall within noise of sequential.
  ///
  /// `pool` is used for the stripes when calling from outside it; from
  /// inside one of its workers (the per-shard sharded build) or with a
  /// single-worker pool, dedicated threads are spawned instead so
  /// shards x build_threads stripes genuinely overlap and queued stripes can
  /// never deadlock behind blocked shard tasks. A null pool always uses
  /// dedicated threads.
  ///
  /// Takes a RowView so strided callers (the round-robin sharded build)
  /// insert straight from the interleaved SAP matrix without materializing a
  /// per-shard copy; a FloatMatrix converts implicitly.
  void AddBatchParallel(RowView data, ThreadPool* pool,
                        std::size_t num_threads = 0);

  /// Returns up to k (id, distance) pairs ascending by squared L2 distance.
  /// `ef_search` is the result-set beam width (clamped to >= k). If
  /// `visited_out` is non-null it receives the number of distance
  /// computations performed (used by interactive-baseline cost models).
  /// `ctx`, when non-null, is probed as the beam expands: the search stops
  /// early on cancellation / deadline / node budget (returning the
  /// best-so-far beam) and its stats accumulate nodes visited and distance
  /// computations. A null context is the zero-overhead legacy path and the
  /// returned ids are bit-for-bit identical either way unless the context
  /// trips.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t ef_search,
                               std::size_t* visited_out = nullptr,
                               SearchContext* ctx = nullptr) const;

  /// Removes a vector and repairs the graph: every in-neighbor of `id` gets
  /// its edge dropped and is re-linked by a fresh neighbor search, per the
  /// deletion strategy of Section V-D (server-only, no data-owner help).
  ///
  /// The in-neighbor sweep — the O(n) part — fans across the global pool:
  /// unlinking partitions the nodes (no locks needed), then the repairs run
  /// concurrently through the same striped per-node locks as
  /// AddBatchParallel. Like the parallel build, Remove is exclusive against
  /// Search and all other mutation; repaired edge sets can vary with thread
  /// interleaving (the tests pin recall and reachability, not exact edges).
  Status Remove(VectorId id);

  bool IsDeleted(VectorId id) const;
  std::size_t size() const { return data_.size() - num_deleted_; }
  std::size_t capacity() const { return data_.size(); }
  std::size_t dim() const { return dim_; }
  const HnswParams& params() const { return params_; }
  const FloatMatrix& data() const { return data_; }

  /// Out-neighbors of `id` at `level` (for tests / graph analyses).
  const std::vector<VectorId>& NeighborsAt(VectorId id, std::size_t level) const;
  int LevelOf(VectorId id) const;

  HnswStats ComputeStats() const;

  void Serialize(BinaryWriter* out) const;
  static Result<HnswIndex> Deserialize(BinaryReader* in);

  /// Test hook: plants `epoch` in a pooled visited list so the next scans
  /// cross the uint32 epoch wrap. Regression surface for the wrap-aliasing
  /// reorder (the wrap-safe advance now happens before a scan tags anything,
  /// never after).
  void PrimeVisitedEpochForTest(std::uint32_t epoch);

 private:
  struct Node {
    int level = 0;
    bool deleted = false;
    /// adjacency[l] = out-neighbors at level l, 0 <= l <= level. During a
    /// parallel build every access goes through the node's stripe lock;
    /// `level` and `deleted` are immutable while a build runs.
    std::vector<std::vector<VectorId>> adjacency;
  };

  /// Epoch-tagged visited set; one borrowed per search via a free-list so
  /// concurrent const searches are safe.
  struct VisitedList {
    std::vector<std::uint32_t> tags;
    std::uint32_t epoch = 0;

    /// Advances to a fresh epoch *before* a scan uses it. On wrap the tags
    /// are cleared first, so a recycled tag value can never alias a visited
    /// mark within the scan (or within one multi-level insert).
    std::uint32_t NextEpoch() {
      if (++epoch == 0) {
        std::fill(tags.begin(), tags.end(), 0u);
        epoch = 1;
      }
      return epoch;
    }
  };
  class VisitedPool {
   public:
    std::unique_ptr<VisitedList> Acquire(std::size_t n);
    void Release(std::unique_ptr<VisitedList> vl);

   private:
    std::mutex mu_;
    std::vector<std::unique_ptr<VisitedList>> free_;
  };

  /// Fine-grained build synchronization: adjacency mutations and snapshots
  /// take the owning node's stripe; `promote_mu` serializes entry-point
  /// promotions (the only global lock left in the build, taken once per
  /// level-exceeding insert).
  struct BuildLocks {
    static constexpr std::size_t kStripes = 1024;
    std::mutex stripes[kStripes];
    std::mutex promote_mu;

    std::mutex& ForNode(VectorId id) { return stripes[id % kStripes]; }
  };

  /// (entry point, max level) packed into one word so concurrent readers can
  /// never observe a torn pair (e.g. a promoted level with the old entry,
  /// whose adjacency would be too shallow for the descent).
  struct EntryState {
    VectorId entry = kInvalidVectorId;
    int level = -1;
  };
  static std::uint64_t PackEntry(EntryState s) {
    return (static_cast<std::uint64_t>(s.entry) << 32) |
           static_cast<std::uint32_t>(s.level);
  }
  EntryState LoadEntry() const {
    const std::uint64_t packed = entry_state_.load(std::memory_order_acquire);
    return EntryState{static_cast<VectorId>(packed >> 32),
                      static_cast<std::int32_t>(packed & 0xFFFFFFFFull)};
  }
  void StoreEntry(EntryState s) {
    entry_state_.store(PackEntry(s), std::memory_order_release);
  }

  float Distance(const float* a, VectorId b) const {
    return SquaredL2(a, data_.row(b), dim_);
  }

  /// Draws the level for a new node: floor(-ln(U) * (1/ln m)). The stream
  /// comes from `rng` so per-stripe generators reproduce the sequential
  /// distribution.
  int LevelFromRng(Rng& rng) const;
  int RandomLevel() { return LevelFromRng(level_rng_); }

  /// Registers a live node at `level` in the per-level population counts
  /// (what lets Remove recompute the max level in O(levels), not O(n)).
  void CountLevel(int level);

  /// Greedy descent at one level: repeatedly move to the closest neighbor.
  /// `dist_count` accumulates distance computations when non-null.
  VectorId GreedyClosest(const float* query, VectorId start, int level,
                         std::size_t* dist_count = nullptr) const;

  /// Best-first beam search at one level (Algorithm 2). Returns up to `ef`
  /// nearest candidates sorted ascending. Deleted nodes stay traversable but
  /// are not returned. `dist_count` accumulates distance computations;
  /// `ctx` (nullable) makes the expansion loop cancellable. Advances the
  /// visited list to a fresh epoch itself (wrap-safe, before any tagging).
  std::vector<Neighbor> SearchLayer(const float* query, VectorId entry,
                                    std::size_t ef, int level,
                                    VisitedList* visited,
                                    std::size_t* dist_count = nullptr,
                                    SearchContext* ctx = nullptr) const;

  /// The diversifying heuristic (Algorithm 4): selects up to `m` neighbors
  /// such that each kept candidate is closer to the base vector than to any
  /// already-kept neighbor.
  std::vector<VectorId> SelectNeighbors(const float* base,
                                        std::vector<Neighbor> candidates,
                                        std::size_t m) const;

  /// Links `id` at `level` to `neighbors` and back, shrinking overflowing
  /// adjacency lists with the heuristic.
  void Connect(VectorId id, int level, const std::vector<VectorId>& neighbors);

  /// Plans the re-link of node `v` at `level` after one of its out-edges
  /// was removed (Remove's parallel plan phase): a fresh neighborhood
  /// search merged with the surviving adjacency, re-selected by the
  /// heuristic. Reads only — Remove commits the returned selections
  /// afterwards (MergeEdges, then AddBackLink per target list in (v, level)
  /// order) — so many plans run concurrently against one frozen graph.
  std::vector<VectorId> PlanRepair(VectorId v, int level, VisitedList* visited,
                                   std::vector<VectorId>* scratch);

  // ---- Concurrent-build variants (AddBatchParallel only). -------------------
  // Same algorithms as the sequential functions above, with every adjacency
  // read snapshotted (and every write made) under the owning node's stripe
  // lock. At most one stripe lock is ever held at a time, so lock order can
  // never deadlock. `scratch` is the caller's reusable snapshot buffer.

  /// Inserts pre-registered node `id` (slot, level, and vector row already
  /// exist) into the graph concurrently with other inserts.
  void InsertConcurrent(VectorId id);
  VectorId GreedyClosestBuild(const float* query, VectorId start, int level,
                              std::vector<VectorId>* scratch);
  /// `self` = the node being inserted: concurrently-wired back-links can
  /// make it reachable mid-insert, so it stays traversable but is never
  /// returned (a distance-0 self match would otherwise become a self-loop).
  std::vector<Neighbor> SearchLayerBuild(const float* query, VectorId entry,
                                         std::size_t ef, int level,
                                         VectorId self, VisitedList* visited,
                                         std::vector<VectorId>* scratch);
  void ConnectBuild(VectorId id, int level,
                    const std::vector<VectorId>& neighbors);
  /// ConnectBuild's two halves, taking no lock (the caller holds the stripe
  /// or owns the list outright): merge `neighbors` into `id`'s list at
  /// `level` (re-selecting on overflow), and add the edge nb -> id
  /// (re-selecting nb's list on overflow).
  void MergeEdges(VectorId id, int level,
                  const std::vector<VectorId>& neighbors);
  void AddBackLink(VectorId nb, int level, VectorId id);

  std::size_t dim_;
  HnswParams params_;
  double level_mult_;
  Rng level_rng_;
  FloatMatrix data_;
  std::vector<Node> nodes_;
  /// Packed EntryState. Single source of truth for (entry point, max level).
  std::atomic<std::uint64_t> entry_state_;
  std::size_t num_deleted_ = 0;
  /// level_counts_[l] = live nodes whose top level is l. Lets Remove find
  /// the new max level without rescanning every node per tombstone.
  std::vector<std::size_t> level_counts_;
  // Behind unique_ptr: the pool's mutex would otherwise make the index
  // non-movable.
  mutable std::unique_ptr<VisitedPool> visited_pool_;
  std::unique_ptr<BuildLocks> build_locks_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_HNSW_H_
