#include "index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <queue>
#include <thread>

#include "common/thread_pool.h"

namespace ppanns {

namespace {

/// Min-heap comparator on distance (closest on top).
struct FartherFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.distance > b.distance || (a.distance == b.distance && a.id > b.id);
  }
};

}  // namespace

std::unique_ptr<HnswIndex::VisitedList> HnswIndex::VisitedPool::Acquire(
    std::size_t n) {
  std::unique_ptr<VisitedList> vl;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      vl = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!vl) vl = std::make_unique<VisitedList>();
  if (vl->tags.size() < n) vl->tags.resize(n, 0);
  // The epoch is NOT advanced here: every scan calls VisitedList::NextEpoch
  // at its own start, so the wrap-clearing reset always precedes the first
  // tag write of the epoch that uses it.
  return vl;
}

void HnswIndex::VisitedPool::Release(std::unique_ptr<VisitedList> vl) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(vl));
}

HnswIndex::HnswIndex(std::size_t dim, HnswParams params)
    : dim_(dim),
      params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(std::max<std::size_t>(params.m, 2)))),
      level_rng_(params.seed),
      data_(0, dim),
      entry_state_(PackEntry(EntryState{})),
      visited_pool_(std::make_unique<VisitedPool>()),
      build_locks_(std::make_unique<BuildLocks>()) {
  PPANNS_CHECK(dim > 0);
  PPANNS_CHECK(params.m >= 2);
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : dim_(other.dim_),
      params_(other.params_),
      level_mult_(other.level_mult_),
      level_rng_(std::move(other.level_rng_)),
      data_(std::move(other.data_)),
      nodes_(std::move(other.nodes_)),
      entry_state_(other.entry_state_.load(std::memory_order_relaxed)),
      num_deleted_(other.num_deleted_),
      level_counts_(std::move(other.level_counts_)),
      visited_pool_(std::move(other.visited_pool_)),
      build_locks_(std::move(other.build_locks_)) {}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
  if (this == &other) return *this;
  dim_ = other.dim_;
  params_ = other.params_;
  level_mult_ = other.level_mult_;
  level_rng_ = std::move(other.level_rng_);
  data_ = std::move(other.data_);
  nodes_ = std::move(other.nodes_);
  entry_state_.store(other.entry_state_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  num_deleted_ = other.num_deleted_;
  level_counts_ = std::move(other.level_counts_);
  visited_pool_ = std::move(other.visited_pool_);
  build_locks_ = std::move(other.build_locks_);
  return *this;
}

int HnswIndex::LevelFromRng(Rng& rng) const {
  const double u = rng.Uniform(0.0, 1.0);
  const double r = -std::log(std::max(u, 1e-300)) * level_mult_;
  return static_cast<int>(r);
}

void HnswIndex::CountLevel(int level) {
  if (static_cast<std::size_t>(level) >= level_counts_.size()) {
    level_counts_.resize(level + 1, 0);
  }
  ++level_counts_[level];
}

VectorId HnswIndex::GreedyClosest(const float* query, VectorId start,
                                  int level, std::size_t* dist_count) const {
  VectorId cur = start;
  float cur_dist = Distance(query, cur);
  if (dist_count != nullptr) ++*dist_count;
  const float* rows[kKernelBlock];
  float dists[kKernelBlock];
  bool improved = true;
  while (improved) {
    improved = false;
    // Score the whole adjacency through the batched kernel, then apply the
    // same sequential improve rule — identical hops, fewer pointer chases.
    const auto& adj = nodes_[cur].adjacency[level];
    for (std::size_t i = 0; i < adj.size(); i += kKernelBlock) {
      const std::size_t bn = std::min(kKernelBlock, adj.size() - i);
      for (std::size_t j = 0; j < bn; ++j) rows[j] = data_.row(adj[i + j]);
      L2Batch(query, rows, bn, dim_, dists);
      if (dist_count != nullptr) *dist_count += bn;
      for (std::size_t j = 0; j < bn; ++j) {
        if (dists[j] < cur_dist) {
          cur_dist = dists[j];
          cur = adj[i + j];
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query, VectorId entry,
                                             std::size_t ef, int level,
                                             VisitedList* visited,
                                             std::size_t* dist_count,
                                             SearchContext* ctx) const {
  // Fresh epoch first, tags second: the wrap reset can therefore never alias
  // a mark made earlier in the same insert or search.
  const std::uint32_t epoch = visited->NextEpoch();
  auto& tags = visited->tags;

  // candidates: min-heap by distance (expansion frontier);
  // results: max-heap of the ef best found so far.
  std::priority_queue<Neighbor, std::vector<Neighbor>, FartherFirst> candidates;
  std::priority_queue<Neighbor> results;

  const float entry_dist = Distance(query, entry);
  if (dist_count != nullptr) ++*dist_count;
  std::size_t scored = 1;  // nodes whose distance this scan computed
  // Nodes scored before this scan started (greedy descent / upper layers)
  // count against the query-wide node budget.
  const std::size_t prior = ctx != nullptr ? ctx->stats.nodes_visited : 0;
  CancelProbe probe(ctx);
  candidates.push(Neighbor{entry, entry_dist});
  tags[entry] = epoch;
  if (!nodes_[entry].deleted) results.push(Neighbor{entry, entry_dist});

  bool stopped = false;
  while (!candidates.empty() && !stopped) {
    const Neighbor cand = candidates.top();
    if (results.size() >= ef && cand.distance > results.top().distance) break;
    candidates.pop();

    // Blocked expansion: collect up to kKernelBlock unvisited neighbors
    // (prefetching their rows), score them in one batched kernel call, then
    // offer them to the heaps in the original adjacency order. The budget
    // probe keeps node granularity — collection slot bn answers exactly the
    // probe the unblocked loop would have asked for that node — so blocked
    // and unblocked scans stop on the same node and return identical ids.
    const auto& adj = nodes_[cand.id].adjacency[level];
    VectorId block[kKernelBlock];
    const float* rows[kKernelBlock];
    float dists[kKernelBlock];
    std::size_t ai = 0;
    while (ai < adj.size() && !stopped) {
      std::size_t bn = 0;
      for (; ai < adj.size() && bn < kKernelBlock; ++ai) {
        const VectorId nb = adj[ai];
        if (tags[nb] == epoch) continue;
        // Node granularity, not pop granularity: a pop can score up to 2m
        // neighbors, which would stretch the stride by that factor.
        if (probe.ShouldStop(prior + scored + bn)) {
          stopped = true;
          break;
        }
        tags[nb] = epoch;
        block[bn] = nb;
        rows[bn] = data_.row(nb);
        PrefetchRead(rows[bn]);
        ++bn;
      }
      if (bn == 0) continue;
      L2Batch(query, rows, bn, dim_, dists);
      if (dist_count != nullptr) *dist_count += bn;
      scored += bn;
      for (std::size_t j = 0; j < bn; ++j) {
        const float d = dists[j];
        const VectorId nb = block[j];
        if (results.size() < ef || d < results.top().distance) {
          candidates.push(Neighbor{nb, d});
          // Deleted nodes stay traversable (their edges hold the graph
          // together mid-repair) but are not returned.
          if (!nodes_[nb].deleted) {
            results.push(Neighbor{nb, d});
            if (results.size() > ef) results.pop();
          }
        }
      }
    }
  }

  if (ctx != nullptr) {
    ctx->stats.nodes_visited += scored;
    ctx->stats.distance_computations += scored;
  }
  std::vector<Neighbor> out(results.size());
  for (std::size_t i = results.size(); i > 0; --i) {
    out[i - 1] = results.top();
    results.pop();
  }
  return out;  // ascending by distance
}

std::vector<VectorId> HnswIndex::SelectNeighbors(
    const float* base, std::vector<Neighbor> candidates, std::size_t m) const {
  std::sort(candidates.begin(), candidates.end());
  std::vector<VectorId> selected;
  selected.reserve(m);
  // Algorithm 4 heuristic: keep c only if it is closer to the base than to
  // every already-selected neighbor; this spreads edges across directions.
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    bool diverse = true;
    for (VectorId s : selected) {
      if (SquaredL2(data_.row(c.id), data_.row(s), dim_) < c.distance) {
        diverse = false;
        break;
      }
    }
    if (diverse) selected.push_back(c.id);
  }
  // Fill remaining slots with the closest rejected candidates
  // (keepPrunedConnections of the HNSW paper).
  if (selected.size() < m) {
    for (const Neighbor& c : candidates) {
      if (selected.size() >= m) break;
      if (std::find(selected.begin(), selected.end(), c.id) == selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

void HnswIndex::Connect(VectorId id, int level,
                        const std::vector<VectorId>& neighbors) {
  const std::size_t max_degree = (level == 0) ? params_.max_m0() : params_.m;
  nodes_[id].adjacency[level] = neighbors;

  for (VectorId nb : neighbors) {
    auto& back = nodes_[nb].adjacency[level];
    if (std::find(back.begin(), back.end(), id) != back.end()) continue;
    if (back.size() < max_degree) {
      back.push_back(id);
      continue;
    }
    // Overflow: re-select the neighbor's adjacency with the heuristic over
    // existing edges + the new node.
    std::vector<Neighbor> cands;
    cands.reserve(back.size() + 1);
    const float* nb_vec = data_.row(nb);
    for (VectorId existing : back) {
      cands.push_back(Neighbor{existing, SquaredL2(nb_vec, data_.row(existing), dim_)});
    }
    cands.push_back(Neighbor{id, SquaredL2(nb_vec, data_.row(id), dim_)});
    back = SelectNeighbors(nb_vec, std::move(cands), max_degree);
  }
}

VectorId HnswIndex::Add(const float* v) {
  const VectorId id = data_.Append(v);
  const int level = RandomLevel();
  Node node;
  node.level = level;
  node.adjacency.resize(level + 1);
  nodes_.push_back(std::move(node));
  CountLevel(level);

  const EntryState state = LoadEntry();
  if (state.entry == kInvalidVectorId) {
    StoreEntry(EntryState{id, level});
    return id;
  }

  const float* query = data_.row(id);
  VectorId cur = state.entry;

  // Greedy descent through layers above the new node's level.
  for (int l = state.level; l > level; --l) {
    cur = GreedyClosest(query, cur, l);
  }

  // Beam search + heuristic linking at each level the node occupies. Each
  // SearchLayer call advances the visited list to its own fresh epoch.
  auto visited = visited_pool_->Acquire(nodes_.size());
  for (int l = std::min(level, state.level); l >= 0; --l) {
    std::vector<Neighbor> cands =
        SearchLayer(query, cur, params_.ef_construction, l, visited.get());
    if (cands.empty()) continue;
    cur = cands.front().id;  // closest found feeds the next level down
    const std::size_t max_degree = (l == 0) ? params_.max_m0() : params_.m;
    Connect(id, l, SelectNeighbors(query, std::move(cands),
                                   std::min(params_.m, max_degree)));
  }
  visited_pool_->Release(std::move(visited));

  if (level > state.level) {
    StoreEntry(EntryState{id, level});
  }
  return id;
}

void HnswIndex::AddBatch(const FloatMatrix& batch) {
  PPANNS_CHECK(batch.dim() == dim_);
  for (std::size_t i = 0; i < batch.size(); ++i) Add(batch.row(i));
}

void HnswIndex::AddBatchParallel(RowView batch, ThreadPool* pool,
                                 std::size_t num_threads) {
  PPANNS_CHECK(batch.dim() == dim_);
  const std::size_t n = batch.size();
  if (n == 0) return;
  std::size_t threads = num_threads;
  if (threads == 0) {
    threads = pool != nullptr ? std::max<std::size_t>(pool->num_threads(), 1) : 1;
  }
  threads = std::min(threads, n);

  // Pre-phase (sequential): reserve every slot up front so the build phases
  // never resize data_/nodes_ (the rows and the level/deleted fields are
  // immutable while workers run). One level stream, seeded params.seed and
  // mixed with the batch's base id so successive batches draw fresh
  // sequences, assigns every node's level regardless of the thread count —
  // half of the byte-reproducibility contract (the wave schedule below is
  // the other half). On an empty index the mix is zero and the stream
  // reproduces the sequential AddBatch skeleton exactly.
  const VectorId base = static_cast<VectorId>(nodes_.size());
  std::vector<int> levels(n);
  const std::uint64_t batch_mix =
      0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(base);
  {
    Rng level_stream(params_.seed ^ batch_mix);
    for (std::size_t i = 0; i < n; ++i) levels[i] = LevelFromRng(level_stream);
  }
  // Advance the sequential level stream too: a later incremental Add must
  // draw fresh levels, not replay this batch's sequence.
  level_rng_ = Rng(level_rng_.NextUint64() ^ batch_mix ^ n);
  nodes_.reserve(nodes_.size() + n);
  data_.data().reserve((static_cast<std::size_t>(base) + n) * dim_);
  for (std::size_t i = 0; i < n; ++i) {
    data_.Append(batch.row(i));
    Node node;
    node.level = levels[i];
    node.adjacency.resize(levels[i] + 1);
    nodes_.push_back(std::move(node));
    CountLevel(levels[i]);
  }

  // An empty index takes its first element as the seed entry point; it is
  // then fully inserted (there are no peers to link it to yet).
  VectorId first = base;
  if (LoadEntry().entry == kInvalidVectorId) {
    StoreEntry(EntryState{base, levels[0]});
    ++first;
  }

  if (threads <= 1) {
    // Sequential path: one-at-a-time insertion, bit-identical to AddBatch on
    // an empty index (each insert sees every previous one).
    for (std::size_t i = first - base; i < n; ++i) {
      InsertConcurrent(base + static_cast<VectorId>(i));
    }
    return;
  }

  // Wave-barrier schedule, independent of the thread count: each wave's
  // items run a read-only search over the graph as committed at the wave
  // start (same-wave peers are still edgeless, hence unreachable), planning
  // per-level neighbor selections that depend only on that frozen snapshot;
  // the plans then commit sequentially in ascending id order. Any T >= 2
  // therefore produces identical bytes. Waves grow with the committed count
  // (each insert still sees >= 2/3 of the graph a sequential insert would),
  // so recall stays within noise of the sequential build while the search
  // phase — the bulk of construction cost — parallelizes fully.
  struct Planned {
    VectorId id = kInvalidVectorId;
    int top = -1;  // min(node level, entry level at wave start)
    std::vector<std::vector<VectorId>> chosen;  // per level 0..top
  };
  std::size_t next = first - base;
  while (next < n) {
    std::size_t committed = static_cast<std::size_t>(base) + next;
    const std::size_t wave =
        std::min(n - next, std::max<std::size_t>(1, committed / 2));
    const EntryState state = LoadEntry();
    std::vector<Planned> plan(wave);
    auto plan_item = [&](std::size_t w) {
      const VectorId id = base + static_cast<VectorId>(next + w);
      Planned& p = plan[w];
      p.id = id;
      const int level = nodes_[id].level;
      p.top = std::min(level, state.level);
      p.chosen.resize(p.top + 1);
      const float* query = data_.row(id);
      VectorId cur = state.entry;
      for (int l = state.level; l > level; --l) {
        cur = GreedyClosest(query, cur, l);
      }
      auto visited = visited_pool_->Acquire(nodes_.size());
      for (int l = p.top; l >= 0; --l) {
        std::vector<Neighbor> cands =
            SearchLayer(query, cur, params_.ef_construction, l, visited.get());
        if (cands.empty()) continue;
        cur = cands.front().id;
        const std::size_t max_degree = (l == 0) ? params_.max_m0() : params_.m;
        p.chosen[l] = SelectNeighbors(query, std::move(cands),
                                      std::min(params_.m, max_degree));
      }
      visited_pool_->Release(std::move(visited));
    };

    const std::size_t wave_threads = std::min(threads, wave);
    auto run_span = [&plan_item, wave, wave_threads](std::size_t t) {
      for (std::size_t w = t; w < wave; w += wave_threads) plan_item(w);
    };
    if (wave_threads <= 1) {
      run_span(0);
    } else if (pool != nullptr && !pool->InWorker() && pool->num_threads() > 1) {
      std::vector<std::future<void>> futures;
      futures.reserve(wave_threads);
      for (std::size_t t = 0; t < wave_threads; ++t) {
        futures.push_back(pool->Async([&run_span, t] { run_span(t); }));
      }
      for (auto& f : futures) f.get();
    } else {
      // Inside a pool worker (the sharded build) or without a usable pool:
      // dedicated threads can never deadlock behind blocked shard tasks.
      std::vector<std::thread> workers;
      workers.reserve(wave_threads - 1);
      for (std::size_t t = 1; t < wave_threads; ++t) {
        workers.emplace_back(run_span, t);
      }
      run_span(0);
      for (auto& w : workers) w.join();
    }

    // Commit phase (sequential, ascending id): link each planned node and
    // promote the entry point as levels rise. Back-links from Connect only
    // touch frozen-graph nodes, so a same-wave peer's adjacency is never
    // read before its own commit.
    for (Planned& p : plan) {
      for (int l = p.top; l >= 0; --l) {
        if (!p.chosen[l].empty()) Connect(p.id, l, p.chosen[l]);
      }
      const int level = nodes_[p.id].level;
      if (level > LoadEntry().level) StoreEntry(EntryState{p.id, level});
    }
    next += wave;
  }
}

void HnswIndex::InsertConcurrent(VectorId id) {
  const int level = nodes_[id].level;
  const float* query = data_.row(id);
  const EntryState state = LoadEntry();
  PPANNS_CHECK(state.entry != kInvalidVectorId);

  std::vector<VectorId> scratch;  // adjacency snapshots, reused across levels
  VectorId cur = state.entry;
  for (int l = state.level; l > level; --l) {
    cur = GreedyClosestBuild(query, cur, l, &scratch);
  }

  auto visited = visited_pool_->Acquire(nodes_.size());
  for (int l = std::min(level, state.level); l >= 0; --l) {
    std::vector<Neighbor> cands = SearchLayerBuild(
        query, cur, params_.ef_construction, l, id, visited.get(), &scratch);
    if (cands.empty()) continue;
    cur = cands.front().id;
    const std::size_t max_degree = (l == 0) ? params_.max_m0() : params_.m;
    ConnectBuild(id, l, SelectNeighbors(query, std::move(cands),
                                        std::min(params_.m, max_degree)));
  }
  visited_pool_->Release(std::move(visited));

  // Level promotion is the only globally-serialized step: re-check under the
  // small lock so racing promotions keep the highest node.
  if (level > state.level) {
    std::lock_guard<std::mutex> lock(build_locks_->promote_mu);
    if (level > LoadEntry().level) StoreEntry(EntryState{id, level});
  }
}

VectorId HnswIndex::GreedyClosestBuild(const float* query, VectorId start,
                                       int level,
                                       std::vector<VectorId>* scratch) {
  VectorId cur = start;
  float cur_dist = Distance(query, cur);
  bool improved = true;
  while (improved) {
    improved = false;
    {
      std::lock_guard<std::mutex> lock(build_locks_->ForNode(cur));
      *scratch = nodes_[cur].adjacency[level];
    }
    const float* rows[kKernelBlock];
    float dists[kKernelBlock];
    for (std::size_t i = 0; i < scratch->size(); i += kKernelBlock) {
      const std::size_t bn = std::min(kKernelBlock, scratch->size() - i);
      for (std::size_t j = 0; j < bn; ++j) {
        rows[j] = data_.row((*scratch)[i + j]);
      }
      L2Batch(query, rows, bn, dim_, dists);
      for (std::size_t j = 0; j < bn; ++j) {
        if (dists[j] < cur_dist) {
          cur_dist = dists[j];
          cur = (*scratch)[i + j];
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayerBuild(
    const float* query, VectorId entry, std::size_t ef, int level,
    VectorId self, VisitedList* visited, std::vector<VectorId>* scratch) {
  const std::uint32_t epoch = visited->NextEpoch();
  auto& tags = visited->tags;

  std::priority_queue<Neighbor, std::vector<Neighbor>, FartherFirst> candidates;
  std::priority_queue<Neighbor> results;

  // `self` is the node being inserted. Unlike the sequential build it can
  // already be reachable here (a concurrent insert that saw its wired upper
  // levels may have linked to it), so it is kept traversable but excluded
  // from results — otherwise SelectNeighbors would pick the distance-0 self
  // match and create a permanent self-loop.
  const float entry_dist = Distance(query, entry);
  candidates.push(Neighbor{entry, entry_dist});
  tags[entry] = epoch;
  if (entry != self && !nodes_[entry].deleted) {
    results.push(Neighbor{entry, entry_dist});
  }

  while (!candidates.empty()) {
    const Neighbor cand = candidates.top();
    if (results.size() >= ef && cand.distance > results.top().distance) break;
    candidates.pop();

    // Snapshot under the stripe lock, score outside it: distance work never
    // serializes other inserts touching the same stripe.
    {
      std::lock_guard<std::mutex> lock(build_locks_->ForNode(cand.id));
      *scratch = nodes_[cand.id].adjacency[level];
    }
    // Same blocked expansion as the query-path SearchLayer (no budget probe
    // on the build path): batch-score unvisited snapshot entries, then offer
    // in snapshot order.
    VectorId block[kKernelBlock];
    const float* rows[kKernelBlock];
    float dists[kKernelBlock];
    std::size_t si = 0;
    while (si < scratch->size()) {
      std::size_t bn = 0;
      for (; si < scratch->size() && bn < kKernelBlock; ++si) {
        const VectorId nb = (*scratch)[si];
        if (tags[nb] == epoch) continue;
        tags[nb] = epoch;
        block[bn] = nb;
        rows[bn] = data_.row(nb);
        PrefetchRead(rows[bn]);
        ++bn;
      }
      if (bn == 0) continue;
      L2Batch(query, rows, bn, dim_, dists);
      for (std::size_t j = 0; j < bn; ++j) {
        const float d = dists[j];
        const VectorId nb = block[j];
        if (results.size() < ef || d < results.top().distance) {
          candidates.push(Neighbor{nb, d});
          if (nb != self && !nodes_[nb].deleted) {
            results.push(Neighbor{nb, d});
            if (results.size() > ef) results.pop();
          }
        }
      }
    }
  }

  std::vector<Neighbor> out(results.size());
  for (std::size_t i = results.size(); i > 0; --i) {
    out[i - 1] = results.top();
    results.pop();
  }
  return out;
}

void HnswIndex::ConnectBuild(VectorId id, int level,
                             const std::vector<VectorId>& neighbors) {
  {
    // Once `id`'s upper levels are wired, a concurrent insert can reach it
    // as its next-level search entry and back-link into this (still empty)
    // lower level before we get here — merge rather than assign wholesale so
    // those edges survive. (Sequential/T=1 builds always hit the empty
    // fast path, preserving bit-equality with AddBatch.)
    std::lock_guard<std::mutex> lock(build_locks_->ForNode(id));
    MergeEdges(id, level, neighbors);
  }
  // Each back-link runs under nb's stripe lock (it reads only immutable
  // vector rows besides nb's list, and takes no other lock, so the
  // single-lock-at-a-time rule holds).
  for (VectorId nb : neighbors) {
    std::lock_guard<std::mutex> lock(build_locks_->ForNode(nb));
    AddBackLink(nb, level, id);
  }
}

void HnswIndex::MergeEdges(VectorId id, int level,
                           const std::vector<VectorId>& neighbors) {
  const std::size_t max_degree = (level == 0) ? params_.max_m0() : params_.m;
  auto& own = nodes_[id].adjacency[level];
  if (own.empty()) {
    own = neighbors;
    return;
  }
  for (VectorId nb : neighbors) {
    if (std::find(own.begin(), own.end(), nb) == own.end()) own.push_back(nb);
  }
  if (own.size() <= max_degree) return;
  std::vector<Neighbor> cands;
  cands.reserve(own.size());
  const float* vec = data_.row(id);
  for (VectorId existing : own) {
    cands.push_back(Neighbor{existing, SquaredL2(vec, data_.row(existing), dim_)});
  }
  own = SelectNeighbors(vec, std::move(cands), max_degree);
}

void HnswIndex::AddBackLink(VectorId nb, int level, VectorId id) {
  const std::size_t max_degree = (level == 0) ? params_.max_m0() : params_.m;
  auto& back = nodes_[nb].adjacency[level];
  if (std::find(back.begin(), back.end(), id) != back.end()) return;
  if (back.size() < max_degree) {
    back.push_back(id);
    return;
  }
  std::vector<Neighbor> cands;
  cands.reserve(back.size() + 1);
  const float* nb_vec = data_.row(nb);
  for (VectorId existing : back) {
    cands.push_back(Neighbor{existing, SquaredL2(nb_vec, data_.row(existing), dim_)});
  }
  cands.push_back(Neighbor{id, SquaredL2(nb_vec, data_.row(id), dim_)});
  back = SelectNeighbors(nb_vec, std::move(cands), max_degree);
}

std::vector<Neighbor> HnswIndex::Search(const float* query, std::size_t k,
                                        std::size_t ef_search,
                                        std::size_t* visited_out,
                                        SearchContext* ctx) const {
  if (visited_out != nullptr) *visited_out = 0;
  const EntryState state = LoadEntry();
  if (state.entry == kInvalidVectorId) return {};
  const std::size_t ef = std::max(ef_search, k);

  // Greedy descent through the upper layers. Its hops are few (O(log n)),
  // so the context is only charged for them, not probed.
  std::size_t descent = 0;
  VectorId cur = state.entry;
  for (int l = state.level; l > 0; --l) {
    cur = GreedyClosest(query, cur, l, &descent);
  }
  if (visited_out != nullptr) *visited_out += descent;
  if (ctx != nullptr) {
    ctx->stats.nodes_visited += descent;
    ctx->stats.distance_computations += descent;
  }
  auto visited = visited_pool_->Acquire(nodes_.size());
  std::vector<Neighbor> results =
      SearchLayer(query, cur, ef, 0, visited.get(), visited_out, ctx);
  visited_pool_->Release(std::move(visited));
  if (results.size() > k) results.resize(k);
  return results;
}

Status HnswIndex::Remove(VectorId id) {
  if (id >= nodes_.size()) return Status::InvalidArgument("HNSW: bad id");
  if (nodes_[id].deleted) return Status::NotFound("HNSW: already deleted");

  nodes_[id].deleted = true;
  ++num_deleted_;
  PPANNS_CHECK(static_cast<std::size_t>(nodes_[id].level) < level_counts_.size() &&
               level_counts_[nodes_[id].level] > 0);
  --level_counts_[nodes_[id].level];

  // Collect in-neighbors per level and drop their edge to `id` (Section V-D:
  // deletion is repaired server-side by reinserting the affected
  // in-neighbors' edge sets). The unlink scan partitions the nodes across
  // the pool — each node is touched by exactly one chunk and nothing else
  // mutates yet, so this phase needs no locks.
  struct RepairItem {
    VectorId v;
    int level;
  };
  std::vector<RepairItem> repairs;
  std::mutex repairs_mu;
  ThreadPool::Global().ParallelFor(
      nodes_.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<RepairItem> local;
        for (std::size_t v = begin; v < end; ++v) {
          if (v == id || nodes_[v].deleted) continue;
          Node& node = nodes_[v];
          for (int l = 0; l <= node.level; ++l) {
            auto& adj = node.adjacency[l];
            auto it = std::find(adj.begin(), adj.end(), id);
            if (it == adj.end()) continue;
            adj.erase(it);
            local.push_back(RepairItem{static_cast<VectorId>(v), l});
          }
        }
        if (!local.empty()) {
          std::lock_guard<std::mutex> lock(repairs_mu);
          repairs.insert(repairs.end(), local.begin(), local.end());
        }
      });
  // Chunks append in finish order; the commit order must not depend on it.
  std::sort(repairs.begin(), repairs.end(),
            [](const RepairItem& a, const RepairItem& b) {
              return a.v != b.v ? a.v < b.v : a.level < b.level;
            });

  // Re-link the orphaned in-neighbors in three passes, each free of the
  // thread schedule, so replicas applying the same delete end with
  // identical bytes at any pool size. (1) Plan every repair's neighbor
  // selection in parallel against the graph as the unlink left it — nothing
  // writes until the plans are done, so a plan depends on that frozen graph
  // alone. (2) Merge each plan into its own (v, level) list; the lists are
  // disjoint, so these run in parallel. (3) Add the back-links, grouped by
  // target list and applied within a group in (v, level) order; groups are
  // disjoint, so they run in parallel too. `id`'s own out-edges stay intact
  // until every repair is done: if it was the entry point, repair descents
  // still route through it (deleted nodes are traversable, never returned).
  std::vector<std::vector<VectorId>> plans(repairs.size());
  ThreadPool::Global().ParallelFor(
      repairs.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<VectorId> scratch;
        auto visited = visited_pool_->Acquire(nodes_.size());
        for (std::size_t i = begin; i < end; ++i) {
          plans[i] = PlanRepair(repairs[i].v, repairs[i].level, visited.get(),
                                &scratch);
        }
        visited_pool_->Release(std::move(visited));
      });
  ThreadPool::Global().ParallelFor(
      repairs.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (!plans[i].empty()) {
            MergeEdges(repairs[i].v, repairs[i].level, plans[i]);
          }
        }
      });
  struct BackLink {
    VectorId target;
    int level;
    VectorId from;
  };
  std::vector<BackLink> links;
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    for (VectorId nb : plans[i]) {
      links.push_back(BackLink{nb, repairs[i].level, repairs[i].v});
    }
  }
  std::sort(links.begin(), links.end(),
            [](const BackLink& a, const BackLink& b) {
              if (a.target != b.target) return a.target < b.target;
              return a.level != b.level ? a.level < b.level : a.from < b.from;
            });
  std::vector<std::size_t> group_starts;
  for (std::size_t j = 0; j < links.size(); ++j) {
    if (j == 0 || links[j].target != links[j - 1].target ||
        links[j].level != links[j - 1].level) {
      group_starts.push_back(j);
    }
  }
  group_starts.push_back(links.size());
  ThreadPool::Global().ParallelFor(
      group_starts.size() - 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          for (std::size_t j = group_starts[g]; j < group_starts[g + 1]; ++j) {
            AddBackLink(links[j].target, links[j].level, links[j].from);
          }
        }
      });
  nodes_[id].adjacency.assign(nodes_[id].adjacency.size(), {});

  // Re-seat the entry point if it was deleted: the per-level live counts
  // give the new max level in O(levels) (no full rescan per tombstone), and
  // the scan for a representative stops at the first live node on it.
  if (LoadEntry().entry == id) {
    int new_max = -1;
    for (int l = static_cast<int>(level_counts_.size()) - 1; l >= 0; --l) {
      if (level_counts_[l] > 0) {
        new_max = l;
        break;
      }
    }
    VectorId new_entry = kInvalidVectorId;
    if (new_max >= 0) {
      for (std::size_t v = 0; v < nodes_.size(); ++v) {
        if (!nodes_[v].deleted && nodes_[v].level == new_max) {
          new_entry = static_cast<VectorId>(v);
          break;
        }
      }
      PPANNS_CHECK(new_entry != kInvalidVectorId);
    }
    StoreEntry(EntryState{new_entry, new_max});
  }
  return Status::OK();
}

std::vector<VectorId> HnswIndex::PlanRepair(VectorId v, int level,
                                            VisitedList* visited,
                                            std::vector<VectorId>* scratch) {
  // Re-run a neighborhood search from v and re-select its adjacency at
  // `level` with the heuristic (skipping v itself and deleted nodes; the
  // build-path search excludes `self` from results already).
  const EntryState state = LoadEntry();
  if (state.entry == kInvalidVectorId || state.entry == v) return {};
  const float* vec = data_.row(v);
  VectorId cur = state.entry;
  for (int l = state.level; l > level; --l) {
    cur = GreedyClosestBuild(vec, cur, l, scratch);
  }

  std::vector<Neighbor> cands = SearchLayerBuild(
      vec, cur, params_.ef_construction, level, v, visited, scratch);
  if (cands.empty()) return {};

  const std::size_t max_degree = (level == 0) ? params_.max_m0() : params_.m;
  // Merge with surviving adjacency so repair never loses good edges.
  for (VectorId existing : nodes_[v].adjacency[level]) {
    cands.push_back(
        Neighbor{existing, SquaredL2(vec, data_.row(existing), dim_)});
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end(),
                          [](const Neighbor& a, const Neighbor& b) {
                            return a.id == b.id;
                          }),
              cands.end());
  return SelectNeighbors(vec, std::move(cands), max_degree);
}

bool HnswIndex::IsDeleted(VectorId id) const {
  PPANNS_CHECK(id < nodes_.size());
  return nodes_[id].deleted;
}

const std::vector<VectorId>& HnswIndex::NeighborsAt(VectorId id,
                                                    std::size_t level) const {
  PPANNS_CHECK(id < nodes_.size());
  PPANNS_CHECK(static_cast<int>(level) <= nodes_[id].level);
  return nodes_[id].adjacency[level];
}

int HnswIndex::LevelOf(VectorId id) const {
  PPANNS_CHECK(id < nodes_.size());
  return nodes_[id].level;
}

HnswStats HnswIndex::ComputeStats() const {
  HnswStats s;
  s.num_deleted = num_deleted_;
  s.max_level = LoadEntry().level;
  for (const Node& node : nodes_) {
    if (node.deleted) continue;
    ++s.num_nodes;
    s.total_edges_level0 += node.adjacency[0].size();
  }
  if (s.num_nodes > 0) {
    s.avg_out_degree_level0 =
        static_cast<double>(s.total_edges_level0) / s.num_nodes;
  }
  return s;
}

void HnswIndex::PrimeVisitedEpochForTest(std::uint32_t epoch) {
  auto vl = visited_pool_->Acquire(nodes_.size());
  vl->epoch = epoch;  // stale tags are left in place on purpose
  visited_pool_->Release(std::move(vl));
}

void HnswIndex::Serialize(BinaryWriter* out) const {
  const EntryState state = LoadEntry();
  out->Put<std::uint32_t>(0x484E5357);  // "HNSW"
  out->Put<std::uint32_t>(1);           // version
  out->Put<std::uint64_t>(dim_);
  out->Put<std::uint64_t>(params_.m);
  out->Put<std::uint64_t>(params_.ef_construction);
  out->Put<std::uint64_t>(params_.seed);
  out->Put<std::uint32_t>(state.entry);
  out->Put<std::int32_t>(state.level);
  out->Put<std::uint64_t>(num_deleted_);
  out->PutVector(data_.data());
  out->Put<std::uint64_t>(nodes_.size());
  for (const Node& node : nodes_) {
    out->Put<std::int32_t>(node.level);
    out->Put<std::uint8_t>(node.deleted ? 1 : 0);
    for (int l = 0; l <= node.level; ++l) out->PutVector(node.adjacency[l]);
  }
}

Result<HnswIndex> HnswIndex::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != 0x484E5357) return Status::IOError("HNSW: bad magic");
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != 1) return Status::IOError("HNSW: unsupported version");

  std::uint64_t dim = 0;
  HnswParams params;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  std::uint64_t m = 0, efc = 0, seed = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&m));
  PPANNS_RETURN_IF_ERROR(in->Get(&efc));
  PPANNS_RETURN_IF_ERROR(in->Get(&seed));
  params.m = m;
  params.ef_construction = efc;
  params.seed = seed;

  HnswIndex index(dim, params);
  std::uint32_t entry = kInvalidVectorId;
  PPANNS_RETURN_IF_ERROR(in->Get(&entry));
  std::int32_t max_level = -1;
  PPANNS_RETURN_IF_ERROR(in->Get(&max_level));
  std::uint64_t num_deleted = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&num_deleted));
  index.num_deleted_ = num_deleted;
  index.StoreEntry(EntryState{entry, max_level});

  std::vector<float> raw;
  PPANNS_RETURN_IF_ERROR(in->GetVector(&raw));
  if (raw.size() % dim != 0) return Status::IOError("HNSW: bad data size");
  const std::size_t n = raw.size() / dim;
  index.data_ = FloatMatrix(n, dim);
  index.data_.data() = std::move(raw);

  std::uint64_t num_nodes = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&num_nodes));
  if (num_nodes != n) return Status::IOError("HNSW: node/data mismatch");
  index.nodes_.resize(num_nodes);
  for (auto& node : index.nodes_) {
    PPANNS_RETURN_IF_ERROR(in->Get(&node.level));
    std::uint8_t deleted = 0;
    PPANNS_RETURN_IF_ERROR(in->Get(&deleted));
    node.deleted = deleted != 0;
    if (node.level < 0 || node.level > 64) {
      return Status::IOError("HNSW: bad level");
    }
    node.adjacency.resize(node.level + 1);
    for (int l = 0; l <= node.level; ++l) {
      PPANNS_RETURN_IF_ERROR(in->GetVector(&node.adjacency[l]));
    }
    if (!node.deleted) index.CountLevel(node.level);
  }
  return index;
}

}  // namespace ppanns
