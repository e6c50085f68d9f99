#include "core/cloud_server.h"

#include <algorithm>

#include "common/timer.h"
#include "core/comparison_heap.h"

namespace ppanns {

SearchResult RefineCandidates(const QueryToken& token, std::size_t k,
                              const SearchSettings& settings,
                              std::span<const VectorId> ids,
                              std::span<const DceCiphertext* const> ciphertexts,
                              SearchContext* ctx) {
  SearchResult result;
  result.counters.filter_candidates = ids.size();
  if (!settings.refine) {
    // Filter-only variant: the SAP ranking is final (approximate).
    const std::size_t out_k = std::min(k, ids.size());
    result.ids.assign(ids.begin(), ids.begin() + out_k);
    FillCounters(&result.counters, *ctx);
    return result;
  }

  // The heap holds candidate positions and only ever asks the oracle, so it
  // makes the same comparisons — and keeps the same candidates — as a heap
  // over the ids themselves.
  Timer refine_timer;
  std::size_t* comparisons = &result.counters.dce_comparisons;
  ComparisonHeap heap(
      k, [&token, ciphertexts, comparisons](VectorId a, VectorId b) {
        ++*comparisons;
        return DceScheme::Closer(*ciphertexts[a], *ciphertexts[b],
                                 token.trapdoor);
      });
  // Blocked offers: gather a block of candidates and prefetch their DCE
  // ciphertext payloads, then run the comparison-heavy offers over warm
  // lines. Offers apply in candidate order, so ids match the unblocked loop;
  // the abandon probe keeps candidate granularity (DCE comparisons are
  // orders of magnitude costlier than a row scan).
  VectorId block[kKernelBlock];
  std::size_t ci = 0;
  bool abandoned = false;
  while (ci < ids.size() && !abandoned) {
    std::size_t bn = 0;
    for (; ci < ids.size() && bn < kKernelBlock; ++ci) {
      if (ctx->ShouldAbandon()) {
        abandoned = true;
        break;
      }
      if (ciphertexts[ci] == nullptr) continue;
      PrefetchRead(ciphertexts[ci]->data.data());
      block[bn++] = static_cast<VectorId>(ci);
    }
    heap.OfferBatch(block, bn);
  }
  for (VectorId pos : heap.ExtractSorted()) result.ids.push_back(ids[pos]);
  result.counters.refine_seconds = refine_timer.ElapsedSeconds();
  ctx->stats.dce_comparisons += result.counters.dce_comparisons;
  FillCounters(&result.counters, *ctx);
  return result;
}

SearchResult CloudServer::Search(const QueryToken& token, std::size_t k,
                                 const SearchSettings& settings,
                                 SearchContext* ctx) const {
  if (k == 0 || db_.index->size() == 0) return SearchResult{};

  // Run with a local context when the caller passed none, so the result
  // counters always report what the query cost.
  SearchContext local;
  if (ctx == nullptr) ctx = &local;
  ApplyContextSettings(ctx, settings);

  // ---- Filter phase (Algorithm 2, line 1): k'-ANNS over SAP ciphertexts on
  // the configured backend; distances are computed on the encrypted vectors
  // at plaintext cost. The backend probes `ctx` from its hot loop.
  Timer filter_timer;
  const std::vector<Neighbor> candidates = db_.index->Search(
      token.sap.data(), ResolveKPrime(settings, k), settings.ef_search, ctx);
  const double filter_seconds = filter_timer.ElapsedSeconds();

  // ---- Refine phase over this database's own ciphertext array.
  std::vector<VectorId> ids;
  std::vector<const DceCiphertext*> ciphertexts;
  ids.reserve(candidates.size());
  if (settings.refine) ciphertexts.reserve(candidates.size());
  for (const Neighbor& nb : candidates) {
    ids.push_back(nb.id);
    if (settings.refine) ciphertexts.push_back(&db_.dce[nb.id]);
  }
  SearchResult result =
      RefineCandidates(token, k, settings, ids, ciphertexts, ctx);
  result.counters.filter_seconds = filter_seconds;
  return result;
}

VectorId CloudServer::Insert(const EncryptedVector& v) {
  PPANNS_CHECK(v.sap.size() == db_.index->dim());
  const VectorId id = db_.index->Add(v.sap.data());
  PPANNS_CHECK(id == db_.dce.size());
  db_.dce.push_back(v.dce);
  return id;
}

Status CloudServer::Delete(VectorId id) {
  PPANNS_RETURN_IF_ERROR(db_.index->Remove(id));
  // Blank the DCE ciphertext: the server drops the deleted payload while
  // keeping ids stable.
  db_.dce[id].data.clear();
  db_.dce[id].data.shrink_to_fit();
  return Status::OK();
}

std::size_t CloudServer::StorageBytes() const {
  // SAP layer + index structure + DCE layer.
  return db_.index->StorageBytes() + db_.DceBytes();
}

}  // namespace ppanns
