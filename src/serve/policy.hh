/**
 * @file
 * Pluggable batch-ordering policies for the query pipeline.
 *
 * A policy decides the ORDER of the requests inside one formed batch —
 * never its membership, timing, or accounting, which stay with the
 * FIFO batcher (serve/batcher) and the pipeline (serve/pipeline). That
 * split keeps every queueing decision bit-identical across policies
 * while letting a policy reshape what the kernel sees:
 * batch emission (shard/shard_index emitShardBatchTrace) assigns
 * queries to warps in exactly the order given, so sorting a batch by
 * a spatial key packs nearby queries into the same warp and their
 * traversals onto the same index nodes (RTNN-style query coherence;
 * the paper's HSU warp buffer then merges their node fetches).
 */

#ifndef HSU_SERVE_POLICY_HH
#define HSU_SERVE_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrivals.hh"

namespace hsu::serve
{

/** Batch-ordering policies. */
enum class BatchPolicyKind : std::uint8_t
{
    /** Arrival order — the reference policy; reports are pinned
     *  bit-identical to the pre-pipeline server. */
    Fifo,
    /** Sort by the query's coherence key (Morton code of point
     *  queries, lookup key of B+tree queries; see
     *  serveQueryCoherenceKeys), stream id as the tiebreak. */
    Coherent,
};

std::string toString(BatchPolicyKind kind);

/** Parse "fifo" / "coherent"; fatal on anything else. */
BatchPolicyKind parseBatchPolicy(const std::string &name);

/**
 * Reorder @p batch in place under @p kind. Membership is untouched;
 * Fifo is a no-op. Coherent sorts by
 * (serveQueryCoherenceKeys(dataset, pool_size)[queryId], request id) —
 * the id tiebreak keeps the order a pure function of batch contents,
 * so service times stay deterministic across HSU_JOBS.
 */
void orderBatch(BatchPolicyKind kind, DatasetId dataset,
                std::size_t pool_size, std::vector<Request> &batch);

} // namespace hsu::serve

#endif // HSU_SERVE_POLICY_HH
