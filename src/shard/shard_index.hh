/**
 * @file
 * Per-shard sub-indexes for sharded multi-GPU serving.
 *
 * Each simulated GPU in a cluster owns one slice of the base data
 * (shard/partition) and serves queries from an index built over only
 * that slice. This layer builds and memoizes those sub-indexes through
 * the same build-once discipline (common/memo) as the full-dataset
 * assets in search/runner, keyed by (dataset, policy, shard count,
 * shard), so replicas of a shard — and the HSU/Baseline sides of a
 * sweep — share one build.
 *
 * Semantics per family:
 *  - GGNN:   hierarchical graph over the shard's points.
 *  - FLANN:  k-d tree over the shard's points (leaf size 16, matching
 *            the full-index build in search/runner).
 *  - BVH-NN: LBVH over the shard's points with the *full-dataset*
 *            search radius, so the union of per-shard answers equals
 *            the unsharded answer set.
 *  - B+tree: sub-tree over the shard's (key, global rank) pairs; the
 *            stored values are ranks in the full sorted key set, so a
 *            shard lookup returns the same value the unsharded tree
 *            would.
 *
 * Everything here is a pure function of its key: builds are
 * bit-identical across runs and thread counts.
 */

#ifndef HSU_SHARD_SHARD_INDEX_HH
#define HSU_SHARD_SHARD_INDEX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "search/btree_kernel.hh"
#include "search/bvhnn.hh"
#include "search/flann.hh"
#include "search/ggnn.hh"
#include "search/runner.hh"
#include "shard/partition.hh"

namespace hsu::shard
{

/** Identity of one shard of one partitioned dataset. */
struct ShardKey
{
    DatasetId dataset{};
    PartitionPolicy policy = PartitionPolicy::Spatial;
    unsigned numShards = 1;
    unsigned shard = 0;

    bool
    operator<(const ShardKey &o) const
    {
        if (dataset != o.dataset)
            return dataset < o.dataset;
        if (policy != o.policy)
            return policy < o.policy;
        if (numShards != o.numShards)
            return numShards < o.numShards;
        return shard < o.shard;
    }
};

/** One shard's slice plus every index built over it. Only the members
 *  of the family being served are populated (see the accessors). */
struct ShardIndex
{
    ShardKey key;
    /** The shard's slice of the partitioning (ids are global). */
    ShardSlice slice;

    // GGNN family (HighDim datasets).
    PointSet points; //!< shard-local points, in slice.ids order
    std::unique_ptr<HnswGraph> graph;
    std::unique_ptr<GgnnKernel> ggnn;

    // FLANN / BVH-NN family (Point3d datasets; shares `points`).
    float radius = 0.0f; //!< full-dataset radius (pickRadius)
    std::unique_ptr<Lbvh> bvh;
    std::unique_ptr<BvhnnKernel> bvhnn;
    std::unique_ptr<KdTree> kdtree;
    std::unique_ptr<FlannKernel> flann;

    // B+tree family (Keys datasets).
    std::unique_ptr<BTree> btree;
    std::unique_ptr<BtreeKernel> btreeKernel;
};

/** The memoized partitioning of (dataset, policy, num_shards). */
const Partitioning &cachedPartitioning(DatasetId dataset,
                                       PartitionPolicy policy,
                                       unsigned num_shards);

/**
 * The memoized sub-index of one shard, built on first use. Which
 * indexes are populated depends on the dataset kind (all families that
 * apply to the kind are built together, mirroring search/runner's
 * asset grouping).
 */
const ShardIndex &shardIndex(DatasetId dataset, PartitionPolicy policy,
                             unsigned num_shards, unsigned shard);

/** The full-dataset BVH-NN search radius (memoized pickRadius), shared
 *  by every shard of @p dataset and by router-side pruning. */
float datasetRadius(DatasetId dataset);

/**
 * Route one serving-pool query to its target shards, ascending:
 *  - GGNN / FLANN: broadcast (kNN has no sound spatial bound).
 *  - BVH-NN: shards whose slice bounding box lies within the search
 *    radius of the query point (sound: any in-radius point inflates
 *    its shard's box to within the radius). Hash slices have
 *    near-full boxes, so this degenerates to broadcast.
 *  - B+tree: exactly the owning shard — key-range binary search for
 *    spatial partitions, hashShardOf for hash partitions. A key
 *    falling between two spatial ranges is provably absent; such
 *    queries (and radius queries pruning every shard) return an empty
 *    target list and are answered at the router without any fan-out.
 *
 * @p query_id indexes the deterministic serving pool of @p pool_size
 * queries (search/runner serveQueryPoints / serveQueryKeys) — the same
 * payloads batch emission resolves ids against.
 */
std::vector<std::uint32_t> routeQuery(Algo algo,
                                      const Partitioning &partitioning,
                                      std::uint32_t query_id,
                                      std::size_t pool_size);

/**
 * Emit the semantic trace of one dynamic batch against one shard's
 * sub-index — the emission half of emitShardBatchTrace, exposed so
 * the trace linter (tools/trace_lint) can audit shard emissions in
 * release builds too. Timed as PipelinePhase::Emit. Pure function of
 * its arguments.
 */
SemKernelTrace
emitShardBatchSem(Algo algo, const ShardKey &key,
                  const std::vector<std::uint32_t> &query_ids,
                  std::size_t pool_size,
                  const ServeKnobs &knobs = ServeKnobs{});

/**
 * Emit + lower the trace of one dynamic serving batch against one
 * shard's sub-index: the only batch emitter of the serving engine. A
 * single-GPU server emits against shard 0 of a 1-shard partitioning,
 * whose trace is the unsharded one.
 *
 * Requests reference queries by id into the deterministic serving pool
 * of @p pool_size queries (search/runner serveQueryPoints /
 * serveQueryKeys). The batch runs through the same kernel emitters as
 * the offline benches — one warp per GGNN query, 32 point/key queries
 * per warp — so batch cost is exactly what the closed-loop experiments
 * measure at that batch size, and it goes through the same emit +
 * lowerTrace() split, coming back as an immutable shared trace that
 * can be handed to simulateKernel() without copying.
 *
 * Ordering contract: queries are emitted in exactly the order of
 * @p query_ids — lane/warp assignment follows position, not id. The
 * serve scheduling pipeline's batch policies (serve/policy) rely on
 * this to turn batch composition into memory coherence: a Morton- or
 * key-sorted id vector puts neighboring queries in the same warp.
 *
 * @param query_ids ids in [0, pool_size); one request each
 * @param knobs     (possibly degraded) kernel quality knobs
 */
std::shared_ptr<const KernelTrace>
emitShardBatchTrace(Algo algo, const ShardKey &key,
                    KernelVariant variant, const DatapathConfig &dp,
                    const std::vector<std::uint32_t> &query_ids,
                    std::size_t pool_size,
                    const ServeKnobs &knobs = ServeKnobs{});

} // namespace hsu::shard

#endif // HSU_SHARD_SHARD_INDEX_HH
