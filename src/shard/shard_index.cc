#include "shard/shard_index.hh"

#include <algorithm>
#include <utility>

#include "analysis/trace_lint.hh"
#include "common/logging.hh"
#include "common/memo.hh"
#include "common/phase_timer.hh"
#include "sim/lower.hh"

namespace hsu::shard
{

namespace
{

/** Memoized full-dataset radius (same pickRadius the runner's
 *  point assets use, recomputed here to keep layering one-way). */
struct RadiusAsset
{
    float radius = 0.0f;
};

/** Emission-time lint hook, mirroring search/runner's debug check. */
void
maybeLintEmission([[maybe_unused]] const SemKernelTrace &sem,
                  [[maybe_unused]] Algo algo)
{
#if !defined(NDEBUG) || defined(HSU_AUDIT)
    lintSemTraceOrDie(sem, toString(algo).c_str());
#endif
}

} // namespace

const Partitioning &
cachedPartitioning(DatasetId dataset, PartitionPolicy policy,
                   unsigned num_shards)
{
    const auto key = std::make_tuple(dataset, policy, num_shards);
    return cachedAssets<Partitioning>(key, [=](Partitioning &p) {
        p = partitionDataset(dataset, policy, num_shards);
    });
}

float
datasetRadius(DatasetId dataset)
{
    return cachedAssets<RadiusAsset>(dataset, [=](RadiusAsset &a) {
               a.radius = pickRadius(generatePoints(datasetInfo(dataset)));
           })
        .radius;
}

const ShardIndex &
shardIndex(DatasetId dataset, PartitionPolicy policy,
           unsigned num_shards, unsigned shard)
{
    const ShardKey key{dataset, policy, num_shards, shard};
    return cachedAssets<ShardIndex>(key, [=](ShardIndex &idx) {
        const DatasetInfo &info = datasetInfo(dataset);
        const Partitioning &part =
            cachedPartitioning(dataset, policy, num_shards);
        hsu_assert(shard < part.numShards(), "shard index out of range");
        idx.key = key;
        idx.slice = part.shards[shard];
        hsu_assert(!idx.slice.ids.empty(),
                   "cannot build an index over an empty shard");

        if (info.kind == DatasetKind::Keys) {
            // Sub-tree over (key, global rank): ids *are* the ranks in
            // the full sorted key set, so lookup values match the
            // unsharded tree's.
            const std::vector<std::uint32_t> keys = generateKeys(info);
            std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
            pairs.reserve(idx.slice.ids.size());
            for (const std::uint32_t rank : idx.slice.ids)
                pairs.emplace_back(keys[rank], rank);
            idx.btree = std::make_unique<BTree>(
                BTree::build(std::move(pairs)));
            idx.btreeKernel = std::make_unique<BtreeKernel>(*idx.btree);
            return;
        }

        // Build in place: every kernel below holds references into the
        // slot-resident PointSet / index, so none may move after build.
        const PointSet full = generatePoints(info);
        idx.points = PointSet(full.dim());
        idx.points.reserve(idx.slice.ids.size());
        for (const std::uint32_t id : idx.slice.ids)
            idx.points.add(full[id]);

        if (info.kind == DatasetKind::HighDim) {
            idx.graph = std::make_unique<HnswGraph>(
                HnswGraph::build(idx.points, info.metric));
            idx.ggnn =
                std::make_unique<GgnnKernel>(*idx.graph, GgnnConfig{});
            return;
        }

        // Point3d: FLANN + BVH-NN share the shard points. The BVH
        // radius is the full-dataset radius so the union of shard
        // answer sets equals the unsharded answer set.
        idx.radius = datasetRadius(dataset);
        idx.bvh = std::make_unique<Lbvh>(
            Lbvh::buildFromPoints(idx.points, idx.radius));
        idx.bvhnn = std::make_unique<BvhnnKernel>(
            idx.points, *idx.bvh, BvhnnConfig{idx.radius});
        idx.kdtree =
            std::make_unique<KdTree>(KdTree::build(idx.points, 16));
        idx.flann = std::make_unique<FlannKernel>(*idx.kdtree);
    });
}

std::vector<std::uint32_t>
routeQuery(Algo algo, const Partitioning &partitioning,
           std::uint32_t query_id, std::size_t pool_size)
{
    const unsigned n = partitioning.numShards();
    std::vector<std::uint32_t> targets;

    switch (algo) {
      case Algo::Ggnn:
      case Algo::Flann:
        // kNN has no sound distance bound before the answer is known:
        // broadcast to every (non-empty) shard.
        targets.reserve(n);
        for (unsigned s = 0; s < n; ++s) {
            if (!partitioning.shards[s].ids.empty())
                targets.push_back(s);
        }
        return targets;

      case Algo::Bvhnn: {
        const float r = datasetRadius(partitioning.dataset);
        const PointSet &pool =
            serveQueryPoints(partitioning.dataset, pool_size);
        hsu_assert(query_id < pool.size(),
                   "route query id outside the serving pool");
        const Vec3 q = pool.vec3(query_id);
        for (unsigned s = 0; s < n; ++s) {
            const ShardSlice &slice = partitioning.shards[s];
            if (slice.ids.empty())
                continue;
            if (slice.bounds.distance2(q) <= r * r)
                targets.push_back(s);
        }
        return targets;
      }

      case Algo::Btree: {
        const std::vector<std::uint32_t> &pool =
            serveQueryKeys(partitioning.dataset, pool_size);
        hsu_assert(query_id < pool.size(),
                   "route query id outside the serving pool");
        const std::uint32_t key = pool[query_id];
        if (partitioning.policy == PartitionPolicy::Hash) {
            const unsigned owner = hashShardOf(
                datasetInfo(partitioning.dataset), key, n);
            if (!partitioning.shards[owner].ids.empty())
                targets.push_back(owner);
            return targets;
        }
        // Spatial: shard key ranges are disjoint and ascending; the
        // owner (if the key is present at all) is the first shard
        // whose range upper bound reaches the key.
        for (unsigned s = 0; s < n; ++s) {
            const ShardSlice &slice = partitioning.shards[s];
            if (slice.ids.empty())
                continue;
            if (key > slice.keyHi)
                continue;
            if (key >= slice.keyLo)
                targets.push_back(s);
            // key < keyLo of the first reachable range: provably
            // absent from every shard.
            break;
        }
        return targets;
      }
    }
    hsu_panic("unknown algo");
}

SemKernelTrace
emitShardBatchSem(Algo algo, const ShardKey &key,
                  const std::vector<std::uint32_t> &query_ids,
                  std::size_t pool_size, const ServeKnobs &knobs)
{
    hsu_assert(!query_ids.empty(), "empty shard batch");
    const ShardIndex &idx =
        shardIndex(key.dataset, key.policy, key.numShards, key.shard);
    const ScopedPhaseTimer timer(PipelinePhase::Emit);

    auto gather_points = [&]() {
        const PointSet &pool =
            serveQueryPoints(key.dataset, pool_size);
        PointSet batch(pool.dim());
        batch.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            hsu_assert(q < pool.size(),
                       "shard query id out of pool: ", q);
            batch.add(pool[q]);
        }
        return batch;
    };

    switch (algo) {
      case Algo::Ggnn: {
        if (knobs == ServeKnobs{})
            return idx.ggnn->emit(gather_points()).sem;
        GgnnConfig cfg;
        cfg.ef = knobs.ggnnEf;
        cfg.k = knobs.ggnnK;
        const GgnnKernel kernel(*idx.graph, cfg);
        return kernel.emit(gather_points()).sem;
      }
      case Algo::Flann:
        return idx.flann->emit(gather_points()).sem;
      case Algo::Bvhnn:
        return idx.bvhnn->emit(gather_points()).sem;
      case Algo::Btree: {
        const std::vector<std::uint32_t> &pool =
            serveQueryKeys(key.dataset, pool_size);
        std::vector<std::uint32_t> batch;
        batch.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            hsu_assert(q < pool.size(),
                       "shard query id out of pool: ", q);
            batch.push_back(pool[q]);
        }
        return idx.btreeKernel->emit(batch).sem;
      }
    }
    hsu_panic("unknown algo");
}

std::shared_ptr<const KernelTrace>
emitShardBatchTrace(Algo algo, const ShardKey &key,
                    KernelVariant variant, const DatapathConfig &dp,
                    const std::vector<std::uint32_t> &query_ids,
                    std::size_t pool_size, const ServeKnobs &knobs)
{
    const SemKernelTrace sem =
        emitShardBatchSem(algo, key, query_ids, pool_size, knobs);
    maybeLintEmission(sem, algo);
    return std::make_shared<const KernelTrace>(
        lowerTrace(sem, loweringFor(variant, dp)));
}

} // namespace hsu::shard
