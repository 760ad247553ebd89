#include "oracle.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

namespace perfbench
{

float
bruteDist2(const float *a, const float *b, unsigned dim)
{
    float sum = 0.0f;
    for (unsigned i = 0; i < dim; ++i) {
        const float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

float
bruteAngular(const float *a, const float *b, unsigned dim)
{
    float dot = 0.0f, na = 0.0f, nb = 0.0f;
    for (unsigned i = 0; i < dim; ++i) {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    const float denom = std::sqrt(na) * std::sqrt(nb);
    return denom == 0.0f ? 1.0f : 1.0f - dot / denom;
}

std::vector<hsu::Neighbor>
bruteTopK(const hsu::PointSet &base, hsu::Metric metric, const float *q,
          unsigned k)
{
    std::vector<hsu::Neighbor> all(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        all[i].index = static_cast<std::uint32_t>(i);
        all[i].dist2 = metric == hsu::Metric::Euclidean
                           ? bruteDist2(q, base[i], base.dim())
                           : bruteAngular(q, base[i], base.dim());
    }
    const std::size_t kk = std::min<std::size_t>(k, all.size());
    std::sort(all.begin(), all.end(),
              [](const hsu::Neighbor &a, const hsu::Neighbor &b) {
                  return a.dist2 != b.dist2 ? a.dist2 < b.dist2
                                            : a.index < b.index;
              });
    all.resize(kk);
    return all;
}

std::optional<std::uint32_t>
bruteKeyRank(const std::vector<std::uint32_t> &keys, std::uint32_t key)
{
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == key)
            return static_cast<std::uint32_t>(i);
    }
    return std::nullopt;
}

hsu::BTree
buildRankTree(const std::vector<std::uint32_t> &keys)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        pairs.emplace_back(keys[i], static_cast<std::uint32_t>(i));
    return hsu::BTree::build(std::move(pairs));
}

namespace
{

constexpr unsigned kSpotQueries = 48;

/** A seeded query point: a jittered base point (half) or a uniform
 *  draw over the bounding box (half). */
std::vector<float>
samplePoint(const hsu::PointSet &points, std::mt19937_64 &rng, unsigned i)
{
    const unsigned dim = points.dim();
    std::vector<float> lo(points[0], points[0] + dim);
    std::vector<float> hi = lo;
    for (std::size_t p = 1; p < points.size(); ++p) {
        for (unsigned d = 0; d < dim; ++d) {
            lo[d] = std::min(lo[d], points[p][d]);
            hi[d] = std::max(hi[d], points[p][d]);
        }
    }
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    std::vector<float> q(dim);
    if (i % 2 == 0) {
        const float *p = points[rng() % points.size()];
        for (unsigned d = 0; d < dim; ++d)
            q[d] = p[d] + (unit(rng) - 0.5f) * 0.02f * (hi[d] - lo[d]);
    } else {
        for (unsigned d = 0; d < dim; ++d)
            q[d] = lo[d] + unit(rng) * (hi[d] - lo[d]);
    }
    return q;
}

} // namespace

void
spotCheckBtree(const hsu::BTree &tree,
               const std::vector<std::uint32_t> &keys, std::uint64_t seed,
               Checks &checks)
{
    std::mt19937_64 rng(seed ^ 0xb7eeULL);
    for (unsigned i = 0; i < kSpotQueries; ++i) {
        // Half present keys, half uniform (almost always absent).
        const std::uint32_t key =
            i % 2 == 0 ? keys[rng() % keys.size()]
                       : static_cast<std::uint32_t>(rng());
        std::optional<std::uint32_t> want = bruteKeyRank(keys, key);
        if (i == 0 && checks.corrupting("btree_spot"))
            want = want ? std::optional<std::uint32_t>(*want + 1) : 0u;
        const std::optional<std::uint32_t> got = tree.lookup(key);
        std::ostringstream why;
        why << "key " << key << ": lookup "
            << (got ? std::to_string(*got) : "absent") << ", scan "
            << (want ? std::to_string(*want) : "absent");
        checks.expect("btree_spot", got == want, why.str());
    }
}

void
spotCheckKdTree(const hsu::KdTree &tree, const hsu::PointSet &points,
                std::uint64_t seed, Checks &checks)
{
    std::mt19937_64 rng(seed ^ 0x6d7eeULL);
    for (unsigned i = 0; i < kSpotQueries; ++i) {
        const std::vector<float> q = samplePoint(points, rng, i);
        const std::vector<hsu::Neighbor> got = tree.knn(q.data(), 1);
        std::vector<hsu::Neighbor> want =
            bruteTopK(points, hsu::Metric::Euclidean, q.data(), 1);
        if (i == 0 && checks.corrupting("kdtree_spot"))
            want[0].index ^= 1u;
        std::ostringstream why;
        why << "query " << i << ": k-d nearest "
            << (got.empty() ? -1 : static_cast<long>(got[0].index))
            << ", scan " << want[0].index;
        checks.expect("kdtree_spot",
                      got.size() == 1 && got[0].index == want[0].index,
                      why.str());
    }
}

void
spotCheckLbvh(const hsu::Lbvh &bvh, const hsu::PointSet &points,
              float radius, std::uint64_t seed, Checks &checks)
{
    std::mt19937_64 rng(seed ^ 0x1b7bULL);
    const float r2 = radius * radius;
    for (unsigned i = 0; i < kSpotQueries; ++i) {
        const std::vector<float> q = samplePoint(points, rng, i);
        // The BVH holds a radius-sized box per point: a point query
        // returns the candidates, the distance test the answer.
        std::vector<std::uint32_t> got;
        for (const std::uint32_t c :
             bvh.pointQuery(hsu::Vec3{q[0], q[1], q[2]})) {
            if (bruteDist2(q.data(), points[c], 3) <= r2)
                got.push_back(c);
        }
        std::vector<std::uint32_t> want;
        for (std::size_t p = 0; p < points.size(); ++p) {
            if (bruteDist2(q.data(), points[p], 3) <= r2)
                want.push_back(static_cast<std::uint32_t>(p));
        }
        if (i == 0 && checks.corrupting("lbvh_spot"))
            want.push_back(static_cast<std::uint32_t>(points.size()));
        std::ostringstream why;
        why << "query " << i << ": LBVH found " << got.size()
            << " points within the radius, scan " << want.size();
        checks.expect("lbvh_spot", got == want, why.str());
    }
}

} // namespace perfbench
