/**
 * @file
 * Reference answers computed apart from the program: brute-force scans
 * over the generated data, and seeded spot checks of the index
 * builders (B+tree lookups, k-d nearest neighbours, LBVH radius
 * queries) against them.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "harness.hh"
#include "structures/btree.hh"
#include "structures/graph.hh"
#include "structures/kdtree.hh"
#include "structures/lbvh.hh"
#include "structures/pointset.hh"

namespace perfbench
{

/** Squared Euclidean distance, summed dimension by dimension. */
float bruteDist2(const float *a, const float *b, unsigned dim);

/** 1 - cosine similarity (1 when either vector is zero). */
float bruteAngular(const float *a, const float *b, unsigned dim);

/** Exact k nearest (distance, then id) of @p q in @p base. */
std::vector<hsu::Neighbor> bruteTopK(const hsu::PointSet &base,
                                     hsu::Metric metric, const float *q,
                                     unsigned k);

/** Rank of @p key in the sorted key set, by linear scan. */
std::optional<std::uint32_t>
bruteKeyRank(const std::vector<std::uint32_t> &keys, std::uint32_t key);

/** The B+tree over (key, rank) pairs that search/runner builds. */
hsu::BTree buildRankTree(const std::vector<std::uint32_t> &keys);

/**
 * Seeded spot checks of one built index against brute force. Each
 * draws its own sample from @p seed; a failure names the query.
 */
void spotCheckBtree(const hsu::BTree &tree,
                    const std::vector<std::uint32_t> &keys,
                    std::uint64_t seed, Checks &checks);
void spotCheckKdTree(const hsu::KdTree &tree, const hsu::PointSet &points,
                     std::uint64_t seed, Checks &checks);
void spotCheckLbvh(const hsu::Lbvh &bvh, const hsu::PointSet &points,
                   float radius, std::uint64_t seed, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
