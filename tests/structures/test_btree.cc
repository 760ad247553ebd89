/**
 * @file
 * B+tree tests: lookups equal std::map across orders and sizes, bulk
 * structure validation, and KEY_COMPARE/childSlot consistency.
 */

#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "common/rng.hh"
#include "hsu/functional.hh"
#include "structures/btree.hh"

namespace hsu
{
namespace
{

std::vector<std::pair<std::uint32_t, std::uint32_t>>
randomPairs(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.emplace_back(
            static_cast<std::uint32_t>(rng.nextBounded(1u << 30)),
            static_cast<std::uint32_t>(i));
    }
    return out;
}

// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: padding bytes are uninitialised and would
// make the test names change from run to run. A size_t order prints the
// same bytes as an unsigned order followed by zeroed padding.
struct BtreeCase
{
    std::size_t n;
    std::size_t order;
};
static_assert(std::has_unique_object_representations_v<BtreeCase>);

class BtreeSweep : public ::testing::TestWithParam<BtreeCase>
{
};

TEST_P(BtreeSweep, LookupsMatchStdMap)
{
    const auto [n, order] = GetParam();
    auto pairs = randomPairs(n, n + order);
    std::map<std::uint32_t, std::uint32_t> ref;
    for (const auto &[k, v] : pairs)
        ref.emplace(k, v); // first value wins, like BTree::build

    const BTree tree =
        BTree::build(pairs, static_cast<unsigned>(order));
    EXPECT_TRUE(tree.validate());

    // Every present key.
    for (const auto &[k, v] : ref) {
        const auto got = tree.lookup(k);
        ASSERT_TRUE(got.has_value()) << "key " << k;
        EXPECT_EQ(*got, v);
    }
    // Absent keys.
    Rng rng(order * 7 + 1);
    for (int i = 0; i < 200; ++i) {
        const auto k =
            static_cast<std::uint32_t>(rng.nextBounded(1u << 30));
        EXPECT_EQ(tree.lookup(k).has_value(), ref.count(k) == 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BtreeSweep,
    ::testing::Values(BtreeCase{0, 256}, BtreeCase{1, 256},
                      BtreeCase{100, 4}, BtreeCase{1000, 8},
                      BtreeCase{1000, 16}, BtreeCase{5000, 64},
                      BtreeCase{20000, 256}, BtreeCase{177, 3},
                      BtreeCase{4096, 256}));

TEST(BTree, HeightShrinksWithOrder)
{
    auto pairs = randomPairs(10000, 1);
    const BTree small = BTree::build(pairs, 4);
    const BTree large = BTree::build(pairs, 256);
    EXPECT_GT(small.height(), large.height());
    EXPECT_LE(large.height(), 3u);
}

TEST(BTree, ChildSlotMatchesKeyCompareBitVector)
{
    // The paper's Table I semantics: the child to traverse to is the
    // popcount of the KEY_COMPARE bit vector.
    auto pairs = randomPairs(8000, 2);
    const BTree tree = BTree::build(pairs, 64);
    Rng rng(3);
    for (const auto &node : tree.nodes()) {
        if (node.leaf || node.keys.empty())
            continue;
        for (int i = 0; i < 8; ++i) {
            const auto key = static_cast<std::uint32_t>(
                rng.nextBounded(1u << 30));
            unsigned popcnt = 0;
            for (std::size_t c = 0; c < node.keys.size(); c += 36) {
                const unsigned count = static_cast<unsigned>(
                    std::min<std::size_t>(36, node.keys.size() - c));
                popcnt += static_cast<unsigned>(__builtin_popcountll(
                    keyCompare(key, node.keys.data() + c, count)));
            }
            EXPECT_EQ(BTree::childSlot(node, key), popcnt);
        }
    }
}

TEST(BTree, SeparatorsAreSorted)
{
    auto pairs = randomPairs(30000, 4);
    const BTree tree = BTree::build(pairs, 256);
    for (const auto &node : tree.nodes())
        EXPECT_TRUE(std::is_sorted(node.keys.begin(), node.keys.end()));
}

TEST(BTree, DuplicateKeysKeepFirst)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
        {5, 100}, {5, 200}, {7, 300}};
    const BTree tree = BTree::build(pairs, 4);
    EXPECT_EQ(tree.lookup(5).value(), 100u);
    EXPECT_EQ(tree.lookup(7).value(), 300u);
}

TEST(BTree, MaxSeparatorsRespectOrder)
{
    auto pairs = randomPairs(50000, 5);
    const unsigned order = 256;
    const BTree tree = BTree::build(pairs, order);
    for (const auto &node : tree.nodes()) {
        if (!node.leaf) {
            EXPECT_LE(node.keys.size(), order - 1);
            EXPECT_EQ(node.children.size(), node.keys.size() + 1);
        }
    }
}

TEST(BTree, EmptyTreeLookupsMissGracefully)
{
    const BTree tree = BTree::build({}, 16);
    EXPECT_TRUE(tree.validate());
    EXPECT_FALSE(tree.lookup(42).has_value());
    EXPECT_EQ(tree.height(), 1u);
}

} // namespace
} // namespace hsu
