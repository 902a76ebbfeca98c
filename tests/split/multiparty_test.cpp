#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "split/multiparty.hpp"

namespace ens::split {
namespace {

// ---------------------------------------------------------------- ShardPlan

TEST(ShardPlan, RoundRobinBalancesWithinOne) {
    const ShardPlan plan = ShardPlan::round_robin(10, 3);
    ASSERT_EQ(plan.server_count(), 3u);
    EXPECT_EQ(plan.body_count(), 10u);
    for (const auto& shard : plan.server_bodies) {
        EXPECT_GE(shard.size(), 3u);
        EXPECT_LE(shard.size(), 4u);
    }
}

TEST(ShardPlan, BlocksAreContiguous) {
    const ShardPlan plan = ShardPlan::blocks(10, 4);
    for (const auto& shard : plan.server_bodies) {
        for (std::size_t i = 1; i < shard.size(); ++i) {
            EXPECT_EQ(shard[i], shard[i - 1] + 1);
        }
    }
    EXPECT_EQ(plan.body_count(), 10u);
}

TEST(ShardPlan, EveryBodyAssignedExactlyOnce) {
    for (const ShardPlan& plan :
         {ShardPlan::round_robin(7, 2), ShardPlan::blocks(7, 3), ShardPlan::round_robin(4, 4)}) {
        std::vector<int> hits(7, 0);
        for (const auto& shard : plan.server_bodies) {
            for (const std::size_t body : shard) {
                ASSERT_LT(body, hits.size());
                ++hits[body];
            }
        }
        for (std::size_t body = 0; body < plan.body_count(); ++body) {
            EXPECT_EQ(hits[body], 1) << "body " << body;
        }
    }
}

TEST(ShardPlan, RejectsMoreServersThanBodies) {
    EXPECT_THROW(ShardPlan::round_robin(2, 3), std::invalid_argument);
    EXPECT_THROW(ShardPlan::blocks(0, 1), std::invalid_argument);
}

// ------------------------------------------------------- collusion analysis

// N=6 bodies over 3 servers in blocks: S0={0,1}, S1={2,3}, S2={4,5}; the
// secret selection {1, 4} spans S0 and S2.
const ShardPlan kBlocks = ShardPlan::blocks(6, 3);
const std::vector<std::size_t> kSelected = {1, 4};

TEST(MultipartyCollusion, SingleServerSeesOnlyItsShard) {
    EXPECT_EQ(coalition_bodies(kBlocks, {1}), (std::vector<std::size_t>{2, 3}));
}

TEST(MultipartyCollusion, SelectedBodyDetection) {
    EXPECT_TRUE(coalition_holds_selected_body(kBlocks, kSelected, {0}));   // holds body 1
    EXPECT_FALSE(coalition_holds_selected_body(kBlocks, kSelected, {1}));  // holds 2,3 only
    EXPECT_TRUE(coalition_holds_selected_body(kBlocks, kSelected, {2}));   // holds body 4
}

TEST(MultipartyCollusion, FullSelectionNeedsBothCoveringServers) {
    EXPECT_FALSE(coalition_holds_full_selection(kBlocks, kSelected, {0}));
    EXPECT_FALSE(coalition_holds_full_selection(kBlocks, kSelected, {2}));
    EXPECT_TRUE(coalition_holds_full_selection(kBlocks, kSelected, {0, 2}));
    EXPECT_TRUE(coalition_holds_full_selection(kBlocks, kSelected, {0, 1, 2}));
}

TEST(MultipartyCollusion, SubsetSearchSpaceShrinksPerShard) {
    // One server: 2 bodies -> 3 candidate subsets; the full deployment
    // would face 2^6 - 1 = 63.
    EXPECT_EQ(coalition_subset_count(kBlocks, {0}), 3u);
    EXPECT_EQ(coalition_subset_count(kBlocks, {0, 1}), 15u);
    EXPECT_EQ(coalition_subset_count(kBlocks, {0, 1, 2}), 63u);
}

TEST(MultipartyCollusion, MinCoveringCoalitionIsTwo) {
    EXPECT_EQ(min_covering_coalition(kBlocks, kSelected), 2u);
}

TEST(MultipartyCollusion, SingleServerCoversSelectionWhenColocated) {
    // Blocks of 2: both selected bodies land on server 0.
    const std::vector<std::size_t> colocated = {0, 1};
    EXPECT_EQ(min_covering_coalition(kBlocks, colocated), 1u);
    EXPECT_TRUE(coalition_holds_full_selection(kBlocks, colocated, {0}));
}

TEST(MultipartyCollusion, RejectsBadPlanSelectionAndCoalition) {
    // Selected index beyond the plan's bodies (a 3-body plan asked about
    // body 3, and a 4-body plan about body 9).
    EXPECT_THROW(min_covering_coalition(ShardPlan::round_robin(3, 1), {3}),
                 std::invalid_argument);
    EXPECT_THROW(coalition_holds_selected_body(ShardPlan::round_robin(4, 2), {9}, {0}),
                 std::invalid_argument);
    // Empty selection.
    EXPECT_THROW(min_covering_coalition(kBlocks, {}), std::invalid_argument);
    EXPECT_THROW(coalition_holds_full_selection(kBlocks, {}, {0}), std::invalid_argument);
    // Duplicate assignment.
    ShardPlan twice;
    twice.server_bodies = {{0, 1}, {1, 2, 3}};
    EXPECT_THROW(coalition_bodies(twice, {0}), std::invalid_argument);
    EXPECT_THROW(min_covering_coalition(twice, {0}), std::invalid_argument);
    // A gap: body 2 is on no server.
    ShardPlan gap;
    gap.server_bodies = {{0, 1}, {3}};
    EXPECT_THROW(coalition_subset_count(gap, {0}), std::invalid_argument);
    EXPECT_THROW(coalition_holds_selected_body(gap, {0}, {1}), std::invalid_argument);
    // Coalition server index out of range.
    EXPECT_THROW(coalition_bodies(kBlocks, {3}), std::invalid_argument);
    EXPECT_THROW(coalition_holds_full_selection(kBlocks, kSelected, {0, 7}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace ens::split
