#include "split/multiparty.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace ens::split {

std::size_t ShardPlan::body_count() const {
    std::size_t count = 0;
    for (const auto& shard : server_bodies) {
        count += shard.size();
    }
    return count;
}

ShardPlan ShardPlan::round_robin(std::size_t num_bodies, std::size_t num_servers) {
    ENS_REQUIRE(num_servers >= 1, "ShardPlan: need at least one server");
    ENS_REQUIRE(num_bodies >= num_servers, "ShardPlan: fewer bodies than servers");
    ShardPlan plan;
    plan.server_bodies.resize(num_servers);
    for (std::size_t body = 0; body < num_bodies; ++body) {
        plan.server_bodies[body % num_servers].push_back(body);
    }
    return plan;
}

ShardPlan ShardPlan::blocks(std::size_t num_bodies, std::size_t num_servers) {
    ENS_REQUIRE(num_servers >= 1, "ShardPlan: need at least one server");
    ENS_REQUIRE(num_bodies >= num_servers, "ShardPlan: fewer bodies than servers");
    ShardPlan plan;
    plan.server_bodies.resize(num_servers);
    const std::size_t base = num_bodies / num_servers;
    const std::size_t extra = num_bodies % num_servers;
    std::size_t next = 0;
    for (std::size_t server = 0; server < num_servers; ++server) {
        const std::size_t width = base + (server < extra ? 1 : 0);
        for (std::size_t i = 0; i < width; ++i) {
            plan.server_bodies[server].push_back(next++);
        }
    }
    return plan;
}

namespace {

/// Validates that the plan covers bodies 0..body_count()-1 exactly once.
/// With body_count() entries in total, no index out of range and no repeat
/// also means no gap.
void validate_plan(const ShardPlan& plan) {
    std::vector<bool> seen(plan.body_count(), false);
    for (const auto& shard : plan.server_bodies) {
        for (const std::size_t body : shard) {
            ENS_REQUIRE(body < seen.size(), "ShardPlan: body index out of range (gap in the plan)");
            ENS_REQUIRE(!seen[body], "ShardPlan: body assigned to two servers");
            seen[body] = true;
        }
    }
}

void validate_selection(const ShardPlan& plan, const std::vector<std::size_t>& selected) {
    ENS_REQUIRE(!selected.empty(), "collusion ledger: empty selection");
    for (const std::size_t index : selected) {
        ENS_REQUIRE(index < plan.body_count(), "collusion ledger: selected index out of range");
    }
}

/// Number of entries of `selected` the coalition holds.
std::size_t selected_held(const ShardPlan& plan, const std::vector<std::size_t>& selected,
                          const std::vector<std::size_t>& coalition) {
    const auto held = coalition_bodies(plan, coalition);
    validate_selection(plan, selected);
    return static_cast<std::size_t>(
        std::count_if(selected.begin(), selected.end(), [&held](std::size_t index) {
            return std::binary_search(held.begin(), held.end(), index);
        }));
}

}  // namespace

std::vector<std::size_t> coalition_bodies(const ShardPlan& plan,
                                          const std::vector<std::size_t>& coalition) {
    validate_plan(plan);
    std::vector<std::size_t> held;
    for (const std::size_t server : coalition) {
        ENS_REQUIRE(server < plan.server_count(), "coalition: server index out of range");
        held.insert(held.end(), plan.server_bodies[server].begin(),
                    plan.server_bodies[server].end());
    }
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    return held;
}

bool coalition_holds_selected_body(const ShardPlan& plan, const std::vector<std::size_t>& selected,
                                   const std::vector<std::size_t>& coalition) {
    return selected_held(plan, selected, coalition) > 0;
}

bool coalition_holds_full_selection(const ShardPlan& plan,
                                    const std::vector<std::size_t>& selected,
                                    const std::vector<std::size_t>& coalition) {
    return selected_held(plan, selected, coalition) == selected.size();
}

std::uint64_t coalition_subset_count(const ShardPlan& plan,
                                     const std::vector<std::size_t>& coalition) {
    const auto held = coalition_bodies(plan, coalition);
    ENS_REQUIRE(held.size() < 64, "coalition_subset_count: would overflow u64");
    return (std::uint64_t{1} << held.size()) - 1;
}

std::size_t min_covering_coalition(const ShardPlan& plan,
                                   const std::vector<std::size_t>& selected) {
    // Exact set-cover over <= server_count() servers by subset enumeration;
    // server counts are single digits in every deployment we model, so the
    // 2^K scan is exact and instant.
    validate_selection(plan, selected);
    const std::size_t k = plan.server_count();
    ENS_CHECK(k < 32, "min_covering_coalition: too many servers for exact scan");
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
        std::vector<std::size_t> coalition;
        for (std::size_t server = 0; server < k; ++server) {
            if ((mask >> server) & 1u) {
                coalition.push_back(server);
            }
        }
        if (coalition.size() < best && coalition_holds_full_selection(plan, selected, coalition)) {
            best = coalition.size();
        }
    }
    ENS_CHECK(best != std::numeric_limits<std::size_t>::max(),
              "min_covering_coalition: the full server set must cover the selection");
    return best;
}

}  // namespace ens::split
