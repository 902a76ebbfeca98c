#pragma once
// Multi-server ("multiparty") shard plans and the §III-D collusion ledger.
//
// Because each server net M^i_s is independent, the N bodies can be spread
// across K non-colluding servers. This strengthens the defense in two ways
// the paper points out:
//   * a single adversarial server no longer even HOLDS all the bodies a
//     brute-force subset attack needs — its search space shrinks to the
//     subsets of its own shard, and if its shard contains no selected body
//     its reconstruction target does not exist;
//   * the K shards execute concurrently, so the O(N) server-compute term
//     of Table III divides by the shard width.
//
// A ShardPlan says which server holds which bodies; serve::ShardRouter runs
// the deployment itself (one socket per shard host, each serving a
// contiguous ShardPlan::blocks slice). The ledger functions below answer
// the security questions about a plan: what a coalition of servers holds
// and whether that suffices for an attack on the client's secret
// selection.
//
// This module is selector-agnostic: the secret is passed in as the
// activated body indices (core::Selector::indices()), keeping the split
// layer below the core library in the dependency order.

#include <cstdint>
#include <vector>

namespace ens::split {

/// Assignment of body indices to servers. The ledger functions require
/// every body 0..body_count()-1 on exactly one server.
struct ShardPlan {
    std::vector<std::vector<std::size_t>> server_bodies;

    std::size_t server_count() const { return server_bodies.size(); }
    std::size_t body_count() const;

    /// Round-robin partition of n bodies over k servers (balanced shards).
    static ShardPlan round_robin(std::size_t num_bodies, std::size_t num_servers);

    /// Contiguous block partition of n bodies over k servers.
    static ShardPlan blocks(std::size_t num_bodies, std::size_t num_servers);
};

// --- Collusion ledger (§III-D's security argument) -------------------------
//
// `coalition` lists server indices of `plan`; `selected` lists the body
// indices the client's secret Selector activates (the servers never see
// it). Every function throws std::invalid_argument when the plan assigns a
// body twice or leaves a gap, when `selected` is empty or names a body
// >= plan.body_count(), or when a coalition server index is out of range.

/// Body indices held by the coalition of servers in `coalition`, sorted.
std::vector<std::size_t> coalition_bodies(const ShardPlan& plan,
                                          const std::vector<std::size_t>& coalition);

/// True when the coalition holds at least one body the Selector activates
/// — the precondition for any Proposition-1-style attack.
bool coalition_holds_selected_body(const ShardPlan& plan, const std::vector<std::size_t>& selected,
                                   const std::vector<std::size_t>& coalition);

/// True when the coalition holds EVERY activated body (it could, in
/// principle, brute-force its way to the exact deployed pipeline).
bool coalition_holds_full_selection(const ShardPlan& plan,
                                    const std::vector<std::size_t>& selected,
                                    const std::vector<std::size_t>& coalition);

/// Number of non-empty subsets of the coalition's bodies — the size of the
/// shadow-network search space a brute-force MIA from this coalition faces
/// (2^held - 1, the §III-D cost restricted to a shard).
std::uint64_t coalition_subset_count(const ShardPlan& plan,
                                     const std::vector<std::size_t>& coalition);

/// Smallest number of servers whose union covers the full selection — the
/// minimum coalition that could even attempt an exact-subset attack.
std::size_t min_covering_coalition(const ShardPlan& plan, const std::vector<std::size_t>& selected);

}  // namespace ens::split
