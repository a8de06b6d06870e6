#include "topo/spec.hpp"

#include <algorithm>
#include <cassert>

namespace edp::topo {

std::size_t Spec::connect_host(std::size_t h, std::size_t s,
                               std::uint16_t port, Link::Config link) {
  assert(h < hosts_.size() && s < switches_.size());
  links_.push_back(LinkSpec{/*host_side=*/true, h, 0, s, port, link});
  return links_.size() - 1;
}

std::size_t Spec::connect_switches(std::size_t s1, std::uint16_t p1,
                                   std::size_t s2, std::uint16_t p2,
                                   Link::Config link) {
  assert(s1 < switches_.size() && s2 < switches_.size());
  links_.push_back(LinkSpec{/*host_side=*/false, s1, p1, s2, p2, link});
  return links_.size() - 1;
}

void Spec::instantiate(Network& net) const {
  for (const auto& sc : switches_) {
    net.add_switch(sc);
  }
  for (const auto& hc : hosts_) {
    net.add_host(hc);
  }
  for (const auto& l : links_) {
    if (l.host_side) {
      net.connect_host(l.a, l.b, l.pb, l.config);
    } else {
      net.connect_switches(l.a, l.pa, l.b, l.pb, l.config);
    }
  }
}

ShardPlan plan_shards(const Spec& spec, std::size_t num_shards,
                      std::vector<std::size_t> switch_shard,
                      std::vector<std::size_t> host_shard) {
  assert(num_shards >= 1);
  assert(switch_shard.size() == spec.num_switches());

  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.requested_shards = num_shards;
  plan.switch_shard = std::move(switch_shard);
  plan.host_shard = std::move(host_shard);
  plan.host_shard.resize(spec.num_hosts(), ShardPlan::npos);

  for (std::size_t s : plan.switch_shard) {
    assert(s < num_shards);
    (void)s;
  }

  // Hosts without an explicit shard follow the first switch they attach to.
  for (std::size_t l = 0; l < spec.num_links(); ++l) {
    const auto& ls = spec.link_spec(l);
    if (ls.host_side && plan.host_shard[ls.a] == ShardPlan::npos) {
      plan.host_shard[ls.a] = plan.switch_shard[ls.b];
    }
  }
  // Unattached hosts: deterministic round-robin.
  for (std::size_t h = 0; h < plan.host_shard.size(); ++h) {
    if (plan.host_shard[h] == ShardPlan::npos) {
      plan.host_shard[h] = h % num_shards;
    }
    assert(plan.host_shard[h] < num_shards);
  }

  plan.pair_lookahead_ps.assign(num_shards * num_shards,
                                ShardPlan::kNoChannel);
  for (std::size_t l = 0; l < spec.num_links(); ++l) {
    const auto& ls = spec.link_spec(l);
    const std::size_t sa =
        ls.host_side ? plan.host_shard[ls.a] : plan.switch_shard[ls.a];
    const std::size_t sb = plan.switch_shard[ls.b];
    if (sa == sb) {
      continue;
    }
    // The conservative window rule requires every cross-shard hop to carry
    // at least one lookahead of delay; a zero-delay cut link would force a
    // zero-length window (no parallelism, livelock).
    assert(ls.config.delay > sim::Time::zero() &&
           "cut links must have positive delay");
    plan.cut_links.push_back(l);
    if (!plan.lookahead || ls.config.delay < *plan.lookahead) {
      plan.lookahead = ls.config.delay;
    }
    // Links are full duplex: the pair bound tightens in both directions.
    const std::int64_t d = ls.config.delay.ps();
    for (auto [src, dst] : {std::pair{sa, sb}, std::pair{sb, sa}}) {
      std::int64_t& cell = plan.pair_lookahead_ps[src * num_shards + dst];
      cell = std::min(cell, d);
    }
  }
  plan.cut_fraction =
      spec.num_links() == 0
          ? 0.0
          : static_cast<double>(plan.cut_links.size()) /
                static_cast<double>(spec.num_links());

  // Empty shards are legal with an explicit assignment (the caller may be
  // reserving shard ids) but are worth surfacing: each one is a barrier
  // participant that never executes an event.
  std::vector<bool> used(num_shards, false);
  for (std::size_t s : plan.switch_shard) {
    used[s] = true;
  }
  for (std::size_t s : plan.host_shard) {
    used[s] = true;
  }
  plan.empty_shards = static_cast<std::size_t>(
      std::count(used.begin(), used.end(), false));
  return plan;
}

namespace {

/// num_shards clamped so every shard can own at least one switch. A
/// num_shards > num_switches request would leave shards with no nodes at
/// all — threads that barrier every window and never execute an event.
std::size_t clamp_shards(const Spec& spec, std::size_t num_shards) {
  const std::size_t max_useful = std::max<std::size_t>(1, spec.num_switches());
  return std::min(std::max<std::size_t>(1, num_shards), max_useful);
}

}  // namespace

ShardPlan plan_shards(const Spec& spec, std::size_t num_shards) {
  const std::size_t requested = num_shards;
  num_shards = clamp_shards(spec, num_shards);
  const std::size_t n_sw = spec.num_switches();

  // Node weight: the switch itself plus every host that will follow it
  // (hosts co-locate with the first switch they attach to), so "balanced"
  // means balanced simulation load, not just balanced switch counts.
  std::vector<std::size_t> weight(n_sw, 1);
  std::vector<bool> host_seen(spec.num_hosts(), false);
  // conn[i][j]: number of switch-switch links joining i and j. Host links
  // never cross shards under the first-switch rule, so they do not enter
  // the cut objective.
  std::vector<std::size_t> conn(n_sw * n_sw, 0);
  std::size_t total_weight = 0;
  for (std::size_t l = 0; l < spec.num_links(); ++l) {
    const auto& ls = spec.link_spec(l);
    if (ls.host_side) {
      if (!host_seen[ls.a]) {
        host_seen[ls.a] = true;
        ++weight[ls.b];
      }
    } else if (ls.a != ls.b) {
      ++conn[ls.a * n_sw + ls.b];
      ++conn[ls.b * n_sw + ls.a];
    }
  }
  for (std::size_t i = 0; i < n_sw; ++i) {
    total_weight += weight[i];
  }

  // Greedy graph growing: seed each shard with the lowest-index unassigned
  // switch, then repeatedly absorb the unassigned switch with the highest
  // connectivity into the shard (ties: lowest index) until the shard's
  // weight reaches its proportional target. The last shard takes whatever
  // remains, so every switch is assigned exactly once.
  std::vector<std::size_t> assign(n_sw, ShardPlan::npos);
  std::vector<std::size_t> attach(n_sw, 0);  // links into the growing shard
  std::size_t assigned = 0;
  std::size_t weight_left = total_weight;
  for (std::size_t s = 0; s < num_shards && assigned < n_sw; ++s) {
    const std::size_t shards_left = num_shards - s;
    // Ceiling split of the remaining weight keeps the tail shards nonempty.
    const std::size_t target = (weight_left + shards_left - 1) / shards_left;
    std::size_t shard_weight = 0;
    std::fill(attach.begin(), attach.end(), 0);
    // Grow while under target (the last shard absorbs the remainder), but
    // always leave one unassigned switch per not-yet-seeded shard so a
    // heavy region cannot starve the tail shards empty.
    while (assigned < n_sw &&
           (shard_weight == 0 ||
            (n_sw - assigned > num_shards - s - 1 &&
             (shard_weight < target || s + 1 == num_shards)))) {
      std::size_t best = ShardPlan::npos;
      for (std::size_t i = 0; i < n_sw; ++i) {
        if (assign[i] != ShardPlan::npos) {
          continue;
        }
        if (best == ShardPlan::npos || attach[i] > attach[best]) {
          best = i;  // seed: lowest index; growth: most-connected, then
                     // lowest index (strict > keeps the tie deterministic)
        }
      }
      assign[best] = s;
      shard_weight += weight[best];
      ++assigned;
      for (std::size_t j = 0; j < n_sw; ++j) {
        attach[j] += conn[best * n_sw + j];
      }
    }
    weight_left -= shard_weight;
  }

  ShardPlan plan = plan_shards(spec, num_shards, std::move(assign));
  plan.requested_shards = requested;
  return plan;
}

}  // namespace edp::topo
