// edp::topo — declarative topology specification and shard planning.
//
// A `Spec` describes a topology (switches, hosts, links) without binding it
// to a scheduler. The same spec can be instantiated two ways:
//
//   * `instantiate(Network&)` — the whole topology into one Network on one
//     sim::Scheduler (the sequential reference; indices match the spec 1:1);
//   * shard-aware build via `runtime::ParallelRuntime`, which instantiates
//     each shard's nodes into a per-shard Network and replaces every *cut
//     link* (a link whose endpoints land in different shards) with a pair of
//     lock-free cross-shard ring endpoints.
//
// `plan_shards` computes the partition: node -> shard assignment, the set of
// cut links, and the *lookahead* — the minimum propagation delay over cut
// links. The lookahead is the conservative synchronization window of the
// parallel runtime: a packet crossing shards can never arrive sooner than
// one lookahead after it was sent, so shards may run a full window
// independently before exchanging deliveries.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/event_switch.hpp"
#include "topo/host.hpp"
#include "topo/link.hpp"
#include "topo/network.hpp"

namespace edp::topo {

/// Declarative topology description, mirroring the Network build API.
class Spec {
 public:
  struct LinkSpec {
    /// true: endpoint A is hosts[a]; false: endpoint A is switches[a], port pa.
    bool host_side = false;
    std::size_t a = 0;
    std::uint16_t pa = 0;
    std::size_t b = 0;  ///< always a switch index
    std::uint16_t pb = 0;
    Link::Config config;
  };

  std::size_t add_switch(core::EventSwitchConfig config) {
    switches_.push_back(std::move(config));
    return switches_.size() - 1;
  }

  std::size_t add_host(Host::Config config) {
    hosts_.push_back(std::move(config));
    return hosts_.size() - 1;
  }

  /// Connect host `h` to switch `s` port `port`; returns the link index.
  std::size_t connect_host(std::size_t h, std::size_t s, std::uint16_t port,
                           Link::Config link = {});

  /// Connect switch `s1` port `p1` to switch `s2` port `p2`.
  std::size_t connect_switches(std::size_t s1, std::uint16_t p1,
                               std::size_t s2, std::uint16_t p2,
                               Link::Config link = {});

  std::size_t num_switches() const { return switches_.size(); }
  std::size_t num_hosts() const { return hosts_.size(); }
  std::size_t num_links() const { return links_.size(); }

  const core::EventSwitchConfig& switch_config(std::size_t i) const {
    return switches_[i];
  }
  const Host::Config& host_config(std::size_t i) const { return hosts_[i]; }
  const LinkSpec& link_spec(std::size_t i) const { return links_[i]; }

  /// Build the full topology into `net` (sequential reference path). The
  /// returned Network indices equal the spec indices.
  void instantiate(Network& net) const;

 private:
  std::vector<core::EventSwitchConfig> switches_;
  std::vector<Host::Config> hosts_;
  std::vector<LinkSpec> links_;
};

/// A partition of a Spec into shards, plus the derived synchronization data.
struct ShardPlan {
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  /// pair_lookahead_ps sentinel: no cut link joins the directed pair.
  static constexpr std::int64_t kNoChannel =
      std::numeric_limits<std::int64_t>::max();

  std::size_t num_shards = 1;
  std::vector<std::size_t> switch_shard;  ///< spec switch index -> shard
  std::vector<std::size_t> host_shard;    ///< spec host index -> shard
  std::vector<std::size_t> cut_links;     ///< spec link indices crossing shards
  /// Minimum delay over cut links; nullopt when there are no cut links
  /// (shards are fully independent and can run any window length).
  std::optional<sim::Time> lookahead;
  /// Directed per-pair lookahead matrix, `[src * num_shards + dst]` in
  /// picoseconds: the minimum delay over cut links carrying traffic from
  /// shard `src` into shard `dst`, or kNoChannel when no such link exists.
  /// This is the edge weight of the shard constraint graph the runtime's
  /// adaptive windows are computed on — a message from `src` sent at local
  /// time t cannot take effect in `dst` before t + pair_lookahead(src, dst).
  std::vector<std::int64_t> pair_lookahead_ps;
  /// cut_links.size() / num_links (0 when the spec has no links). Reported
  /// so partition quality is auditable in benches and BENCH_runtime.json.
  double cut_fraction = 0.0;
  /// What the caller asked for before degenerate-split clamping. The auto
  /// planner clamps num_shards to the switch count so no shard is empty
  /// (an empty shard still costs a barrier participant every window);
  /// num_shards < requested_shards means the clamp fired.
  std::size_t requested_shards = 0;
  /// Shards owning neither a switch nor a host (possible only with an
  /// explicit assignment; the auto planner always yields 0).
  std::size_t empty_shards = 0;

  bool is_cut(std::size_t link) const {
    for (std::size_t c : cut_links) {
      if (c == link) {
        return true;
      }
    }
    return false;
  }

  /// Directed lookahead from shard `src` into shard `dst`; nullopt when no
  /// cut link joins the pair in that direction.
  std::optional<sim::Time> pair_lookahead(std::size_t src,
                                          std::size_t dst) const {
    const std::int64_t ps = pair_lookahead_ps[src * num_shards + dst];
    if (ps == kNoChannel) {
      return std::nullopt;
    }
    return sim::Time::picos(ps);
  }
};

/// Compute the cut-link set and lookahead for an explicit node->shard
/// assignment (`switch_shard` must cover every switch; hosts with
/// `host_shard[i] == ShardPlan::npos` or a short/empty `host_shard` are
/// placed in the shard of the first switch they connect to, falling back to
/// round-robin for unattached hosts). Every cut link must have a positive
/// delay — zero-delay links cannot cross shards (no lookahead) — enforced
/// with an assert.
ShardPlan plan_shards(const Spec& spec, std::size_t num_shards,
                      std::vector<std::size_t> switch_shard,
                      std::vector<std::size_t> host_shard = {});

/// Default partition: topology-aware greedy graph growing. Each shard is
/// seeded with the lowest-index unassigned switch and grown by repeatedly
/// absorbing the unassigned switch with the most links into the shard
/// (ties broken by lowest index), until the shard reaches its share of the
/// total node weight (switches + attached hosts). This keeps connected
/// regions together, so far fewer links are cut than under a blind index
/// split — cut traffic and the cut fraction reported in the plan drop
/// accordingly. Deterministic: a (spec, num_shards) pair always yields the
/// same plan. `num_shards` is clamped to the switch count (empty shards
/// would barrier every window for nothing); the clamp is visible as
/// requested_shards > num_shards.
ShardPlan plan_shards(const Spec& spec, std::size_t num_shards);

}  // namespace edp::topo
