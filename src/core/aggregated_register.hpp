// edp::core — single-ported state with aggregation registers (paper §4,
// Figure 3).
//
// High line-rate devices cannot afford multi-ported memory, so the logical
// event pipelines are merged into one physical pipeline and state must be
// maintained with *single-ported* register arrays:
//
//   * Packet-event read-modify-writes always operate on the MAIN register
//     (the algorithmic state, e.g. queue size).
//   * Enqueue / dequeue event updates are AGGREGATED into two side register
//     arrays (one RMW on the side array coalesces with any pending delta
//     for the same index).
//   * During idle clock cycles — when the workload has larger-than-minimum
//     packets or the pipeline runs faster than line rate — the aggregated
//     deltas are applied to the main register, one index per spare
//     main-port cycle.
//
// The consequence the paper analyzes is *bounded staleness*: the main
// register may lag the true value while deltas are pending, and the lag is
// bounded iff drain bandwidth exceeds the event update rate. This class
// tracks backlog and staleness (in cycles) precisely so the F3/A1 benches
// can reproduce that analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/register_probe.hpp"
#include "pisa/register.hpp"
#include "sim/ring_queue.hpp"

namespace edp::core {

/// Which aggregation array the idle-cycle drain favors (paper §4 future
/// work: "how memory accesses are scheduled, depending on which events are
/// the most important and urgent"). kRoundRobin alternates fairly;
/// kEnqueueFirst / kDequeueFirst give one array strict priority (e.g. a
/// program that must never over-estimate occupancy drains dequeues first).
enum class DrainPolicy : std::uint8_t {
  kRoundRobin,
  kEnqueueFirst,
  kDequeueFirst,
};

class AggregatedRegister {
 public:
  AggregatedRegister(std::string name, std::size_t size,
                     DrainPolicy policy = DrainPolicy::kRoundRobin);

  const std::string& name() const { return name_; }
  std::size_t size() const { return main_.size(); }

  // ---- packet thread (main register, one port per cycle) -------------------

  /// Read the algorithmic state as a packet event sees it (possibly stale).
  std::int64_t packet_read(std::size_t idx, std::uint64_t cycle);

  /// Packet-event RMW on the main register.
  std::int64_t packet_add(std::size_t idx, std::int64_t delta,
                          std::uint64_t cycle);

  // ---- event threads (aggregation arrays, own ports) -----------------------

  /// Enqueue-event update: coalesce `delta` into the enqueue aggregation
  /// array (always succeeds; same-index deltas merge, as in hardware).
  void enqueue_add(std::size_t idx, std::int64_t delta, std::uint64_t cycle);

  /// Dequeue-event update into the dequeue aggregation array.
  void dequeue_add(std::size_t idx, std::int64_t delta, std::uint64_t cycle);

  // ---- idle-cycle drain -----------------------------------------------------

  /// Apply up to `budget` pending aggregated indices to the main register
  /// (each costs one main-register port; the EventSwitch calls this with
  /// the spare bandwidth of the current cycle). Returns entries applied.
  std::size_t drain(std::uint64_t cycle, std::size_t budget);

  /// Drain everything regardless of port budget (end-of-run settling in
  /// tests/benches — not something hardware can do instantly).
  void drain_all(std::uint64_t cycle);

  // ---- verification & reporting ---------------------------------------------

  /// Ground truth: main + all pending deltas (what a zero-staleness
  /// multi-ported implementation would hold).
  std::int64_t true_value(std::size_t idx) const;

  /// What the packet thread would read right now (no port accounting).
  std::int64_t main_value(std::size_t idx) const {
    return main_.read(idx);
  }

  /// Staleness awareness (paper §4: "the programmer needs to be aware of
  /// the staleness"): the exact error of a packet-thread read of `idx`
  /// right now — the sum of deltas still waiting in the aggregation
  /// arrays. A program can read this alongside main_value to bound its
  /// decision error (e.g. "occupancy is X, overstated by at most E").
  std::int64_t pending_error(std::size_t idx) const;

  DrainPolicy drain_policy() const { return policy_; }

  /// Pending dirty indices across both aggregation arrays.
  std::size_t backlog() const {
    return enq_.fifo.size() + deq_.fifo.size();
  }

  /// Age in cycles of the oldest pending delta (0 if none).
  std::uint64_t oldest_age(std::uint64_t cycle) const;

  /// Staleness of drained entries, in cycles (recorded at application).
  std::uint64_t drained() const { return drained_; }
  std::uint64_t staleness_max() const { return staleness_max_; }
  /// Largest |pending_error| any cell ever reached — the worst observed
  /// deviation between the main array and the true value, sampled at every
  /// aggregation update. The dynamic ground truth for the value analysis's
  /// static staleness-value-error bound.
  std::int64_t value_error_max() const { return value_error_max_; }
  double staleness_mean() const {
    return drained_ == 0
               ? 0.0
               : static_cast<double>(staleness_sum_) /
                     static_cast<double>(drained_);
  }
  std::size_t backlog_max() const { return backlog_max_; }

  const pisa::PortUsage& main_ports() const { return main_.ports(); }

  /// Modeled footprint: main + both aggregation arrays (the §4 trade:
  /// 3x single-ported area instead of one multi-ported array).
  std::size_t bytes() const { return 3 * main_.bytes(); }

 private:
  /// One aggregation array: coalesced deltas + FIFO of dirty indices.
  /// `in_fifo` keeps an index in the FIFO at most once, so a FIFO reserved
  /// to the array size never grows.
  struct AggArray {
    explicit AggArray(std::size_t size)
        : delta(size, 0), dirty_since(size, 0), in_fifo(size, 0), ports(1) {
      fifo.reserve(size);
    }
    std::vector<std::int64_t> delta;
    std::vector<std::uint64_t> dirty_since;  ///< cycle the index went dirty
    std::vector<std::uint8_t> in_fifo;
    sim::RingQueue<std::uint32_t> fifo;      ///< dirty indices, oldest first
    pisa::PortUsage ports;
  };

  void agg_add(AggArray& arr, std::size_t idx, std::int64_t delta,
               std::uint64_t cycle);
  /// Report one access to the installed RegisterProbe, if any.
  void probe(RegisterRealization realization, RegisterOp op,
             std::size_t idx) const;
  /// Report an RMW with its observed old/new values (sum updates, so the
  /// probe's linearity flag stays true).
  void probe_rmw(RegisterRealization realization, std::size_t idx,
                 std::int64_t old_v, std::int64_t new_v) const;
  /// Apply the oldest entry of `arr` to main; false if arr is clean.
  bool apply_one(AggArray& arr, std::uint64_t cycle);
  void note_backlog();

  std::string name_;
  DrainPolicy policy_;
  pisa::Register<std::int64_t> main_;
  AggArray enq_;
  AggArray deq_;
  bool drain_from_enq_next_ = true;  ///< round-robin between the arrays

  std::uint64_t drained_ = 0;
  std::uint64_t staleness_sum_ = 0;
  std::uint64_t staleness_max_ = 0;
  std::size_t backlog_max_ = 0;
  std::int64_t value_error_max_ = 0;
};

}  // namespace edp::core
