#include "core/event_merger.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace edp::core {

EventMerger::EventMerger(sim::Scheduler& sched, MergerConfig config)
    : sched_(sched),
      config_(config),
      event_vectors_(/*max_idle=*/64,
                     [](std::vector<Event>& v) { v.clear(); }) {
  assert(config_.cycle_time > sim::Time::zero());
  assert(config_.clock_phase >= sim::Time::zero() &&
         config_.clock_phase < config_.cycle_time);
  packets_.reserve(config_.packet_fifo_depth);
  for (auto& fifo : fifos_) {
    fifo.reserve(config_.event_fifo_depth);
  }
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    order_[k] = k;
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return config_.priority[a] > config_.priority[b];
                   });
  for (std::size_t r = 0; r < kNumEventKinds; ++r) {
    rank_[order_[r]] = r;
  }
}

bool EventMerger::admit_packet(net::Packet&& packet, PacketOrigin origin) {
  if (packets_.size() >= config_.packet_fifo_depth) {
    ++packet_drops_;
    return false;
  }
  packets_.push_back(PendingPacket{std::move(packet), origin});
  return true;
}

bool EventMerger::submit_packet(net::Packet packet, PacketOrigin origin) {
  if (!admit_packet(std::move(packet), origin)) {
    return false;
  }
  pump();
  return true;
}

bool EventMerger::submit_arrival(net::Packet packet) {
  if (!admit_packet(std::move(packet), PacketOrigin::kIngress)) {
    return false;
  }
  if (!slot_scheduled_ && !in_slot_ &&
      sched_.try_advance(next_slot_time())) {
    run_slots();
  } else {
    pump();
  }
  return true;
}

bool EventMerger::admit_event(Event&& event) {
  const auto k = static_cast<std::size_t>(event.kind);
  auto& st = stats_[k];
  ++st.submitted;
  auto& fifo = fifos_[k];
  if (fifo.size() >= config_.event_fifo_depth) {
    ++st.dropped;
    return false;
  }
  fifo.push_back(std::move(event));
  pending_ranks_ |= std::uint32_t{1} << rank_[k];
  return true;
}

bool EventMerger::submit_event(Event event) {
  const bool ok = admit_event(std::move(event));
  if (ok) {
    pump();
  }
  return ok;
}

std::size_t EventMerger::submit_events(Event* events, std::size_t n) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (admit_event(std::move(events[i]))) {
      ++accepted;
    }
  }
  if (accepted > 0) {
    pump();
  }
  return accepted;
}

std::size_t EventMerger::event_backlog() const {
  std::size_t n = 0;
  for (const auto& f : fifos_) {
    n += f.size();
  }
  return n;
}

sim::Time EventMerger::next_slot_time() const {
  const sim::Time cycle = config_.cycle_time;
  const std::int64_t rel = sched_.now().ps() - config_.clock_phase.ps();
  const std::int64_t k =
      rel <= 0 ? 0 : (rel + cycle.ps() - 1) / cycle.ps();
  const sim::Time aligned(k * cycle.ps() + config_.clock_phase.ps());
  return std::max(next_slot_time_, aligned);
}

void EventMerger::pump() {
  if (slot_scheduled_ || in_slot_ || !has_work()) {
    return;
  }
  // Slots stay on this switch's clock grid (k * cycle + phase).
  slot_scheduled_ = true;
  sched_.at(next_slot_time(), [this] { run_slot(); });
}

void EventMerger::run_slot() {
  slot_scheduled_ = false;
  if (has_work()) {
    run_slots();
  }
}

void EventMerger::run_slots() {
  // A slot scheduled now would carry the newest sequence number, so it
  // would fire next exactly when try_advance() finds nothing else due by
  // its time: run it here instead. Pumps from inside the body were
  // deferred to this point, so the slot is minted only once the body is
  // done, as the original per-slot pump at the body's end did.
  do {
    slot_body();
  } while (has_work() && sched_.try_advance(next_slot_time()));
  pump();
}

void EventMerger::slot_body() {
  in_slot_ = true;
  SlotWork work;
  work.events = event_vectors_.acquire();  // recycled capacity, cleared
  work.time = sched_.now();
  work.cycle = cycle_at(work.time);

  // Idle-cycle accounting for the aggregation drain.
  last_gap_cycles_ = first_slot_done_ && work.cycle > last_slot_cycle_ + 1
                         ? work.cycle - last_slot_cycle_ - 1
                         : 0;
  last_slot_cycle_ = work.cycle;
  first_slot_done_ = true;

  // Take the ingress packet, if any.
  if (!packets_.empty()) {
    work.packet = std::move(packets_.front().packet);
    work.origin = packets_.front().origin;
    packets_.pop_front();
    ++slots_with_packet_;
  }

  // Attach pending events: up to `events_per_kind_per_slot` from each
  // kind's FIFO (the per-kind metadata fields of the SUME event bus),
  // subject to the shared per-slot budget. Kinds are visited in
  // programmer-assigned priority order (precomputed at construction;
  // stable by kind index on ties), so urgent events win the metadata
  // space when it is scarce (§4 future work on access scheduling). Only
  // non-empty kinds are visited: an empty FIFO attaches nothing.
  std::size_t budget = config_.events_per_slot;
  for (std::uint32_t ranks = pending_ranks_; ranks != 0 && budget > 0;
       ranks &= ranks - 1) {
    const auto r = static_cast<std::size_t>(std::countr_zero(ranks));
    auto& fifo = fifos_[order_[r]];
    for (std::size_t i = 0; i < config_.events_per_kind_per_slot &&
                            !fifo.empty() && budget > 0;
         ++i, --budget) {
      Event ev = std::move(fifo.front());
      fifo.pop_front();
      auto& st = stats_[static_cast<std::size_t>(ev.kind)];
      ++st.delivered;
      const sim::Time wait = work.time - ev.created;
      st.wait_sum += wait;
      st.wait_max = std::max(st.wait_max, wait);
      work.events.push_back(std::move(ev));
      if (work.packet) {
        ++events_piggybacked_;
      } else {
        ++events_on_carrier_;
      }
    }
    if (fifo.empty()) {
      pending_ranks_ &= ~(std::uint32_t{1} << r);
    }
  }

  work.carrier = !work.packet && !work.events.empty();
  if (work.carrier) {
    ++slots_carrier_;
  }
  ++slots_total_;

  next_slot_time_ = work.time + config_.cycle_time;

  if (on_slot) {
    on_slot(std::move(work));
  } else {
    recycle(std::move(work));
  }
  in_slot_ = false;
}

}  // namespace edp::core
