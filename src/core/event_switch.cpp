#include "core/event_switch.hpp"

#include <cassert>
#include <utility>

namespace edp::core {
namespace {

tm_::TmConfig make_tm_config(const EventSwitchConfig& c) {
  tm_::TmConfig tc;
  tc.num_ports = c.num_ports;
  tc.queues_per_port = c.queues_per_port;
  tc.use_pifo = c.use_pifo;
  tc.queue_limits = c.queue_limits;
  tc.scheduler = c.tm_scheduler;
  tc.dwrr_weights = c.dwrr_weights;
  tc.buffer = c.buffer;
  return tc;
}

}  // namespace

EventSwitch::EventSwitch(sim::Scheduler& sched, EventSwitchConfig config)
    : sched_(sched),
      config_(std::move(config)),
      merger_(sched, config_.merger),
      tm_(make_tm_config(config_)),
      timers_(sched, config_.timer_resolution),
      pktgen_(sched),
      parser_(pisa::Parser::standard()) {
  ports_.resize(config_.num_ports);

  // Default delivery policy (see enable_event doc).
  if (config_.event_architecture) {
    deliver_[static_cast<std::size_t>(EventKind::kEnqueue)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kDequeue)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kBufferOverflow)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kTimer)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kControlPlane)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kLinkStatus)] = true;
    deliver_[static_cast<std::size_t>(EventKind::kUser)] = true;
  }

  merger_.on_slot = [this](SlotWork&& work) { process_slot(std::move(work)); };

  // TM events consult the dispatch plan (paper §4, Fig. 3): the default
  // plan queues a merger event (seed behavior); a fused plan runs the
  // handler inline in the slot that observed the event; a suppressed plan
  // (proven-default handler) skips the event entirely. Counters tick at
  // observe() regardless, so the plan is invisible to the replay digest.
  tm_.on_enqueue = [this](const tm_::EnqueueRecord& r) {
    observe(EventKind::kEnqueue);
    dispatch_via_plan(
        plan_.of(EventKind::kEnqueue), r,
        [this](const tm_::EnqueueRecord& rec) {
          if (program_ != nullptr) {
            program_->on_enqueue(rec, *this);
          }
        },
        [this](const tm_::EnqueueRecord& rec) {
          submit_if_enabled(Event::enqueue(rec));
        });
  };
  tm_.on_dequeue = [this](const tm_::DequeueRecord& r) {
    observe(EventKind::kDequeue);
    dispatch_via_plan(
        plan_.of(EventKind::kDequeue), r,
        [this](const tm_::DequeueRecord& rec) {
          if (program_ != nullptr) {
            program_->on_dequeue(rec, *this);
          }
        },
        [this](const tm_::DequeueRecord& rec) {
          submit_if_enabled(Event::dequeue(rec));
        });
  };
  tm_.on_drop = [this](const tm_::DropRecord& r) {
    observe(EventKind::kBufferOverflow);
    dispatch_via_plan(
        plan_.of(EventKind::kBufferOverflow), r,
        [this](const tm_::DropRecord& rec) {
          if (program_ != nullptr) {
            program_->on_overflow(rec, *this);
          }
        },
        [this](const tm_::DropRecord& rec) {
          submit_if_enabled(Event::overflow(rec));
        });
  };
  tm_.on_underflow = [this](const tm_::UnderflowRecord& r) {
    observe(EventKind::kBufferUnderflow);
    dispatch_via_plan(
        plan_.of(EventKind::kBufferUnderflow), r,
        [this](const tm_::UnderflowRecord& rec) {
          if (program_ != nullptr) {
            program_->on_underflow(rec, *this);
          }
        },
        [this](const tm_::UnderflowRecord& rec) {
          submit_if_enabled(Event::underflow(rec));
        });
  };

  // Timer expirations arrive coalesced: one burst per timer-block wake,
  // handed to the merger with a single submit_events call (one slot pump)
  // instead of a merger round-trip per timer.
  timers_.on_expire = [this](const TimerEventData* d, std::size_t n) {
    timer_burst_.clear();
    const bool deliver = deliver_[static_cast<std::size_t>(EventKind::kTimer)];
    for (std::size_t i = 0; i < n; ++i) {
      observe(EventKind::kTimer);
      if (deliver) {
        timer_burst_.push_back(Event::timer(d[i], sched_.now()));
      }
    }
    merger_.submit_events(timer_burst_.data(), timer_burst_.size());
  };

  pktgen_.on_generate = [this](GeneratorId, net::Packet pkt) {
    observe(EventKind::kGeneratedPacket);
    ++counters_.generated;
    pkt.meta().ingress_port = kPortGenerated;
    pkt.meta().arrival = sched_.now();
    pkt.meta().trace_id = next_trace_id_++;
    merger_.submit_packet(std::move(pkt), PacketOrigin::kGenerated);
  };
}

void EventSwitch::set_program(EventProgram* program) {
  program_ = program;
  if (program_ != nullptr) {
    program_->on_attach(*this);
  }
}

void EventSwitch::connect_tx(std::uint16_t port,
                             std::function<void(net::Packet)> tx) {
  assert(port < ports_.size());
  ports_[port].tx = std::move(tx);
  ports_[port].link = nullptr;
}

void EventSwitch::connect_link(
    std::uint16_t port, std::function<void(net::Packet, sim::Time)> link) {
  assert(port < ports_.size());
  ports_[port].link = std::move(link);
  ports_[port].tx = nullptr;
}

void EventSwitch::stamp_arrival(std::uint16_t port, net::Packet& packet) {
  assert(port < ports_.size());
  ++counters_.rx_packets;
  observe(EventKind::kIngressPacket);
  packet.meta().ingress_port = port;
  packet.meta().arrival = sched_.now();
  packet.meta().trace_id = next_trace_id_++;
}

void EventSwitch::receive(std::uint16_t port, net::Packet packet) {
  stamp_arrival(port, packet);
  merger_.submit_packet(std::move(packet), PacketOrigin::kIngress);
}

void EventSwitch::arrive(std::uint16_t port, net::Packet packet) {
  stamp_arrival(port, packet);
  merger_.submit_arrival(std::move(packet));
}

void EventSwitch::set_link_status(std::uint16_t port, bool up) {
  assert(port < ports_.size());
  if (ports_[port].link_up == up) {
    return;
  }
  ports_[port].link_up = up;
  observe(EventKind::kLinkStatus);
  submit_if_enabled(
      Event::link_status(LinkStatusEventData{port, up, sched_.now()}));
  if (up) {
    try_transmit(port);
  }
}

bool EventSwitch::control_event(const ControlEventData& data) {
  observe(EventKind::kControlPlane);
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return false;
  }
  if (plan_.of(EventKind::kControlPlane) == DispatchMode::kSuppressed) {
    return true;  // proven-default handler: accepted, nothing would run
  }
  return merger_.submit_event(Event::control(data, sched_.now()));
}

void EventSwitch::inject_from_control_plane(net::Packet packet) {
  ++counters_.rx_packets;
  observe(EventKind::kIngressPacket);
  packet.meta().ingress_port = kPortCpu;
  packet.meta().arrival = sched_.now();
  packet.meta().trace_id = next_trace_id_++;
  merger_.submit_packet(std::move(packet), PacketOrigin::kIngress);
}

void EventSwitch::set_multicast_group(std::uint16_t group_id,
                                      std::vector<std::uint16_t> ports) {
  assert(group_id != 0 && "multicast group 0 means 'no multicast'");
  mcast_[group_id] = std::move(ports);
}

void EventSwitch::register_aggregated(AggregatedRegister& reg) {
  aggregated_.push_back(&reg);
}

void EventSwitch::set_dispatch_plan(const DispatchPlan& plan) {
  plan_ = plan;
  // Suppressed kinds outside the TM callbacks (timer, link status, control,
  // user, transmit) are filtered at their existing delivery gates; fusion
  // is only defined for TM events, so any other kFused entry degrades to
  // queued delivery. One-way by design: install the plan once, after
  // set_program and before traffic.
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    if (plan_.mode[k] == DispatchMode::kSuppressed) {
      deliver_[k] = false;
    }
  }
}

void EventSwitch::settle() {
  for (auto* reg : aggregated_) {
    reg->drain_all(merger_.current_cycle());
  }
}

bool EventSwitch::link_up(std::uint16_t port) const {
  return port < ports_.size() && ports_[port].link_up;
}

std::size_t EventSwitch::queue_bytes(std::uint16_t port,
                                     std::uint8_t qid) const {
  return tm_.queue_bytes(port, qid);
}

bool EventSwitch::inject_packet(net::Packet packet) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return false;
  }
  observe(EventKind::kGeneratedPacket);
  ++counters_.generated;
  packet.meta().ingress_port = kPortGenerated;
  packet.meta().arrival = sched_.now();
  packet.meta().trace_id = next_trace_id_++;
  return merger_.submit_packet(std::move(packet), PacketOrigin::kGenerated);
}

bool EventSwitch::send_packet(net::Packet packet, std::uint16_t port,
                              std::uint8_t qid) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return false;
  }
  if (port >= ports_.size() || qid >= config_.queues_per_port) {
    ++counters_.bad_port_drops;
    return false;
  }
  tm_::QueuedPacket qp;
  qp.packet = std::move(packet);
  const bool ok = tm_.enqueue(port, qid, std::move(qp), {}, sched_.now());
  if (ok) {
    try_transmit(port);
  }
  return ok;
}

TimerId EventSwitch::set_periodic_timer(sim::Time period,
                                        std::uint64_t cookie) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return 0;
  }
  return timers_.set_periodic(period, cookie);
}

TimerId EventSwitch::set_oneshot_timer(sim::Time delay,
                                       std::uint64_t cookie) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return 0;
  }
  return timers_.set_oneshot(delay, cookie);
}

bool EventSwitch::cancel_timer(TimerId id) { return timers_.cancel(id); }

GeneratorId EventSwitch::add_generator(PacketGenerator::Config config) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return 0;
  }
  return pktgen_.add(std::move(config));
}

void EventSwitch::trigger_generator(GeneratorId id, std::uint64_t n) {
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return;
  }
  pktgen_.trigger(id, n);
}

bool EventSwitch::set_generator_template(GeneratorId id, net::Packet tmpl) {
  return pktgen_.set_template(id, std::move(tmpl));
}

bool EventSwitch::raise_user_event(const UserEventData& data) {
  observe(EventKind::kUser);
  if (!config_.event_architecture) {
    ++counters_.refused_ops;
    return false;
  }
  if (plan_.of(EventKind::kUser) == DispatchMode::kSuppressed) {
    return true;  // proven-default handler: accepted, nothing would run
  }
  return merger_.submit_event(Event::user(data, sched_.now()));
}

void EventSwitch::notify_control_plane(const ControlEventData& msg) {
  ++counters_.punts;
  if (on_punt) {
    on_punt(msg);
  }
}

void EventSwitch::enable_event(EventKind kind, bool enabled) {
  if (!config_.event_architecture) {
    return;  // baseline architectures have no event delivery to enable
  }
  deliver_[static_cast<std::size_t>(kind)] = enabled;
  if (kind == EventKind::kPacketTransmitted && enabled) {
    // A packet already on the wire raises its transmit event too.
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      const PortState& ps = ports_[p];
      if (ps.owed && !ps.completion && sched_.now() < ps.departs) {
        schedule_completion(static_cast<std::uint16_t>(p), std::nullopt);
      }
    }
  }
}

bool EventSwitch::event_enabled(EventKind kind) const {
  return deliver_[static_cast<std::size_t>(kind)];
}

std::string EventSwitch::describe() const {
  credit_departed();
  char buf[512];
  std::string out = config_.name + " (" +
                    (config_.event_architecture ? "event-driven"
                                                : "baseline PISA") +
                    ", shard " + std::to_string(config_.shard_id) + ")\n";
  std::snprintf(buf, sizeof buf,
                "  packets: rx=%llu tx=%llu (%.3f MB) drops: parse=%llu "
                "program=%llu bad_port=%llu tm=%llu\n",
                static_cast<unsigned long long>(counters_.rx_packets),
                static_cast<unsigned long long>(counters_.tx_packets),
                static_cast<double>(counters_.tx_bytes) / 1e6,
                static_cast<unsigned long long>(counters_.parse_drops),
                static_cast<unsigned long long>(counters_.program_drops),
                static_cast<unsigned long long>(counters_.bad_port_drops),
                static_cast<unsigned long long>(tm_.drops_total()));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  slots: %llu total, %llu packet, %llu carrier; events "
      "piggybacked=%llu carried=%llu; recirc=%llu gen=%llu punts=%llu\n",
      static_cast<unsigned long long>(merger_.slots_total()),
      static_cast<unsigned long long>(merger_.slots_with_packet()),
      static_cast<unsigned long long>(merger_.slots_carrier()),
      static_cast<unsigned long long>(merger_.events_piggybacked()),
      static_cast<unsigned long long>(merger_.events_on_carrier()),
      static_cast<unsigned long long>(counters_.recirculated),
      static_cast<unsigned long long>(counters_.generated),
      static_cast<unsigned long long>(counters_.punts));
  out += buf;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const auto& st = merger_.kind_stats(kind);
    if (counters_.observed[k] == 0 && st.submitted == 0) {
      continue;
    }
    std::snprintf(buf, sizeof buf,
                  "  %-22s observed=%llu delivered=%llu dropped=%llu "
                  "wait_mean=%s\n",
                  std::string(to_string(kind)).c_str(),
                  static_cast<unsigned long long>(counters_.observed[k]),
                  static_cast<unsigned long long>(st.delivered),
                  static_cast<unsigned long long>(st.dropped),
                  st.wait_mean().to_string().c_str());
    out += buf;
  }
  return out;
}

std::uint64_t EventSwitch::cycles_elapsed() const {
  if (!saw_slot_) {
    return 0;
  }
  return merger_.current_cycle() - first_slot_cycle_ + 1;
}

void EventSwitch::submit_if_enabled(Event ev) {
  if (!deliver_[static_cast<std::size_t>(ev.kind)]) {
    return;
  }
  merger_.submit_event(std::move(ev));
}

void EventSwitch::process_slot(SlotWork&& work) {
  if (!saw_slot_) {
    saw_slot_ = true;
    first_slot_cycle_ = work.cycle;
  }

  // §4: spare cycles between this slot and the previous one are drain
  // bandwidth for aggregated state. (Credited at the current cycle, so the
  // measured staleness is a slight over-estimate — an upper bound.)
  if (!aggregated_.empty()) {
    std::uint64_t budget = merger_.last_gap_cycles();
    // A slot without a packet leaves the main register's packet-thread
    // port free this cycle as well.
    if (!work.packet) {
      budget += 1;
    }
    if (budget > 0) {
      for (auto* reg : aggregated_) {
        reg->drain(work.cycle, budget);
      }
    }
  }

  // Deliver the slot's events to the program's handlers, then hand the
  // slot's event vector back to the merger for reuse. The packet (if any)
  // is detached first: the SlotWork shell is dead after recycle().
  std::optional<net::Packet> packet = std::move(work.packet);
  const PacketOrigin origin = work.origin;
  for (const Event& ev : work.events) {
    dispatch_event(ev);
  }
  merger_.recycle(std::move(work));

  // Process the slot's packet through the P4 pipeline.
  if (!packet) {
    return;
  }
  pisa::Phv phv = parser_.parse(std::move(*packet));
  if (phv.parse_error) {
    ++counters_.parse_drops;
    return;
  }
  if (program_ != nullptr) {
    switch (origin) {
      case PacketOrigin::kIngress:
        program_->on_ingress(phv, *this);
        break;
      case PacketOrigin::kRecirculated:
        observe(EventKind::kRecirculatedPacket);
        program_->on_recirculate(phv, *this);
        break;
      case PacketOrigin::kGenerated:
        program_->on_generated(phv, *this);
        break;
    }
  }
  route(std::move(phv));
}

void EventSwitch::dispatch_event(const Event& ev) {
  if (program_ == nullptr) {
    return;
  }
  switch (ev.kind) {
    case EventKind::kEnqueue:
      program_->on_enqueue(std::get<tm_::EnqueueRecord>(ev.data), *this);
      break;
    case EventKind::kDequeue:
      program_->on_dequeue(std::get<tm_::DequeueRecord>(ev.data), *this);
      break;
    case EventKind::kBufferOverflow:
      program_->on_overflow(std::get<tm_::DropRecord>(ev.data), *this);
      break;
    case EventKind::kBufferUnderflow:
      program_->on_underflow(std::get<tm_::UnderflowRecord>(ev.data), *this);
      break;
    case EventKind::kTimer:
      program_->on_timer(std::get<TimerEventData>(ev.data), *this);
      break;
    case EventKind::kControlPlane:
      program_->on_control(std::get<ControlEventData>(ev.data), *this);
      break;
    case EventKind::kLinkStatus:
      program_->on_link_status(std::get<LinkStatusEventData>(ev.data), *this);
      break;
    case EventKind::kUser:
      program_->on_user(std::get<UserEventData>(ev.data), *this);
      break;
    case EventKind::kPacketTransmitted:
      program_->on_transmit(std::get<TransmitRecord>(ev.data), *this);
      break;
    default:
      break;  // packet events never travel the event path
  }
}

void EventSwitch::route(pisa::Phv&& phv) {
  if (phv.std_meta.drop) {
    ++counters_.program_drops;
    return;
  }
  if (phv.std_meta.recirculate) {
    if (phv.packet.meta().recirc_count >= config_.max_recirculations) {
      ++counters_.recirc_loop_drops;  // loop guard, as real targets bound
      return;
    }
    ++counters_.recirculated;
    phv.std_meta.recirculate = false;
    net::Packet pkt = deparser_.deparse(std::move(phv));
    ++pkt.meta().recirc_count;
    merger_.submit_packet(std::move(pkt), PacketOrigin::kRecirculated);
    return;
  }
  tm_::EventMetaWords enq_meta{};
  tm_::EventMetaWords deq_meta{};
  for (std::size_t i = 0; i < 4; ++i) {
    enq_meta[i] = phv.user[kEnqMetaBase + i];
    deq_meta[i] = phv.user[kDeqMetaBase + i];
  }
  const std::uint8_t qid = phv.std_meta.qid;

  if (phv.std_meta.mcast_group != 0) {
    // Packet replication engine: the packet is deparsed once (in place when
    // its layout is unchanged) and every group member's queue gets its own
    // copy in a pooled buffer.
    const auto it = mcast_.find(phv.std_meta.mcast_group);
    if (it == mcast_.end()) {
      ++counters_.bad_port_drops;
      return;
    }
    const std::uint64_t rank = phv.std_meta.pifo_rank;
    const net::Packet wire = deparser_.deparse(std::move(phv));
    for (const std::uint16_t port : it->second) {
      if (port >= ports_.size() || qid >= config_.queues_per_port) {
        ++counters_.bad_port_drops;
        continue;
      }
      tm_::QueuedPacket qp;
      qp.rank = rank;
      qp.deq_meta = deq_meta;
      qp.packet = net::Packet(wire);
      if (tm_.enqueue(port, qid, std::move(qp), enq_meta, sched_.now())) {
        try_transmit(port);
      }
      // On failure the TM has already fired the overflow event.
    }
    return;
  }

  // Unicast: the packet waits in the traffic manager in the (pooled)
  // buffer it arrived in — the deparser re-encodes the headers over it
  // unless the program changed the header layout. The buffer returns to
  // the pool where the packet leaves the simulation (a sink host or a
  // drop), so the pool grows once, to the in-flight peak.
  const std::uint16_t port = phv.std_meta.egress_port;
  if (port >= ports_.size() || qid >= config_.queues_per_port) {
    ++counters_.bad_port_drops;
    return;
  }
  tm_::QueuedPacket qp;
  qp.rank = phv.std_meta.pifo_rank;
  qp.deq_meta = deq_meta;
  qp.packet = deparser_.deparse(std::move(phv));
  if (tm_.enqueue(port, qid, std::move(qp), enq_meta, sched_.now())) {
    try_transmit(port);
  }
  // On failure the TM has already fired the overflow event.
}

void EventSwitch::try_transmit(std::uint16_t port) {
  PortState& ps = ports_[port];
  // Loop (not recursion): the egress pipeline may drop many consecutive
  // queued packets, and the next candidate must be served from the same
  // activation without growing the stack.
  while (ps.link_up && !tm_.port_empty(port)) {
    if (ps.completion) {
      return;  // the completion serves this port next
    }
    if (ps.owed) {
      if (sched_.now() < ps.departs) {
        // A packet is queued behind the one on the wire: its completion
        // starts the next serialization at the departure.
        schedule_completion(port, std::nullopt);
        return;
      }
      credit(port);
    }
    auto qp = tm_.dequeue(port, sched_.now());
    assert(qp.has_value());
    net::Packet pkt = std::move(qp->packet);

    if (config_.egress_pipeline && program_ != nullptr) {
      observe(EventKind::kEgressPacket);
      pisa::Phv phv = parser_.parse(std::move(pkt));
      if (!phv.parse_error) {
        phv.std_meta.egress_port = port;
        phv.std_meta.enqueue_timestamp = qp->enqueue_time;
        program_->on_egress(phv, *this);
        if (phv.std_meta.drop) {
          ++counters_.program_drops;
          continue;  // port still free; serve the next packet
        }
        if (phv.std_meta.recirc_clone &&
            phv.packet.meta().recirc_count < config_.max_recirculations) {
          // Tofino-style egress mirror to the recirculation port (§6):
          // a copy re-enters ingress — this is how a baseline
          // architecture emulates dequeue events, paying a pipeline slot
          // per cloned packet.
          phv.std_meta.recirc_clone = false;
          net::Packet clone = deparser_.deparse(phv);
          ++clone.meta().recirc_count;
          ++counters_.recirculated;
          merger_.submit_packet(std::move(clone),
                                PacketOrigin::kRecirculated);
        }
        pkt = deparser_.deparse(std::move(phv));
      } else {
        pkt = std::move(phv.packet);  // pass through unmodified
      }
    }
    start_transmit(port, std::move(pkt));
  }
}

void EventSwitch::start_transmit(std::uint16_t port, net::Packet pkt) {
  PortState& ps = ports_[port];
  ps.bytes = static_cast<std::uint32_t>(pkt.size());
  ps.departs =
      sched_.now() + sim::serialization_time(ps.bytes, config_.port_rate_bps);
  ps.owed = true;
  if (ps.tx) {
    schedule_completion(port, std::move(pkt));
    return;
  }
  // A departure-stamped consumer takes the packet now. The departure then
  // needs a callback only to raise the transmit event, or (try_transmit)
  // to start a packet queued behind this one; otherwise counters() credits
  // it once it has passed.
  if (ps.link) {
    ps.link(std::move(pkt), ps.departs);
  }
  if (deliver_[static_cast<std::size_t>(EventKind::kPacketTransmitted)]) {
    schedule_completion(port, std::nullopt);
  }
}

void EventSwitch::schedule_completion(std::uint16_t port,
                                      std::optional<net::Packet> handoff) {
  PortState& ps = ports_[port];
  assert(ps.owed && !ps.completion);
  ps.completion = true;
  sched_.at(ps.departs, [this, port, p = std::move(handoff)]() mutable {
    complete_transmit(port, std::move(p));
  });
}

void EventSwitch::complete_transmit(std::uint16_t port,
                                    std::optional<net::Packet> handoff) {
  PortState& ps = ports_[port];
  ps.completion = false;
  if (handoff && ps.tx) {
    ps.tx(std::move(*handoff));
  }
  credit(port);
  submit_if_enabled(
      Event::transmitted(TransmitRecord{port, ps.bytes, sched_.now()}));
  try_transmit(port);
}

void EventSwitch::credit(std::uint16_t port) const {
  PortState& ps = ports_[port];
  ps.owed = false;
  ++counters_.tx_packets;
  counters_.tx_bytes += ps.bytes;
  ++counters_.observed[static_cast<std::size_t>(
      EventKind::kPacketTransmitted)];
  if (on_departure) {
    on_departure(TransmitRecord{port, ps.bytes, ps.departs});
  }
}

void EventSwitch::credit_departed() const {
  const sim::Time now = sched_.now();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const PortState& ps = ports_[p];
    if (ps.owed && !ps.completion && ps.departs <= now) {
      credit(static_cast<std::uint16_t>(p));
    }
  }
}

}  // namespace edp::core
