#include "topo/link.hpp"

#include <cassert>
#include <utility>

namespace edp::topo {

void Link::set_up(bool up) {
  if (up_ == up) {
    return;
  }
  up_ = up;
  const sim::Time now = sched_.now();
  while (log_size_ > 0 && log_[log_head_].at <= now - config_.delay) {
    log_head_ = (log_head_ + 1) % kLogCapacity;
    --log_size_;
  }
  if (log_size_ == kLogCapacity) {
    assert(false && "link state changed too often within one delay");
    log_head_ = (log_head_ + 1) % kLogCapacity;
    --log_size_;
  }
  log_[(log_head_ + log_size_) % kLogCapacity] = Change{now, up};
  ++log_size_;
  if (a_.status) {
    a_.status(up);
  }
  if (b_.status) {
    b_.status(up);
  }
}

bool Link::up_at(sim::Time t) const {
  // Changes alternate, so the state at t is the opposite of the first
  // change after t — or the current state when there is none.
  for (std::size_t i = 0; i < log_size_; ++i) {
    const Change& c = log_[(log_head_ + i) % kLogCapacity];
    if (c.at > t) {
      return !c.up;
    }
  }
  return up_;
}

void Link::send(net::Packet& p, sim::Time departure, bool to_b) {
  assert(departure >= sched_.now());
  // The End outlives the scheduled delivery because the Link owns it for
  // the simulation's life.
  End& dst = to_b ? b_ : a_;
  sched_.at(departure + config_.delay,
            [this, &dst, departure, pkt = std::move(p)]() mutable {
              if (!up_at(departure)) {
                ++dropped_down_;
                return;
              }
              ++delivered_;
              if (dst.deliver) {
                dst.deliver(std::move(pkt));
              }
            });
}

}  // namespace edp::topo
