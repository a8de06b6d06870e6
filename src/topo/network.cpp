#include "topo/network.hpp"

#include <cassert>

namespace edp::topo {

std::size_t Network::add_switch(core::EventSwitchConfig config) {
  switches_.push_back(
      std::make_unique<core::EventSwitch>(sched_, std::move(config)));
  return switches_.size() - 1;
}

std::size_t Network::add_host(Host::Config config) {
  hosts_.push_back(std::make_unique<Host>(sched_, std::move(config)));
  return hosts_.size() - 1;
}

std::size_t Network::connect_host(std::size_t h, std::size_t s,
                                  std::uint16_t port, Link::Config lc) {
  assert(h < hosts_.size() && s < switches_.size());
  links_.push_back(std::make_unique<Link>(sched_, lc));
  Link& link = *links_.back();
  Host& host = *hosts_[h];
  core::EventSwitch& swt = *switches_[s];

  // Host on side A, switch on side B.
  // Deliveries end their callback, so they enter the switch through
  // arrive(): the slot a packet opens may run inline.
  host.connect_tx([&link](net::Packet p, sim::Time departure) {
    link.send_a_to_b(std::move(p), departure);
  });
  link.end_b().deliver = [&swt, port](net::Packet p) {
    swt.arrive(port, std::move(p));
  };
  link.end_b().status = [&swt, port](bool up) {
    swt.set_link_status(port, up);
  };
  link.end_a().deliver = [&host](net::Packet p) {
    host.receive(std::move(p));
  };
  swt.connect_link(port, [&link](net::Packet p, sim::Time departure) {
    link.send_b_to_a(std::move(p), departure);
  });
  return links_.size() - 1;
}

bool Network::attach_pcap(std::size_t l, const std::string& path) {
  assert(l < links_.size());
  auto writer = std::make_unique<net::PcapWriter>(path);
  if (!writer->ok()) {
    return false;
  }
  net::PcapWriter* pcap = writer.get();
  taps_.push_back(std::move(writer));
  Link& link = *links_[l];
  // Wrap both deliver directions; capture time is the delivery instant.
  for (Link::End* end : {&link.end_a(), &link.end_b()}) {
    auto inner = std::move(end->deliver);
    end->deliver = [this, pcap, inner = std::move(inner)](net::Packet p) {
      pcap->write(p, sched_.now());
      pcap->flush();  // a tap is a debugging aid: keep the file readable
      if (inner) {
        inner(std::move(p));
      }
    };
  }
  return true;
}

std::size_t Network::connect_switches(std::size_t s1, std::uint16_t p1,
                                      std::size_t s2, std::uint16_t p2,
                                      Link::Config lc) {
  assert(s1 < switches_.size() && s2 < switches_.size());
  links_.push_back(std::make_unique<Link>(sched_, lc));
  Link& link = *links_.back();
  core::EventSwitch& a = *switches_[s1];
  core::EventSwitch& b = *switches_[s2];

  a.connect_link(p1, [&link](net::Packet p, sim::Time departure) {
    link.send_a_to_b(std::move(p), departure);
  });
  b.connect_link(p2, [&link](net::Packet p, sim::Time departure) {
    link.send_b_to_a(std::move(p), departure);
  });
  link.end_a().deliver = [&a, p1](net::Packet p) {
    a.arrive(p1, std::move(p));
  };
  link.end_b().deliver = [&b, p2](net::Packet p) {
    b.arrive(p2, std::move(p));
  };
  link.end_a().status = [&a, p1](bool up) { a.set_link_status(p1, up); };
  link.end_b().status = [&b, p2](bool up) { b.set_link_status(p2, up); };
  return links_.size() - 1;
}

}  // namespace edp::topo
