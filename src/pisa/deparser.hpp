// edp::pisa — deparser: serialize a PHV back to a wire packet.
#pragma once

#include "pisa/phv.hpp"

namespace edp::pisa {

/// Re-emits the valid headers of `phv` in canonical order (Ethernet, VLAN,
/// IPv4, TCP/UDP, app headers), followed by the unparsed payload bytes of
/// the original packet. IPv4 total_length/checksum are recomputed so a
/// program that rewrites fields always emits a consistent packet.
///
/// The packet's intrinsic metadata (arrival, trace id) is carried over.
class Deparser {
 public:
  /// Copying emit into a fresh pooled buffer; `phv` is left untouched.
  net::Packet deparse(const Phv& phv) const;

  /// Consuming emit with the same bytes and metadata as deparse(phv).
  /// When the valid headers' total size equals `payload_offset` (the
  /// program rewrote fields but not the header layout), it re-encodes them
  /// over bytes [0, payload_offset) of `phv.packet` and returns that very
  /// buffer: deparse() emits [valid headers][bytes from payload_offset],
  /// and the tail stays where it is. A changed layout (a header made valid
  /// or invalid, or a moved payload_offset such as an ndp-trim truncation)
  /// falls back to the copying emit. Only `phv.packet` is moved from; the
  /// rest of the PHV stays readable.
  net::Packet deparse(Phv&& phv) const;
};

}  // namespace edp::pisa
