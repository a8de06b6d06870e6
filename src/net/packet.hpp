// edp::net — the wire packet.
//
// A `Packet` is an owned byte buffer plus the intrinsic metadata a switch
// port attaches on arrival (timestamp, ingress port, unique trace id). All
// multi-byte accessors are big-endian, i.e. network order, so serialized
// buffers look exactly like real wire captures.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/object_pool.hpp"
#include "sim/time.hpp"

namespace edp::net {

/// Process-wide counters for the pooled packet payload buffers (see
/// packet.cpp). `allocated` is the number of acquires the pool could not
/// serve from a recycled buffer; `dropped` counts buffers the pool turned
/// away when full (0 while every packet keeps one buffer, source to sink).
/// These see only the pool — the heap counter (sim/heap_count.hpp) sees
/// every allocation.
sim::PoolStats packet_buffer_pool_stats();

/// Intrinsic (non-programmable) packet metadata, set by the device.
struct PacketMeta {
  sim::Time arrival = sim::Time::zero();  ///< time the first bit arrived
  std::uint16_t ingress_port = 0;         ///< device port of arrival
  std::uint64_t trace_id = 0;             ///< unique id for tracing/tests
  std::uint8_t recirc_count = 0;          ///< times re-submitted to ingress
};

/// An owned, mutable packet. Cheap to move; copying duplicates the payload
/// (used for multicast/broadcast and control-plane punts).
///
/// Payload buffers are pooled: the sized constructor draws a recycled
/// buffer and the destructor returns it, so in steady state packet churn
/// performs no heap allocation. Moves are noexcept (required by the
/// scheduler's InlineCallback slots, which relocate on growth).
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  /// An all-zero packet of `size` bytes (e.g. padding, carrier frames).
  /// Draws its buffer from the process-wide pool.
  explicit Packet(std::size_t size);

  Packet(const Packet& o);
  Packet& operator=(const Packet& o);
  Packet(Packet&& o) noexcept
      : bytes_(std::move(o.bytes_)), meta_(o.meta_) {}
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      if (bytes_.capacity() != 0) {
        recycle(std::move(bytes_));
      }
      bytes_ = std::move(o.bytes_);
      meta_ = o.meta_;
    }
    return *this;
  }
  // Inline so the many moved-from shells a packet leaves behind on its way
  // through the pipeline die without an out-of-line call.
  ~Packet() {
    if (bytes_.capacity() != 0) {
      recycle(std::move(bytes_));
    }
  }

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::span<std::uint8_t> bytes() { return bytes_; }

  PacketMeta& meta() { return meta_; }
  const PacketMeta& meta() const { return meta_; }

  // ---- big-endian field accessors ----------------------------------------
  // All offsets are byte offsets from the start of the packet. Reads out of
  // range assert in debug builds and return 0 in release; writes out of
  // range assert and are dropped. Parsers must bounds-check with size().
  //
  // Defined inline: header encode/decode is a dense run of these, and the
  // compiler folds adjacent byte shuffles only when it can see the bodies.

  std::uint8_t u8(std::size_t off) const {
    if (off >= bytes_.size()) {
      assert(false && "packet read out of range");
      return 0;
    }
    return bytes_[off];
  }

  std::uint16_t u16(std::size_t off) const {
    if (off + 2 > bytes_.size()) {
      assert(false && "packet read out of range");
      return 0;
    }
    return static_cast<std::uint16_t>((bytes_[off] << 8) | bytes_[off + 1]);
  }

  std::uint32_t u32(std::size_t off) const {
    if (off + 4 > bytes_.size()) {
      assert(false && "packet read out of range");
      return 0;
    }
    return (std::uint32_t{bytes_[off]} << 24) |
           (std::uint32_t{bytes_[off + 1]} << 16) |
           (std::uint32_t{bytes_[off + 2]} << 8) | bytes_[off + 3];
  }

  std::uint64_t u64(std::size_t off) const {
    if (off + 8 > bytes_.size()) {
      assert(false && "packet read out of range");
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v = (v << 8) | bytes_[off + i];
    }
    return v;
  }

  void set_u8(std::size_t off, std::uint8_t v) {
    if (off >= bytes_.size()) {
      assert(false && "packet write out of range");
      return;
    }
    bytes_[off] = v;
  }

  void set_u16(std::size_t off, std::uint16_t v) {
    if (off + 2 > bytes_.size()) {
      assert(false && "packet write out of range");
      return;
    }
    bytes_[off] = static_cast<std::uint8_t>(v >> 8);
    bytes_[off + 1] = static_cast<std::uint8_t>(v);
  }

  void set_u32(std::size_t off, std::uint32_t v) {
    if (off + 4 > bytes_.size()) {
      assert(false && "packet write out of range");
      return;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      bytes_[off + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
    }
  }

  void set_u64(std::size_t off, std::uint64_t v) {
    if (off + 8 > bytes_.size()) {
      assert(false && "packet write out of range");
      return;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      bytes_[off + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    }
  }

  /// Append raw bytes / grow with zeros.
  void append(std::span<const std::uint8_t> data);
  void pad_to(std::size_t size);

  /// Drop the contents but keep the buffer's capacity (re-emit into the
  /// same storage without reallocating).
  void clear() { bytes_.clear(); }
  /// Pre-size the buffer so a known-length re-emit grows it at most once.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  /// Remove `n` bytes from the front (decapsulation). n > size() clears.
  void strip_front(std::size_t n);

  /// Insert `n` zero bytes at offset `off` (encapsulation, e.g. INT push).
  void insert_zeros(std::size_t off, std::size_t n);

 private:
  /// Hand a buffer with capacity back to the pool (packet.cpp).
  static void recycle(std::vector<std::uint8_t>&& b) noexcept;

  std::vector<std::uint8_t> bytes_;
  PacketMeta meta_;
};

}  // namespace edp::net
