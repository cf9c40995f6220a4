// Packet header: the "header register" of the xpipes lite NI.
//
// The paper describes packetization as filling a roughly 50-bit header
// register once per transaction — the route comes from a LUT indexed by
// the OCP MAddr, the remaining fields straight from the OCP request — and
// then decomposing it into flits. HeaderFormat computes the exact field
// layout for a given network configuration; Header is the decoded view.
//
// Layout (LSB first, so the route lands at the very front of the head
// flit and a switch can read its output port from the first flit beat):
//
//   route | cmd | src | dst | txn | thread | burst_len | burst_seq | flags | resp | addr
//
// The route field holds up to max_hops output-port selectors of
// port_bits each, hop 0 in the least significant position. Each switch
// consumes the low port_bits and shifts the route field right — a fixed
// width shifter in hardware — so the next hop's selector is always at the
// front.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bits.hpp"

namespace xpl {

/// Network-level packet kinds (2 bits on the wire).
enum class PacketCmd : std::uint8_t {
  kWrite = 0,     ///< posted write request (no response expected)
  kRead = 1,      ///< read request (response carries data)
  kWriteNp = 2,   ///< non-posted write (response carries completion)
  kResponse = 3,  ///< response packet (target NI -> initiator NI)
};

const char* packet_cmd_name(PacketCmd cmd);

/// Source route: the output port to take at each hop, front() first.
using Route = std::vector<std::uint8_t>;
/// Non-owning view of a route — how the NI LUTs hold the rows of the
/// network's route table (topology::RoutingTables).
using RouteView = std::span<const std::uint8_t>;

/// Field widths of the packed header for one network configuration.
struct HeaderFormat {
  std::size_t port_bits = 3;    ///< selector width per hop (max switch radix)
  std::size_t max_hops = 8;     ///< route capacity
  std::size_t node_bits = 5;    ///< NI id width (src and dst fields)
  std::size_t txn_bits = 4;     ///< transaction sequence id width
  std::size_t thread_bits = 2;  ///< OCP MThreadID width
  std::size_t burst_bits = 5;   ///< burst length width (beats, 1..2^n-1)
  std::size_t addr_bits = 24;   ///< address offset within the target

  static constexpr std::size_t kCmdBits = 2;
  static constexpr std::size_t kSeqBits = 2;   ///< OCP MBurstSeq
  static constexpr std::size_t kFlagBits = 2;  ///< sideband + interrupt
  static constexpr std::size_t kRespBits = 2;  ///< OCP SResp code

  std::size_t route_bits() const { return port_bits * max_hops; }

  /// Total packed width; the paper's "about 50 bits" for typical configs.
  std::size_t width() const {
    return route_bits() + kCmdBits + 2 * node_bits + txn_bits + thread_bits +
           burst_bits + kSeqBits + kFlagBits + kRespBits + addr_bits;
  }

  /// Derives a format sized for a concrete network.
  ///
  /// `max_radix`: largest switch output-port count; `num_nodes`: NI count;
  /// `diameter`: longest route in hops; the rest size the OCP-facing fields.
  static HeaderFormat for_network(std::size_t max_radix, std::size_t num_nodes,
                                  std::size_t diameter, std::size_t addr_bits,
                                  std::size_t max_burst,
                                  std::size_t num_threads);
};

/// Decoded packet header.
struct Header {
  Route route;                 ///< remaining hops (front = next output port)
  PacketCmd cmd = PacketCmd::kWrite;
  std::uint32_t src = 0;       ///< source NI id
  std::uint32_t dst = 0;       ///< destination NI id
  std::uint32_t txn_id = 0;    ///< per-source transaction sequence number
  std::uint32_t thread_id = 0; ///< OCP thread
  std::uint32_t burst_len = 1; ///< payload beats that follow
  std::uint8_t burst_seq = 0;  ///< OCP MBurstSeq (INCR/WRAP/STREAM)
  bool sideband = false;       ///< OCP MFlag carried end to end
  bool interrupt = false;      ///< OCP SInterrupt (response packets)
  std::uint8_t resp = 0;       ///< OCP SResp code (response packets)
  std::uint64_t addr = 0;      ///< address offset within the target

  bool operator==(const Header&) const = default;
  std::string to_string() const;
};

/// Packs `header` into `format.width()` bits. The route may be shorter than
/// max_hops; unused hop slots are zero. Throws xpl::Error if any field
/// exceeds its width.
BitVector pack_header(const Header& header, const HeaderFormat& format);

/// Inverse of pack_header. The returned route has max_hops entries (the
/// consumed/unused slots decode as port 0); network code uses the dst/hop
/// count implicitly by consuming the front selector at each switch.
Header unpack_header(const BitVector& bits, const HeaderFormat& format);

/// Reads the next-hop output port from a packed head-flit fragment: the low
/// `port_bits` of the flit payload. The flit width must be >= port_bits
/// (always true for practical configurations; enforced by NocConfig).
std::uint8_t peek_route_port(const BitVector& head_flit_payload,
                             std::size_t port_bits);

/// Shifts the route field of a packed head-flit fragment right by
/// port_bits, consuming the front hop selector: bits [port_bits,
/// route_bits_in_flit) move down, the vacated top of the route field fills
/// with zero, and all non-route bits are untouched. `route_bits_in_flit` is
/// the number of route-field bits present in this flit (the route field can
/// span flits only when flit_width < route_bits; NocConfig forbids that, so
/// in practice the whole route sits in the first flit).
BitVector consume_route_port(const BitVector& head_flit_payload,
                             std::size_t port_bits,
                             std::size_t route_bits_in_flit);

}  // namespace xpl
