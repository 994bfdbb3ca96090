// UDP transport for the uplink framing (src/net/uplink.hpp): how decoded
// frames travel from `choir_gateway --uplink-dest` to `choir_netserver`.
//
// Deliberately minimal, like the telemetry server: POSIX sockets, IPv4
// literals only (no resolver dependency), one receive thread. UDP fits the
// workload — each datagram is self-contained (magic + count + records), a
// lost datagram loses only the frames inside it, and LoRaWAN gateway
// backhauls (Semtech UDP packet forwarder) made the same call. The server
// binds loopback by default; set `bind_any` for a routable deployment.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "net/server.hpp"
#include "net/uplink.hpp"

namespace choir::net {

struct Endpoint {
  std::string host;  ///< IPv4 literal, e.g. "127.0.0.1"
  std::uint16_t port = 0;
};

/// Parses "host:port" (host an IPv4 literal). Returns false on bad input.
bool parse_endpoint(const std::string& s, Endpoint& out);

// ------------------------------------------------------------- uplink acks
//
// When enabled, the ingest server answers every uplink datagram with a
// fixed-size CHOA ack echoing the datagram's FNV-1a hash. The gateway's
// failover sender matches acks to outstanding datagrams by that hash —
// no sequence numbers on the uplink path, so the fire-and-forget sender
// stays wire-compatible. `status` doubles as the failover signal: a
// standby that has not been promoted answers kAckNotActive, telling the
// gateway to try the other destination without waiting for a timeout.

inline constexpr std::uint32_t kAckMagic = 0x414F4843;  // "CHOA" LE
inline constexpr std::uint8_t kAckVersion = 1;
inline constexpr std::size_t kAckBytes = 24;
inline constexpr std::uint8_t kAckActive = 1;
inline constexpr std::uint8_t kAckNotActive = 2;

struct UplinkAck {
  std::uint8_t status = kAckActive;  ///< kAckActive / kAckNotActive
  std::uint64_t epoch = 0;           ///< responder's HA epoch (0 = non-HA)
  std::uint64_t datagram_hash = 0;   ///< fnv1a64 of the acked datagram
};

/// Encodes `a` into the fixed 24-byte wire form.
std::string encode_ack(const UplinkAck& a);
/// Decodes an ack datagram. Returns false on bad magic/version/size.
bool decode_ack(const std::uint8_t* data, std::size_t len, UplinkAck& out);

/// The responder side of the ack protocol: called per datagram to learn
/// this server's current role. Returning {kAckNotActive, epoch} makes
/// gateways fail over immediately.
using AckRoleFn = std::function<std::pair<std::uint8_t, std::uint64_t>()>;

/// Fire-and-forget uplink batch sender (the gateway side).
class UdpUplinkSender {
 public:
  /// Opens a connected UDP socket to host:port. Throws std::runtime_error
  /// on a bad address or socket failure.
  UdpUplinkSender(const std::string& host, std::uint16_t port);
  ~UdpUplinkSender();

  UdpUplinkSender(const UdpUplinkSender&) = delete;
  UdpUplinkSender& operator=(const UdpUplinkSender&) = delete;

  /// Encodes and sends `frames` as one or more datagrams.
  void send(const std::vector<UplinkFrame>& frames);

  std::uint64_t datagrams_sent() const {
    return datagrams_.load(std::memory_order_relaxed);
  }

 private:
  int fd_ = -1;
  std::atomic<std::uint64_t> datagrams_{0};
};

struct UdpIngestOptions {
  bool bind_any = false;
  /// Requested SO_RCVBUF. Uplink bursts from many gateways land between
  /// two scheduler quanta of the receive thread; an explicitly sized
  /// buffer keeps the kernel from silently shrinking that headroom to
  /// the distro default. The kernel may clamp to rmem_max; the actual
  /// size is exported as the `net.udp.rcvbuf_bytes` gauge.
  int rcvbuf_bytes = 4 * 1024 * 1024;
  /// Answer every datagram with a CHOA ack (see above).
  bool send_acks = false;
  /// Role source for acks; default answers {kAckActive, 0}.
  AckRoleFn ack_role{};
};

/// Receive loop feeding a NetServer (the network-server side).
class UdpIngestServer {
 public:
  /// Binds UDP `port` (0 picks an ephemeral port) and starts the receive
  /// thread; every decoded frame goes to server.ingest(). Throws
  /// std::runtime_error if the bind fails.
  UdpIngestServer(NetServer& server, std::uint16_t port,
                  UdpIngestOptions opts);
  UdpIngestServer(NetServer& server, std::uint16_t port,
                  bool bind_any = false)
      : UdpIngestServer(server, port, UdpIngestOptions{bind_any}) {}
  ~UdpIngestServer();

  UdpIngestServer(const UdpIngestServer&) = delete;
  UdpIngestServer& operator=(const UdpIngestServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint64_t datagrams_received() const {
    return datagrams_.load(std::memory_order_relaxed);
  }
  std::uint64_t decode_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  /// Datagrams the kernel dropped because the socket buffer was full
  /// (SO_RXQ_OVFL; stays 0 where the platform lacks it). Also exported
  /// as the `net.udp.rcvbuf_dropped` counter so silent UDP loss cannot
  /// masquerade as gateway loss in replication-lag readings.
  std::uint64_t rcvbuf_dropped() const {
    return rcvbuf_dropped_.load(std::memory_order_relaxed);
  }
  /// Actual SO_RCVBUF the kernel granted (after clamping/doubling).
  int rcvbuf_bytes() const { return rcvbuf_actual_; }

  /// Stops the receive thread and closes the socket. Idempotent.
  void stop();

 private:
  void serve();

  NetServer& server_;
  UdpIngestOptions opts_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  int rcvbuf_actual_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> datagrams_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> rcvbuf_dropped_{0};
  std::thread thread_;
};

}  // namespace choir::net
