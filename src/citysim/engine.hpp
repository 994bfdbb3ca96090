// The city-scale discrete-event engine: a million devices through the
// real network-server tier.
//
// Event model. Each device alternates between sleeping and transmitting;
// the engine keeps exactly one pending TxStart event per live device plus
// one TxEnd per in-flight frame in a binary heap (per worker). TxStart
// computes the device's position, its per-gateway received powers, joins
// the per-(channel, SF) collision set (accumulating mutual interference
// with every overlapping frame) and schedules both its TxEnd and the
// device's next TxStart from its traffic stream. TxEnd samples, per
// gateway that heard the frame, a decode outcome from the calibrated
// OutcomeTable at the frame's measured SINR and collider count, and feeds
// every decoded copy into net::NetServer::ingest_at — the *real* ingest
// pipeline: cross-gateway dedup, sharded registry FCnt window, ADR, team
// manager. Nothing in the server tier is mocked.
//
// Threading and reproducibility. Interference only couples transmissions
// on the same radio channel, and a device's channel is fixed (dev mod
// n_channels), so devices partition cleanly: worker w owns every channel
// c with c mod n_workers == w, and with it every event of every device on
// those channels. All randomness comes from counter-based per-device
// streams (util/rng.hpp CounterRng) and all cross-worker state
// (NetServer) is keyed per device or per frame, so the simulation's
// outcome — every counter in EngineReport and every per-device session in
// the registry — is bit-identical for a given seed regardless of
// `threads`. Workers rendezvous at epoch barriers (every `epoch_s` of
// simulated time) where the main thread runs team rebuilds and refreshes
// metrics against a quiescent registry.
//
// Exact accounting. The engine mirrors the server's classification rules
// (dedup-before-replay, FCnt freshness window) per device, so it knows
// — not estimates — how many receptions the server must have accepted,
// deduplicated and replay-rejected. EngineReport carries both the mirror
// and the server's own counters; they must match whenever the registry
// evicted nothing (accounting_exact). This is the end-to-end proof that a
// million simulated devices really flowed through the net tier.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "citysim/city.hpp"
#include "citysim/outcome_table.hpp"
#include "citysim/traffic.hpp"
#include "net/server.hpp"

namespace choir::citysim {

/// Upper bound on gateways the engine tracks per frame (fixed-size
/// per-frame power/interference accumulators keep the hot path
/// allocation-free). CityOptions::n_gateways is clamped to this.
inline constexpr std::size_t kMaxGateways = 32;

struct EngineOptions {
  std::size_t n_devices = 100000;
  std::size_t n_channels = 8;
  /// Worker threads (clamped to [1, n_channels]). Results are
  /// bit-identical for any value; this is a wall-clock knob only.
  int threads = 1;
  double duration_s = 600.0;
  /// Epoch barrier cadence: team rebuilds and metrics refresh happen at
  /// multiples of this simulated time.
  double epoch_s = 30.0;
  std::uint64_t seed = 1;
  Receiver receiver = Receiver::kChoir;
  /// Uplink payload size (floor 12: DevAddr, FCnt and replay nonce ride
  /// in the first 12 bytes).
  std::size_t payload_bytes = 12;
  /// Probability that a decoded transmission is followed by an injected
  /// attacker replay (stale FCnt, salted payload) — exercises the replay
  /// window under load. 0 disables.
  double replay_rate = 0.0;
  /// Apply the server's ADR recommendation to a device every this many
  /// accepted uplinks (0 = ADR off).
  std::uint32_t adr_every = 16;
  /// Rebuild the Choir team roster every this many epochs (0 = off;
  /// planning is quadratic in the weak-device count, so large runs keep
  /// it off or rebuild rarely).
  std::uint32_t team_rebuild_epochs = 0;
  /// Provision each device's surveyed position into the registry right
  /// before its first uplink (team planning needs positions).
  bool provision_positions = true;
  /// Initial-SF margin over the ADR link model's required SNR.
  double init_margin_db = 10.0;
  CityOptions city{};
  TrafficOptions traffic{};
  ClassMix mix{};
  /// Checkpoint the server's persistence generation every this many
  /// epochs (0 = never). Requires net.persist.dir.
  std::uint32_t checkpoint_epochs = 0;
  /// Kill/restore fault drill: at the end of this epoch (1-based; 0 =
  /// off), the engine SIGKILL-equivalently kills the net server's
  /// persistence (buffered journal bytes dropped, descriptors closed),
  /// destroys the server, and reconstructs it from net.persist.dir —
  /// then keeps simulating against the recovered instance. With
  /// journal flush_every_records == 1 (forced on when this is set) the
  /// engine's exact-accounting mirror must still match bit-for-bit at
  /// the end of the run: the proof that recovery loses nothing.
  /// Requires net.persist.dir. Kills land at epoch barriers, where no
  /// frame is mid-flight and all of a frame's gateway copies have been
  /// ingested — so losing the (unpersisted) dedup window is harmless.
  std::uint32_t kill_restore_epoch = 0;
  /// Hot-standby failover drill: when set together with
  /// kill_restore_epoch, the engine does NOT rebuild the server from the
  /// state directory after the kill — it calls this hook, which promotes
  /// a standby that has been following net.persist.dir and hands over its
  /// (already caught-up) server. The exact-accounting mirror then proves
  /// the promoted replica is bit-equivalent to disk recovery.
  std::function<std::unique_ptr<net::NetServer>()> promote_standby;
  /// Net-server tier configuration. keep_feed is forced off (the feed
  /// would grow with every accepted frame).
  net::NetServerConfig net{};
};

struct EngineReport {
  // Engine-side event accounting.
  std::uint64_t events = 0;         ///< heap events processed
  std::uint64_t transmissions = 0;  ///< frames put on the air
  std::uint64_t collided = 0;       ///< transmissions with a same-SF overlap
  std::uint64_t heard = 0;          ///< gateway copies above the hear floor
  std::uint64_t decoded = 0;        ///< copies that decoded (fed to server)
  std::uint64_t replays_injected = 0;
  std::array<std::uint64_t, kDeviceClasses> tx_by_class{};
  std::uint64_t storms = 0;         ///< alarm-storm windows in the horizon
  std::uint64_t adr_changes = 0;    ///< applied ADR setting changes

  // Mirror of the server's classification (see file comment).
  std::uint64_t expect_accepted = 0;
  std::uint64_t expect_duplicates = 0;
  std::uint64_t expect_upgraded = 0;
  std::uint64_t expect_replays = 0;

  // Ground truth from the net tier.
  net::NetServerStats net_stats{};
  std::size_t devices_registered = 0;
  std::uint64_t registry_evicted = 0;
  /// Mirror matches the server's counters exactly (always true when the
  /// registry evicted nothing; evictions reset FCnt windows the mirror
  /// does not track).
  bool accounting_exact = false;

  // Kill/restore drill (kill_restore_epoch > 0).
  bool restored = false;               ///< the drill ran
  std::uint64_t recovery_generation = 0;
  std::uint64_t recovery_snapshot_sessions = 0;
  std::uint64_t recovery_replayed = 0;   ///< journal records applied
  std::uint64_t recovery_discarded = 0;  ///< journal records that no-opped

  std::uint64_t team_version = 0;
  std::size_t teams = 0;
  std::size_t team_individual = 0;
  std::size_t team_unreachable = 0;
  std::uint64_t team_churned = 0;  ///< cumulative over all rebuilds

  double sim_time_s = 0.0;
  double wall_s = 0.0;
  double events_per_s = 0.0;   ///< heap events per wall second
  double uplinks_per_s = 0.0;  ///< receptions offered to the server per wall s
};

std::string format_report(const EngineReport& r);

/// The options a CityEngine actually runs with: counts floored, gateways
/// clamped to kMaxGateways, keep_feed off, the dedup window widened to
/// cover the workers' epoch skew (epoch_s + 1) and per-record journal
/// flushing under the kill drill. Anything built to stand in for the
/// engine's server (a promote_standby hot standby) must use this `.net`.
/// Throws std::invalid_argument when a drill lacks net.persist.dir.
EngineOptions effective_options(EngineOptions opt);

class CityEngine {
 public:
  CityEngine(const EngineOptions& opt, const OutcomeTable& table);
  ~CityEngine();

  CityEngine(const CityEngine&) = delete;
  CityEngine& operator=(const CityEngine&) = delete;

  /// Runs the full horizon and returns the report. Call once.
  EngineReport run();

  net::NetServer& server() { return *server_; }
  const CityLayout& layout() const { return layout_; }
  const EngineOptions& options() const { return opt_; }

 private:
  struct ActiveTx;
  struct Worker;

  void init_devices();
  void run_worker(std::size_t w, double until_s);
  void on_tx_start(Worker& wk, std::uint32_t dev, double t);
  void on_tx_end(Worker& wk, std::uint32_t dev, double t);
  void account_copies(Worker& wk, std::uint32_t dev, std::uint32_t fcnt,
                      std::size_t copies, std::uint64_t upgraded);
  /// The kill/restore drill (see EngineOptions::kill_restore_epoch).
  void kill_and_restore();
  std::vector<std::uint8_t> make_payload(std::uint32_t dev,
                                         std::uint32_t fcnt,
                                         std::uint32_t nonce) const;
  void flush_obs();

  EngineOptions opt_;
  const OutcomeTable& table_;
  CityLayout layout_;
  std::unique_ptr<net::NetServer> server_;

  std::size_t n_workers_ = 1;
  std::size_t n_gw_ = 1;
  std::array<double, 13> airtime_s_{};  ///< per-SF frame airtime

  // Per-device state (indexed by device id). Each entry is touched only
  // by the device's owning worker between barriers.
  std::vector<std::uint8_t> cls_;
  std::vector<std::uint8_t> sf_;
  std::vector<float> power_dbm_;
  std::vector<std::uint32_t> fcnt_;          ///< next FCnt to transmit
  std::vector<std::uint64_t> traffic_ctr_;   ///< traffic stream position
  std::vector<std::uint32_t> model_last_;    ///< mirror: last accepted FCnt
  std::vector<std::uint8_t> model_seen_;
  std::vector<std::uint16_t> since_adr_;

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Active transmissions per channel (only the owning worker touches a
  /// channel's list).
  std::vector<std::vector<ActiveTx>> active_;

  // Cumulative totals already flushed into the obs registry.
  std::uint64_t flushed_events_ = 0;
  std::uint64_t flushed_tx_ = 0;
  std::uint64_t flushed_decoded_ = 0;
  std::uint64_t flushed_collided_ = 0;
  bool ran_ = false;
  bool restored_ = false;  ///< the kill/restore drill has run
  net::persist::RecoveryStats recovery_{};
};

}  // namespace choir::citysim
