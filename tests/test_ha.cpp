// Hot-standby HA tests: lease/fencing, journal tailing, CHOR replication,
// standby convergence + promotion, gateway failover, and the citysim
// kill-active -> promote-standby drill (docs/PERSISTENCE.md, HA section).
//
// Suite names are load-bearing: CI's sanitizer lanes select suites by
// regex (Ha*).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "citysim/engine.hpp"
#include "citysim/outcome_table.hpp"
#include "net/ha/failover.hpp"
#include "net/ha/lease.hpp"
#include "net/ha/replication.hpp"
#include "net/ha/standby.hpp"
#include "net/ha/tail.hpp"
#include "net/persist/format.hpp"
#include "net/persist/journal.hpp"
#include "net/persist/persistence.hpp"
#include "net/persist/snapshot.hpp"
#include "net/server.hpp"
#include "net/udp.hpp"
#include "obs/telemetry_server.hpp"

namespace fs = std::filesystem;
using namespace choir;
using namespace choir::net;
using namespace choir::net::ha;

namespace {

/// Fresh, empty scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

UplinkFrame frame_for(std::uint32_t dev, std::uint32_t fcnt, float snr,
                      std::uint32_t gateway = 1, std::uint8_t salt = 0) {
  UplinkFrame f;
  f.dev_addr = dev;
  f.fcnt = fcnt;
  f.gateway_id = gateway;
  f.channel = static_cast<std::uint16_t>(dev % 8);
  f.sf = 9;
  f.snr_db = snr;
  f.cfo_bins = 0.125f + 0.001f * static_cast<float>(fcnt);
  f.timing_samples = 1.5f;
  f.stream_offset = 1000 + fcnt;
  f.payload = {static_cast<std::uint8_t>(dev), static_cast<std::uint8_t>(fcnt),
               static_cast<std::uint8_t>(salt), 4, 5, 6, 7, 8, 9, 10, 11, 12};
  return f;
}

/// Drives a representative mutation mix through the server: provisions,
/// accepts, a cross-gateway duplicate (SNR upgrade), a replay, an ADR
/// note — one of every journal record type the registry emits.
void ingest_mix(NetServer& s, std::uint32_t dev_base, int devices,
                std::uint32_t fcnt_base = 1) {
  for (int d = 0; d < devices; ++d) {
    const std::uint32_t dev = dev_base + static_cast<std::uint32_t>(d);
    s.provision(dev, 10.0 * d, -3.0 * d);
    for (std::uint32_t k = 0; k < 3; ++k) {
      const std::uint32_t fcnt = fcnt_base + k;
      ASSERT_EQ(s.ingest(frame_for(dev, fcnt, 6.0f, 1)).status,
                IngestStatus::kAccepted);
      // Second gateway's copy of the same transmission, better SNR.
      ASSERT_EQ(s.ingest(frame_for(dev, fcnt, 9.0f, 2)).status,
                IngestStatus::kDuplicate);
    }
    // Attacker replay of an old counter (salted payload defeats dedup).
    ASSERT_EQ(s.ingest(frame_for(dev, fcnt_base, 5.0f, 1, 0x5A)).status,
              IngestStatus::kReplay);
    s.note_adr_applied(dev);
  }
}

std::string image_bytes(const NetServer& s) {
  return persist::encode_snapshot(s.snapshot_image());
}

/// Polls `pred` until it holds or `timeout_s` elapses.
bool wait_for(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// An IPv4 loopback port that (almost certainly) has no listener: bound
/// once to reserve a fresh ephemeral number, then released.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a));
  socklen_t len = sizeof(a);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
  const std::uint16_t port = ntohs(a.sin_port);
  ::close(fd);
  return port;
}

// Minimal HTTP/1.0 GET over a blocking socket; returns the full response
// (headers + body), or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

NetServerConfig small_config(const std::string& persist_dir = "",
                             std::size_t flush_every = 1,
                             std::uint64_t epoch = 0) {
  NetServerConfig cfg;
  cfg.registry.shard_bits = 2;
  cfg.dedup.shard_bits = 2;
  // A capped registry snapshots sessions in provisioning order (the FIFO
  // eviction order) instead of hash-map order, which is what makes
  // whole-image byte comparisons across instances meaningful.
  cfg.registry.max_devices = 1 << 16;
  cfg.keep_feed = false;
  cfg.persist.dir = persist_dir;
  cfg.persist.flush_every_records = flush_every;
  cfg.persist.epoch = epoch;
  return cfg;
}

}  // namespace

// ------------------------------------------------------------------ lease

TEST(HaLease, AcquireRenewRelease) {
  const std::string dir = scratch_dir("ha_lease_basic");
  Lease a(dir, "active-1", 10.0);
  EXPECT_FALSE(a.held());
  ASSERT_TRUE(a.try_acquire());
  EXPECT_TRUE(a.held());
  EXPECT_EQ(a.epoch(), 1u);

  LeaseInfo li = read_lease(dir);
  ASSERT_TRUE(li.present);
  EXPECT_EQ(li.epoch, 1u);
  EXPECT_EQ(li.owner, "active-1");
  EXPECT_FALSE(li.expired(unix_now_us()));

  const std::uint64_t renewed0 = li.renewed_unix_us;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  a.renew();
  li = read_lease(dir);
  EXPECT_GT(li.renewed_unix_us, renewed0);
  EXPECT_FALSE(a.fenced());

  a.release();
  EXPECT_FALSE(a.held());
  EXPECT_FALSE(read_lease(dir).present);
}

TEST(HaLease, UnexpiredLeaseBlocksSecondAcquirer) {
  const std::string dir = scratch_dir("ha_lease_contend");
  Lease a(dir, "a", 10.0);
  ASSERT_TRUE(a.try_acquire());
  Lease b(dir, "b", 10.0);
  EXPECT_FALSE(b.try_acquire());
  EXPECT_FALSE(b.held());
  // The incumbent can always re-assert its own (highest) lease.
  EXPECT_TRUE(a.try_acquire());
  EXPECT_EQ(a.epoch(), 1u);
}

TEST(HaLease, ExpiredTakeoverBumpsEpochAndFencesOldHolder) {
  const std::string dir = scratch_dir("ha_lease_takeover");
  Lease a(dir, "a", 0.05);
  ASSERT_TRUE(a.try_acquire());
  EXPECT_EQ(a.epoch(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  Lease b(dir, "b", 10.0);
  ASSERT_TRUE(b.try_acquire());
  EXPECT_EQ(b.epoch(), 2u);  // e_max + 1, never reuse
  EXPECT_TRUE(a.fenced());
  EXPECT_FALSE(b.fenced());

  const LeaseInfo li = read_lease(dir);
  EXPECT_EQ(li.epoch, 2u);
  EXPECT_EQ(li.owner, "b");
}

// ----------------------------------------------------- incremental parsing

TEST(HaJournalParse, EveryPrefixIsNeedMoreNeverDamage) {
  persist::JournalRecord r;
  r.type = persist::RecordType::kAccept;
  r.frame = frame_for(0x77, 5, 7.5f);
  std::string framed;
  persist::encode_record(r, framed);

  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::size_t consumed = 999;
    persist::JournalRecord out;
    EXPECT_EQ(persist::parse_one_record(
                  reinterpret_cast<const std::uint8_t*>(framed.data()), i,
                  consumed, out),
              persist::RecordParse::kNeedMore)
        << "prefix " << i;
    EXPECT_EQ(consumed, 0u);
  }
  std::size_t consumed = 0;
  persist::JournalRecord out;
  ASSERT_EQ(persist::parse_one_record(
                reinterpret_cast<const std::uint8_t*>(framed.data()),
                framed.size(), consumed, out),
            persist::RecordParse::kRecord);
  EXPECT_EQ(consumed, framed.size());
  EXPECT_EQ(out.type, persist::RecordType::kAccept);
  EXPECT_EQ(out.frame.dev_addr, 0x77u);
  EXPECT_EQ(out.frame.fcnt, 5u);
}

TEST(HaJournalParse, CompleteFrameWithBadCrcIsDamage) {
  persist::JournalRecord r;
  r.type = persist::RecordType::kAccept;
  r.frame = frame_for(0x31, 2, 4.0f);
  std::string framed;
  persist::encode_record(r, framed);
  framed[4] = static_cast<char>(framed[4] ^ 0x40);  // body byte

  std::size_t consumed = 7;
  persist::JournalRecord out;
  EXPECT_EQ(persist::parse_one_record(
                reinterpret_cast<const std::uint8_t*>(framed.data()),
                framed.size(), consumed, out),
            persist::RecordParse::kDamaged);
  EXPECT_EQ(consumed, 0u);
}

TEST(HaJournalParse, UnknownTypeWithValidCrcIsSkipped) {
  // Hand-craft a future record type (200) with a valid CRC.
  const std::string body = "future-body";
  std::string tb;
  persist::put_u8(tb, 200);
  tb += body;
  std::string framed;
  persist::put_u16(framed, static_cast<std::uint16_t>(tb.size()));
  framed += tb;
  persist::put_u32(framed, persist::crc32(tb));

  std::size_t consumed = 0;
  persist::JournalRecord out;
  EXPECT_EQ(persist::parse_one_record(
                reinterpret_cast<const std::uint8_t*>(framed.data()),
                framed.size(), consumed, out),
            persist::RecordParse::kUnknown);
  EXPECT_EQ(consumed, framed.size());
}

TEST(HaJournalParse, EpochRecordRoundTrips) {
  persist::JournalRecord r;
  r.type = persist::RecordType::kEpoch;
  r.epoch = 7;
  std::string framed;
  persist::encode_record(r, framed);
  std::size_t consumed = 0;
  persist::JournalRecord out;
  ASSERT_EQ(persist::parse_one_record(
                reinterpret_cast<const std::uint8_t*>(framed.data()),
                framed.size(), consumed, out),
            persist::RecordParse::kRecord);
  EXPECT_EQ(out.type, persist::RecordType::kEpoch);
  EXPECT_EQ(out.epoch, 7u);
}

// --------------------------------------------------------------- manifest

TEST(HaManifest, ParsesEpochedAndLegacyForms) {
  const std::string dir = scratch_dir("ha_manifest");
  {
    std::ofstream f(dir + "/MANIFEST");
    f << "gen 5 epoch 3\n";
  }
  persist::ManifestInfo m = persist::read_manifest(dir);
  ASSERT_TRUE(m.present);
  EXPECT_EQ(m.generation, 5u);
  EXPECT_EQ(m.epoch, 3u);

  {
    std::ofstream f(dir + "/MANIFEST", std::ios::trunc);
    f << "gen 5\n";
  }
  m = persist::read_manifest(dir);
  ASSERT_TRUE(m.present);
  EXPECT_EQ(m.generation, 5u);
  EXPECT_EQ(m.epoch, 0u);

  EXPECT_FALSE(persist::read_manifest(scratch_dir("ha_manifest_none")).present);
}

// ------------------------------------------------------------ epoch fence

TEST(HaEpochFence, EpochZeroLeavesPreHaLayoutByteIdentical) {
  const std::string dir = scratch_dir("ha_fence_zero");
  NetServer s(small_config(dir));
  EXPECT_EQ(slurp(dir + "/MANIFEST"), "gen 1\n");
  // A fresh epoch-0 journal is header-only: no kEpoch stamp.
  EXPECT_EQ(slurp(dir + "/journal-1-0.log").size(), persist::kJournalHeaderBytes);
}

TEST(HaEpochFence, EpochStampedIntoManifestAndEveryJournal) {
  const std::string dir = scratch_dir("ha_fence_stamp");
  NetServer s(small_config(dir, 1, /*epoch=*/3));
  EXPECT_EQ(slurp(dir + "/MANIFEST"), "gen 1 epoch 3\n");
  const std::size_t n_shards = s.registry().n_shards();
  for (std::size_t sh = 0; sh < n_shards; ++sh) {
    const persist::JournalScan scan = persist::load_journal(
        dir + "/journal-1-" + std::to_string(sh) + ".log",
        static_cast<std::uint8_t>(sh));
    ASSERT_FALSE(scan.records.empty()) << "shard " << sh;
    EXPECT_EQ(scan.records.front().type, persist::RecordType::kEpoch);
    EXPECT_EQ(scan.records.front().epoch, 3u);
    EXPECT_FALSE(scan.damaged);
  }
}

TEST(HaEpochFence, StaleActiveCheckpointThrowsFencedError) {
  const std::string dir = scratch_dir("ha_fence_stale");
  NetServer a(small_config(dir, 1, /*epoch=*/1));
  ingest_mix(a, 0x100, 2);
  a.checkpoint();

  // A higher-epoch instance takes over the directory (recover + reseal).
  NetServer b(small_config(dir, 1, /*epoch=*/2));

  // The deposed active can still buffer (harmless: sealed files), but its
  // next checkpoint hits the MANIFEST fence and must refuse to commit.
  a.ingest(frame_for(0x100, 50, 6.0f));
  EXPECT_THROW(a.checkpoint(), persist::FencedError);
  EXPECT_TRUE(a.persistence()->crashed());
  // The winner keeps working.
  b.ingest(frame_for(0x200, 1, 6.0f));
  b.checkpoint();
  EXPECT_EQ(persist::read_manifest(dir).epoch, 2u);
}

// ------------------------------------------------------------ journal tail

TEST(HaTail, ByteAtATimeAppendNeverTearsARecord) {
  const std::string dir = scratch_dir("ha_tail_bytes");
  const std::string path = dir + "/j.log";

  // header + provision + accept + unknown-type + epoch.
  struct Expected {
    std::size_t end = 0;   ///< file offset where the record completes
    bool unknown = false;
  };
  std::string contents = persist::journal_header(0);
  std::vector<Expected> recs;
  {
    persist::JournalRecord r;
    r.type = persist::RecordType::kProvision;
    r.dev_addr = 0x42;
    r.x_m = 12.5;
    r.y_m = -3.0;
    persist::encode_record(r, contents);
    recs.push_back({contents.size(), false});
  }
  {
    persist::JournalRecord r;
    r.type = persist::RecordType::kAccept;
    r.frame = frame_for(0x42, 1, 6.5f);
    persist::encode_record(r, contents);
    recs.push_back({contents.size(), false});
  }
  {
    std::string tb;
    persist::put_u8(tb, 200);
    tb += "future";
    persist::put_u16(contents, static_cast<std::uint16_t>(tb.size()));
    contents += tb;
    persist::put_u32(contents, persist::crc32(tb));
    recs.push_back({contents.size(), true});
  }
  {
    persist::JournalRecord r;
    r.type = persist::RecordType::kEpoch;
    r.epoch = 9;
    persist::encode_record(r, contents);
    recs.push_back({contents.size(), false});
  }

  JournalTail tail(path, 0);
  std::ofstream f(path, std::ios::binary);
  std::vector<persist::JournalRecord> got;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    f.write(&contents[i], 1);
    f.flush();
    got.clear();
    EXPECT_TRUE(tail.poll(got)) << "offset " << i + 1;
    EXPECT_FALSE(tail.damaged());
    seen += got.size();
    std::size_t expect = 0;
    for (const auto& e : recs)
      if (!e.unknown && e.end <= i + 1) ++expect;
    EXPECT_EQ(seen, expect) << "offset " << i + 1;
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(tail.skipped_unknown(), 1u);
  EXPECT_EQ(tail.bytes_consumed(), contents.size());
  EXPECT_EQ(tail.lag_bytes(), 0u);
}

TEST(HaTail, CrcDamageIsPermanentEvenAfterValidAppends) {
  const std::string dir = scratch_dir("ha_tail_damage");
  const std::string path = dir + "/j.log";

  std::string contents = persist::journal_header(0);
  persist::JournalRecord r;
  r.type = persist::RecordType::kAccept;
  r.frame = frame_for(0x10, 1, 5.0f);
  persist::encode_record(r, contents);
  const std::size_t good_end = contents.size();
  std::string bad;
  r.frame = frame_for(0x10, 2, 5.0f);
  persist::encode_record(r, bad);
  bad[4] = static_cast<char>(bad[4] ^ 0x01);
  contents += bad;
  {
    std::ofstream f(path, std::ios::binary);
    f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  JournalTail tail(path, 0);
  std::vector<persist::JournalRecord> got;
  EXPECT_FALSE(tail.poll(got));
  EXPECT_EQ(got.size(), 1u);  // the intact prefix
  EXPECT_TRUE(tail.damaged());
  EXPECT_EQ(tail.bytes_consumed(), good_end);

  // A valid record appended after the damage must never be applied: the
  // file is torn and everything past the tear is untrusted.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    std::string more;
    r.frame = frame_for(0x10, 3, 5.0f);
    persist::encode_record(r, more);
    f.write(more.data(), static_cast<std::streamsize>(more.size()));
  }
  got.clear();
  EXPECT_FALSE(tail.poll(got));
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(tail.damaged());
}

// --------------------------------------------------------- CHOR wire codec

TEST(HaReplWire, AllMessageTypesRoundTrip) {
  ReplMessage m;

  persist::JournalRecord r1, r2;
  r1.type = persist::RecordType::kAccept;
  r1.frame = frame_for(0x21, 4, 7.0f);
  r2.type = persist::RecordType::kProvision;
  r2.dev_addr = 0x22;
  r2.x_m = 1.0;
  std::string framed;
  persist::encode_record(r1, framed);
  persist::encode_record(r2, framed);
  const std::string recs = encode_repl_records(7, 3, 100, 2, framed);
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(recs.data()), recs.size(), m));
  EXPECT_EQ(m.type, ReplType::kRecords);
  EXPECT_EQ(m.epoch, 7u);
  EXPECT_EQ(m.shard, 3u);
  EXPECT_EQ(m.first_seq, 100u);
  ASSERT_EQ(m.records.size(), 2u);
  EXPECT_EQ(m.records[0].frame.dev_addr, 0x21u);
  EXPECT_EQ(m.records[1].dev_addr, 0x22u);

  const std::string ack = encode_repl_ack(7, {1, 2, 3});
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(ack.data()), ack.size(), m));
  EXPECT_EQ(m.type, ReplType::kAck);
  EXPECT_EQ(m.seqs, (std::vector<std::uint64_t>{1, 2, 3}));

  const std::string nak = encode_repl_nak(7, 2, 55);
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(nak.data()), nak.size(), m));
  EXPECT_EQ(m.type, ReplType::kNak);
  EXPECT_EQ(m.shard, 2u);
  EXPECT_EQ(m.nak_from, 55u);

  const std::string req = encode_repl_snapshot_req(9);
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(req.data()), req.size(), m));
  EXPECT_EQ(m.type, ReplType::kSnapshotReq);
  EXPECT_EQ(m.epoch, 9u);

  const std::string meta =
      encode_repl_snapshot_meta(9, 4, 4096, 0xDEADBEEF, {5, 6});
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(meta.data()), meta.size(), m));
  EXPECT_EQ(m.type, ReplType::kSnapshotMeta);
  EXPECT_EQ(m.generation, 4u);
  EXPECT_EQ(m.total_bytes, 4096u);
  EXPECT_EQ(m.crc, 0xDEADBEEFu);
  EXPECT_EQ(m.seqs, (std::vector<std::uint64_t>{5, 6}));

  const std::string payload = "snapshot-chunk-bytes";
  const std::string chunk = encode_repl_snapshot_chunk(
      9, 2048, reinterpret_cast<const std::uint8_t*>(payload.data()),
      payload.size());
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size(), m));
  EXPECT_EQ(m.type, ReplType::kSnapshotChunk);
  EXPECT_EQ(m.offset, 2048u);
  EXPECT_EQ(m.chunk, payload);

  const std::string hb = encode_repl_heartbeat(9, {11, 12});
  ASSERT_TRUE(decode_repl(
      reinterpret_cast<const std::uint8_t*>(hb.data()), hb.size(), m));
  EXPECT_EQ(m.type, ReplType::kHeartbeat);
  EXPECT_EQ(m.seqs, (std::vector<std::uint64_t>{11, 12}));
}

TEST(HaReplWire, TruncationAndCorruptionNeverCrashOrDecode) {
  persist::JournalRecord r;
  r.type = persist::RecordType::kAccept;
  r.frame = frame_for(0x21, 4, 7.0f);
  std::string framed;
  persist::encode_record(r, framed);
  const std::vector<std::string> msgs = {
      encode_repl_records(7, 0, 1, 1, framed),
      encode_repl_ack(7, {1, 2}),
      encode_repl_nak(7, 1, 9),
      encode_repl_snapshot_req(7),
      encode_repl_snapshot_meta(7, 2, 100, 1, {3}),
      encode_repl_snapshot_chunk(
          7, 0, reinterpret_cast<const std::uint8_t*>("abc"), 3),
      encode_repl_heartbeat(7, {4}),
  };
  ReplMessage m;
  for (const auto& msg : msgs) {
    for (std::size_t i = 0; i < msg.size(); ++i) {
      EXPECT_FALSE(decode_repl(
          reinterpret_cast<const std::uint8_t*>(msg.data()), i, m))
          << "prefix " << i;
    }
    // Byte flips must never crash (ASan lane); a flipped magic/version or
    // a broken framed-record CRC must be rejected.
    for (std::size_t i = 0; i < msg.size(); ++i) {
      std::string mut = msg;
      mut[i] = static_cast<char>(mut[i] ^ 0xFF);
      decode_repl(reinterpret_cast<const std::uint8_t*>(mut.data()),
                  mut.size(), m);
    }
    std::string bad_magic = msg;
    bad_magic[0] = 'X';
    EXPECT_FALSE(decode_repl(
        reinterpret_cast<const std::uint8_t*>(bad_magic.data()),
        bad_magic.size(), m));
  }
}

// --------------------------------------------------- network replication

TEST(HaReplication, SnapshotBootstrapThenStreamedRecordsConverge) {
  const std::string dir = scratch_dir("ha_repl_stream");
  NetServer active(small_config(dir, 1, /*epoch=*/1));
  ingest_mix(active, 0x500, 3);  // history that only the snapshot covers

  StandbyOptions so;
  so.server = small_config();
  so.repl_enabled = true;
  StandbyServer standby(so);
  ASSERT_NE(standby.receiver(), nullptr);

  ReplicationSender sender({"127.0.0.1", standby.receiver()->port()},
                           active.registry().n_shards());
  sender.set_epoch(1);
  sender.set_snapshot_source(
      [&](std::uint64_t& gen, std::vector<std::uint64_t>& heads) {
        std::string bytes;
        active.with_ingest_quiesced([&] {
          bytes = persist::encode_snapshot(active.snapshot_image());
          heads = sender.heads();
          gen = active.persistence()->generation();
        });
        return bytes;
      });
  active.persistence()->set_record_sink(
      [&](std::size_t shard, const std::string& framed) {
        sender.on_record(shard, framed);
      });

  ASSERT_TRUE(wait_for([&] { return standby.receiver()->bootstrapped(); }, 5.0))
      << "standby never bootstrapped from the streamed snapshot";

  // Live stream on top of the bootstrap.
  ingest_mix(active, 0x600, 3);
  sender.flush();
  ASSERT_TRUE(wait_for(
      [&] { return standby.receiver()->lag_records() == 0; }, 5.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_EQ(standby.receiver()->sender_epoch(), 1u);
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active))
      << "streamed replica diverged from the active";

  active.persistence()->set_record_sink(nullptr);
  sender.stop();
}

TEST(HaReplication, DroppedDatagramsRecoveredViaNak) {
  const std::string dir = scratch_dir("ha_repl_nak");
  NetServer active(small_config(dir, 1, /*epoch=*/1));

  StandbyOptions so;
  so.server = small_config();
  so.repl_enabled = true;
  so.repl_debug_drop_records = 2;  // force the retransmit path
  StandbyServer standby(so);

  ReplicationSender sender({"127.0.0.1", standby.receiver()->port()},
                           active.registry().n_shards());
  sender.set_epoch(1);
  sender.set_snapshot_source(
      [&](std::uint64_t& gen, std::vector<std::uint64_t>& heads) {
        std::string bytes;
        active.with_ingest_quiesced([&] {
          bytes = persist::encode_snapshot(active.snapshot_image());
          heads = sender.heads();
          gen = active.persistence()->generation();
        });
        return bytes;
      });
  active.persistence()->set_record_sink(
      [&](std::size_t shard, const std::string& framed) {
        sender.on_record(shard, framed);
      });
  ASSERT_TRUE(wait_for([&] { return standby.receiver()->bootstrapped(); }, 5.0));

  // One datagram per ingest (flush each), so the drop budget bites.
  for (int i = 0; i < 20; ++i) {
    active.ingest(frame_for(0x700 + static_cast<std::uint32_t>(i), 1, 6.0f));
    sender.flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(wait_for(
      [&] { return standby.receiver()->lag_records() == 0; }, 5.0))
      << "NAK/retransmit never recovered the dropped datagrams";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_GE(standby.receiver()->naks_sent(), 1u);
  EXPECT_GE(sender.retransmits(), 1u);
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active));

  active.persistence()->set_record_sink(nullptr);
  sender.stop();
}

TEST(HaReplication, MinEpochFencesDeposedActiveStragglers) {
  const std::string dir = scratch_dir("ha_repl_fence");
  NetServer active(small_config(dir, 1, /*epoch=*/1));

  StandbyOptions so;
  so.server = small_config();
  so.repl_enabled = true;
  StandbyServer standby(so);

  ReplicationSender sender({"127.0.0.1", standby.receiver()->port()},
                           active.registry().n_shards());
  sender.set_epoch(1);
  sender.set_snapshot_source(
      [&](std::uint64_t& gen, std::vector<std::uint64_t>& heads) {
        std::string bytes;
        active.with_ingest_quiesced([&] {
          bytes = persist::encode_snapshot(active.snapshot_image());
          heads = sender.heads();
          gen = active.persistence()->generation();
        });
        return bytes;
      });
  active.persistence()->set_record_sink(
      [&](std::size_t shard, const std::string& framed) {
        sender.on_record(shard, framed);
      });
  ASSERT_TRUE(wait_for([&] { return standby.receiver()->bootstrapped(); }, 5.0));

  active.ingest(frame_for(0x800, 1, 6.0f));
  sender.flush();
  // Lag is already 0 before the record's datagram arrives; wait for the
  // apply itself.
  ASSERT_TRUE(wait_for(
      [&] {
        return standby.receiver()->applied_records() >= 1 &&
               standby.receiver()->lag_records() == 0;
      },
      5.0));
  const std::uint64_t applied = standby.receiver()->applied_records();
  const std::string before = image_bytes(standby.server());

  // Promotion fence: everything the epoch-1 active still sends is dropped
  // at the wire.
  standby.receiver()->set_min_epoch(2);
  for (int i = 0; i < 5; ++i) {
    active.ingest(frame_for(0x900 + static_cast<std::uint32_t>(i), 1, 6.0f));
    sender.flush();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(standby.receiver()->applied_records(), applied);
  EXPECT_EQ(image_bytes(standby.server()), before);

  active.persistence()->set_record_sink(nullptr);
  sender.stop();
}

// ------------------------------------------------------ local follower

TEST(HaStandby, LocalFollowerIsBitExact) {
  const std::string dir = scratch_dir("ha_standby_bitexact");
  NetServer active(small_config(dir));

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);

  standby.poll();  // bootstrap from the construction checkpoint
  ASSERT_TRUE(standby.bootstrapped());
  EXPECT_EQ(standby.followed_generation(), 1u);

  ingest_mix(active, 0x100, 4);
  standby.poll();
  EXPECT_EQ(standby.lag().bytes, 0u);
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active))
      << "follower diverged from the active";

  // More traffic, including sessions the follower has already seen.
  ingest_mix(active, 0x100, 4, /*fcnt_base=*/10);
  standby.poll();
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active));
  EXPECT_EQ(standby.rebootstraps(), 0u);
}

TEST(HaStandby, FollowsGenerationRotationWithoutRebootstrap) {
  const std::string dir = scratch_dir("ha_standby_rotate");
  NetServer active(small_config(dir));

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);
  standby.poll();
  ASSERT_TRUE(standby.bootstrapped());

  ingest_mix(active, 0x300, 3);
  standby.poll();
  active.checkpoint();  // seals gen 1, commits gen 2
  ingest_mix(active, 0x340, 3);
  standby.poll();  // drains the sealed tail, reopens at gen 2
  standby.poll();  // drains the new generation's records

  EXPECT_EQ(standby.followed_generation(), 2u);
  EXPECT_EQ(standby.rebootstraps(), 0u);
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active));
}

TEST(HaStandby, MissedGenerationsForceCleanRebootstrap) {
  const std::string dir = scratch_dir("ha_standby_missed");
  NetServer active(small_config(dir));

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);
  standby.poll();
  ASSERT_TRUE(standby.bootstrapped());

  // Two rotations without a single follower poll: the files the follower
  // holds are stale and the intermediate generation is GC'd.
  ingest_mix(active, 0x400, 2);
  active.checkpoint();
  ingest_mix(active, 0x440, 2);
  active.checkpoint();

  standby.poll();  // detects the gap, resets
  EXPECT_EQ(standby.rebootstraps(), 1u);
  standby.poll();  // re-bootstraps from the new snapshot
  ASSERT_TRUE(standby.bootstrapped());
  EXPECT_EQ(standby.followed_generation(), 3u);
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(active));
}

TEST(HaStandby, PromoteSealsNewEpochAndFencesStaleActive) {
  const std::string dir = scratch_dir("ha_standby_promote");
  NetServer active(small_config(dir));
  ingest_mix(active, 0x500, 3);

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);
  standby.poll();
  ASSERT_TRUE(standby.bootstrapped());
  EXPECT_EQ(standby.role(), HaRole::kStandby);

  // Take the lease over the (hung) active's directory and promote.
  Lease lease(dir, "standby-1", 10.0);
  ASSERT_TRUE(lease.try_acquire());
  persist::PersistOptions popt;
  popt.dir = dir;
  popt.flush_every_records = 1;
  popt.epoch = lease.epoch();
  standby.promote(popt);
  EXPECT_EQ(standby.role(), HaRole::kActive);

  const persist::ManifestInfo m = persist::read_manifest(dir);
  EXPECT_EQ(m.generation, 2u);  // sealed on top of the followed gen 1
  EXPECT_EQ(m.epoch, lease.epoch());

  // The promoted replica ingests and checkpoints like any active.
  ASSERT_EQ(standby.server().ingest(frame_for(0x999, 1, 6.0f)).status,
            IngestStatus::kAccepted);
  standby.server().checkpoint();

  // The stale active wakes up and tries to checkpoint: fenced.
  active.ingest(frame_for(0x500, 60, 6.0f));
  EXPECT_THROW(active.checkpoint(), persist::FencedError);
}

TEST(HaStandby, GroupCommitTailMatchesDiskRecoveryAfterKill) {
  const std::string dir = scratch_dir("ha_standby_groupcommit");
  const std::string dir2 = scratch_dir("ha_standby_groupcommit_copy");
  // flush_every_records > 1: a kill loses the buffered (never-written)
  // tail; the follower must land exactly where disk recovery lands.
  NetServer active(small_config(dir, /*flush_every=*/8));

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);
  standby.poll();
  ASSERT_TRUE(standby.bootstrapped());

  ingest_mix(active, 0x600, 5);  // 5 * 9 records: tails stay buffered
  standby.poll();
  active.persistence()->simulate_kill();

  // Freeze the post-kill disk image before promotion mutates it.
  fs::copy(dir, dir2, fs::copy_options::recursive);

  persist::PersistOptions popt;
  popt.dir = dir;
  popt.flush_every_records = 1;
  popt.epoch = 1;
  standby.promote(popt);

  NetServer recovered(small_config(dir2));
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(recovered))
      << "promoted follower != disk recovery of the same death";
}

TEST(HaStandby, TornTailStopsReplayExactlyWhereRecoveryStops) {
  const std::string dir = scratch_dir("ha_standby_torn");
  const std::string dir2 = scratch_dir("ha_standby_torn_copy");
  NetServer active(small_config(dir));

  StandbyOptions so;
  so.server = small_config();
  so.follow_dir = dir;
  StandbyServer standby(so);
  standby.poll();
  ASSERT_TRUE(standby.bootstrapped());

  ingest_mix(active, 0x700, 3);
  active.persistence()->simulate_kill();

  // A complete-but-corrupt record at one shard's tail (the kind of tear a
  // death inside write(2) can leave), then a valid record after it that
  // must never be applied.
  {
    persist::JournalRecord r;
    r.type = persist::RecordType::kAccept;
    r.frame = frame_for(0x700, 40, 6.0f);
    std::string bad;
    persist::encode_record(r, bad);
    bad[4] = static_cast<char>(bad[4] ^ 0x10);
    std::string good;
    r.frame = frame_for(0x700, 41, 6.0f);
    persist::encode_record(r, good);
    std::ofstream f(dir + "/journal-1-0.log",
                    std::ios::binary | std::ios::app);
    f.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    f.write(good.data(), static_cast<std::streamsize>(good.size()));
  }

  standby.poll();
  EXPECT_TRUE(standby.tail_damaged());

  fs::copy(dir, dir2, fs::copy_options::recursive);

  persist::PersistOptions popt;
  popt.dir = dir;
  popt.flush_every_records = 1;
  popt.epoch = 1;
  standby.promote(popt);  // damage does not block promotion

  NetServer recovered(small_config(dir2));
  EXPECT_EQ(image_bytes(standby.server()), image_bytes(recovered))
      << "torn-tail replay cut differs from disk recovery's";
}

// -------------------------------------------------------- gateway failover

TEST(HaFailover, DeadPrimarySwitchesToSecondary) {
  NetServer server_b(small_config());
  UdpIngestOptions io;
  io.send_acks = true;
  io.ack_role = [] { return std::make_pair(kAckActive, std::uint64_t{4}); };
  UdpIngestServer ingest_b(server_b, 0, io);

  FailoverOptions fo;
  fo.ack_timeout_s = 0.05;
  fo.max_rounds = 10;
  FailoverUplinkSender sender({"127.0.0.1", dead_port()},
                             {"127.0.0.1", ingest_b.port()}, fo);
  std::vector<UplinkFrame> frames;
  for (int i = 0; i < 6; ++i)
    frames.push_back(frame_for(0xA00 + static_cast<std::uint32_t>(i), 1, 6.0f));

  const auto rep = sender.send_reliable(frames);
  EXPECT_TRUE(rep.switched);
  EXPECT_EQ(rep.final_dest, 1);
  EXPECT_EQ(rep.acked, rep.datagrams);
  EXPECT_EQ(rep.peer_epoch, 4u);
  EXPECT_EQ(sender.switches(), 1u);

  ASSERT_TRUE(wait_for([&] { return server_b.stats().accepted >= 6; }, 5.0));
  EXPECT_EQ(server_b.stats().accepted, 6u);
}

TEST(HaFailover, NotActiveAckForcesImmediateSwitchWithoutIngest) {
  // Primary answers kAckNotActive (an unpromoted standby): it must not
  // ingest, and the gateway must fail over without waiting out a timeout.
  NetServer server_a(small_config());
  UdpIngestOptions ioa;
  ioa.send_acks = true;
  ioa.ack_role = [] { return std::make_pair(kAckNotActive, std::uint64_t{7}); };
  UdpIngestServer ingest_a(server_a, 0, ioa);

  NetServer server_b(small_config());
  UdpIngestOptions iob;
  iob.send_acks = true;
  iob.ack_role = [] { return std::make_pair(kAckActive, std::uint64_t{9}); };
  UdpIngestServer ingest_b(server_b, 0, iob);

  FailoverOptions fo;
  fo.ack_timeout_s = 0.1;
  fo.max_rounds = 10;
  FailoverUplinkSender sender({"127.0.0.1", ingest_a.port()},
                             {"127.0.0.1", ingest_b.port()}, fo);
  std::vector<UplinkFrame> frames;
  for (int i = 0; i < 4; ++i)
    frames.push_back(frame_for(0xB00 + static_cast<std::uint32_t>(i), 1, 6.0f));

  const auto rep = sender.send_reliable(frames);
  EXPECT_TRUE(rep.switched);
  EXPECT_EQ(rep.final_dest, 1);
  EXPECT_EQ(rep.acked, rep.datagrams);
  EXPECT_EQ(rep.peer_epoch, 9u);

  ASSERT_TRUE(wait_for([&] { return server_b.stats().accepted >= 4; }, 5.0));
  EXPECT_EQ(server_a.stats().uplinks, 0u)
      << "a standby must not ingest uplinks before promotion";
}

TEST(HaFailover, DualSendDuplicatesAreAbsorbedByDedup) {
  // The dual-send window can deliver the same batch twice; the server's
  // dedup window turns the second delivery into kDuplicate, keeping the
  // confirmed count exactly-once.
  NetServer server(small_config());
  UdpIngestOptions io;
  io.send_acks = true;
  io.ack_role = [] { return std::make_pair(kAckActive, std::uint64_t{1}); };
  UdpIngestServer ingest(server, 0, io);

  FailoverOptions fo;
  fo.ack_timeout_s = 0.1;
  FailoverUplinkSender sender({"127.0.0.1", ingest.port()},
                              {"127.0.0.1", ingest.port()}, fo);
  std::vector<UplinkFrame> frames;
  for (int i = 0; i < 5; ++i)
    frames.push_back(frame_for(0xC00 + static_cast<std::uint32_t>(i), 1, 6.0f));

  const auto rep1 = sender.send_reliable(frames);
  EXPECT_EQ(rep1.acked, rep1.datagrams);
  const auto rep2 = sender.send_reliable(frames);  // wholesale re-send
  EXPECT_EQ(rep2.acked, rep2.datagrams);

  ASSERT_TRUE(wait_for([&] { return server.stats().uplinks >= 10; }, 5.0));
  EXPECT_EQ(server.stats().accepted, 5u);
  EXPECT_EQ(server.stats().dedup_dropped, 5u);
}

// ----------------------------------------------------------------- /health

TEST(HaHealth, RoleFieldsSplicedIntoHealthEndpoint) {
  obs::TelemetryServer server(0);
  ASSERT_NE(server.port(), 0);

  obs::set_health_fields(
      [] { return std::string("\"role\":\"standby\",\"ha_epoch\":3"); });
  std::string health = http_get(server.port(), "/health");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"role\":\"standby\""), std::string::npos);
  EXPECT_NE(health.find("\"ha_epoch\":3"), std::string::npos);

  obs::set_health_fields(nullptr);
  health = http_get(server.port(), "/health");
  EXPECT_EQ(health.find("\"role\""), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
}

// -------------------------------------------------- citysim failover drill

TEST(HaCitySim, KillActivePromoteStandbyStaysExactlyOnce) {
  const std::string dir = scratch_dir("ha_citysim_failover");
  const auto table = citysim::OutcomeTable::analytic();

  citysim::EngineOptions opt;
  opt.n_devices = 2000;
  opt.duration_s = 120.0;
  opt.epoch_s = 15.0;
  opt.n_channels = 8;
  opt.threads = 2;
  opt.seed = 23;
  opt.city.n_gateways = 5;
  opt.city.radius_m = 1200.0;
  opt.traffic.metering_period_s = 60.0;
  opt.traffic.parking_period_s = 30.0;
  opt.traffic.tracker_period_s = 15.0;
  opt.replay_rate = 0.02;
  opt.adr_every = 8;
  opt.net.registry.shard_bits = 4;
  opt.net.dedup.shard_bits = 4;
  opt.net.persist.dir = dir;
  opt.checkpoint_epochs = 2;   // rotations the follower must ride through
  opt.kill_restore_epoch = 5;  // kill after a rotation + a journal tail

  // The hot standby follows the engine's state dir from a poller thread
  // while the engine hammers the active from its workers.
  StandbyOptions so;
  so.server = citysim::effective_options(opt).net;
  so.server.persist = {};
  so.server.keep_feed = false;
  so.follow_dir = dir;
  StandbyServer standby(so);

  std::atomic<bool> stop_poll{false};
  std::thread poller([&] {
    while (!stop_poll.load(std::memory_order_acquire)) {
      standby.poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  bool promoted = false;
  opt.promote_standby = [&]() {
    stop_poll.store(true, std::memory_order_release);
    if (poller.joinable()) poller.join();
    // The drill is the lease takeover in miniature: the active is dead,
    // its (implicit epoch-0) ownership expired, the standby fences at 1.
    persist::PersistOptions popt;
    popt.dir = dir;
    popt.flush_every_records = 1;
    popt.epoch = 1;
    standby.promote(popt);
    promoted = true;
    return standby.take_server();
  };

  citysim::CityEngine engine(opt, table);
  const auto r = engine.run();
  stop_poll.store(true, std::memory_order_release);
  if (poller.joinable()) poller.join();

  ASSERT_TRUE(promoted);
  ASSERT_TRUE(r.restored);
  // The hot takeover pays no disk re-recovery: the promoted server's
  // recovery stats describe its *streamed* replay — bootstrapped from
  // the gen-1 snapshot, then every record of gens 1..3 applied as the
  // active wrote them (two checkpoints land before the kill at epoch 5).
  EXPECT_GT(r.recovery_replayed, 0u);
  EXPECT_EQ(r.recovery_generation, 3u);

  // The promoted server owns the directory under the new epoch.
  EXPECT_EQ(persist::read_manifest(dir).epoch, 1u);
  ASSERT_NE(engine.server().persistence(), nullptr);
  EXPECT_EQ(engine.server().persistence()->epoch(), 1u);

  // City-scale shape survived the failover...
  EXPECT_GT(r.devices_registered, 1000u);
  EXPECT_GT(r.net_stats.accepted, 2000u);
  EXPECT_GT(r.net_stats.dedup_dropped, 0u);
  EXPECT_GT(r.net_stats.replay_rejected, 0u);

  // ...and the headline: the engine's mirror (which never died) agrees
  // with the promoted replica on every classification — zero frames
  // double-confirmed, zero lost. With flush_every_records forced to 1 and
  // the kill landing at a quiescent epoch barrier, the at-risk
  // unconfirmed tail is exactly zero, so exactness must hold.
  EXPECT_EQ(r.net_stats.accepted, r.expect_accepted);
  EXPECT_EQ(r.net_stats.dedup_dropped, r.expect_duplicates);
  EXPECT_EQ(r.net_stats.dedup_upgraded, r.expect_upgraded);
  EXPECT_EQ(r.net_stats.replay_rejected, r.expect_replays);
  EXPECT_TRUE(r.accounting_exact) << citysim::format_report(r);
}

TEST(HaCitySim, PromotedStandbyWithNarrowerDedupWindowIsRefused) {
  const std::string dir = scratch_dir("ha_citysim_narrow_standby");
  const auto table = citysim::OutcomeTable::analytic();

  citysim::EngineOptions opt;
  opt.n_devices = 200;
  opt.duration_s = 30.0;
  opt.epoch_s = 15.0;
  opt.seed = 5;
  opt.net.persist.dir = dir;
  opt.kill_restore_epoch = 1;
  ASSERT_LT(opt.net.dedup.window_s,
            citysim::effective_options(opt).net.dedup.window_s);

  // A stand-in built from the raw options keeps the narrow window the
  // engine widened for its own server: the engine must refuse it.
  opt.promote_standby = [&]() {
    NetServerConfig cfg = opt.net;
    cfg.keep_feed = false;
    return std::make_unique<NetServer>(cfg);
  };
  citysim::CityEngine engine(opt, table);
  try {
    engine.run();
    FAIL() << "the engine ran on a standby with a narrower dedup window";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dedup window"), std::string::npos)
        << e.what();
  }
}
