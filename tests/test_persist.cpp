// Durable control plane tests: atomic file replacement, journal framing
// under truncation/corruption, snapshot round-trips, NetServer
// kill/restore semantics, and the crash-point fault-injection matrix that
// kills persistence at every disk boundary and proves recovery from each
// one (docs/PERSISTENCE.md).
//
// Suite names are load-bearing: CI's sanitizer lanes select suites by
// regex (AtomicWrite|NetJournal|NetSnapshot|NetPersist).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "citysim/engine.hpp"
#include "citysim/outcome_table.hpp"
#include "net/persist/crash_point.hpp"
#include "net/persist/format.hpp"
#include "net/persist/journal.hpp"
#include "net/persist/persistence.hpp"
#include "net/persist/snapshot.hpp"
#include "net/server.hpp"
#include "util/atomic_write.hpp"

namespace fs = std::filesystem;
using namespace choir;
using namespace choir::net;
using namespace choir::net::persist;

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

/// Field-exact session comparison (doubles compared bit-for-bit via ==;
/// recovery replays the same arithmetic, so equality must be exact).
void expect_session_eq(const DeviceSession& a, const DeviceSession& b) {
  EXPECT_EQ(a.dev_addr, b.dev_addr);
  EXPECT_EQ(a.x_m, b.x_m);
  EXPECT_EQ(a.y_m, b.y_m);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.last_fcnt, b.last_fcnt);
  EXPECT_EQ(a.uplinks, b.uplinks);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.last_gateway, b.last_gateway);
  EXPECT_EQ(a.last_channel, b.last_channel);
  EXPECT_EQ(a.last_snr_db, b.last_snr_db);
  EXPECT_EQ(a.last_timing_samples, b.last_timing_samples);
  EXPECT_EQ(a.cfo_fingerprint_bins, b.cfo_fingerprint_bins);
  EXPECT_EQ(a.snr_count, b.snr_count);
  EXPECT_EQ(a.snr_head, b.snr_head);
  for (std::size_t i = 0; i < kSnrHistory; ++i)
    EXPECT_EQ(a.snr_hist[i], b.snr_hist[i]) << "snr_hist[" << i << "]";
}

/// Deterministic xorshift for the fuzz tests (no <random> state envy).
struct TinyRng {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

}  // namespace

// --------------------------------------------------------- util::atomic_write

TEST(AtomicWrite, WritesNewFileAndReplacesExisting) {
  const std::string dir = scratch_dir("atomic_write_basic");
  const std::string path = dir + "/target.bin";

  util::atomic_write(path, "first contents");
  EXPECT_EQ(slurp(path), "first contents");

  // Rename onto an existing file must atomically replace it.
  util::atomic_write(path, "second");
  EXPECT_EQ(slurp(path), "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWrite, MissingParentDirectoryThrowsAndCreatesNothing) {
  const std::string dir = scratch_dir("atomic_write_noparent");
  const std::string path = dir + "/no/such/dir/target.bin";
  EXPECT_THROW(util::atomic_write(path, "data"), std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
}

TEST(AtomicWrite, FailureMidTmpWriteLeavesTargetUntouched) {
  const std::string dir = scratch_dir("atomic_write_partial");
  const std::string path = dir + "/target.bin";
  util::atomic_write(path, "precious original");

  // Simulated crash between the two halves of the tmp write: the target
  // must still hold the original bytes (the torn file is only ever .tmp).
  EXPECT_THROW(util::atomic_write(path, "replacement that dies halfway",
                                  [](util::AtomicWriteStage st) {
                                    if (st == util::AtomicWriteStage::
                                                  kMidTmpWrite)
                                      throw std::runtime_error("torn");
                                  }),
               std::runtime_error);
  EXPECT_EQ(slurp(path), "precious original");
}

TEST(AtomicWrite, FailureBeforeRenameLeavesTargetUntouched) {
  const std::string dir = scratch_dir("atomic_write_prerename");
  const std::string path = dir + "/target.bin";
  util::atomic_write(path, "old");
  EXPECT_THROW(util::atomic_write(path, "new",
                                  [](util::AtomicWriteStage st) {
                                    if (st == util::AtomicWriteStage::
                                                  kBeforeRename)
                                      throw std::runtime_error("died");
                                  }),
               std::runtime_error);
  EXPECT_EQ(slurp(path), "old");
}

// -------------------------------------------------------------- journal codec

namespace {

std::vector<JournalRecord> sample_records() {
  std::vector<JournalRecord> rs;
  {
    JournalRecord r;
    r.type = RecordType::kProvision;
    r.dev_addr = 0xABCD;
    r.x_m = 12.5;
    r.y_m = -3.25;
    rs.push_back(r);
  }
  for (std::uint32_t fcnt = 0; fcnt < 5; ++fcnt) {
    JournalRecord r;
    r.type = RecordType::kAccept;
    r.frame = frame_for(0xABCD, fcnt, -7.5f + static_cast<float>(fcnt));
    r.frame.payload.clear();
    rs.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kReject;
    r.reject_kind = RejectKind::kDedup;
    r.upgraded = true;
    r.frame = frame_for(0xABCD, 4, -2.0f, 7);
    r.frame.payload.clear();
    rs.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kReject;
    r.reject_kind = RejectKind::kReplay;
    r.frame = frame_for(0xABCD, 2, -9.0f);
    r.frame.payload.clear();
    rs.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kAdrApplied;
    r.dev_addr = 0xABCD;
    rs.push_back(r);
  }
  {
    JournalRecord r;
    r.type = RecordType::kRoster;
    r.roster_version = 42;
    rs.push_back(r);
  }
  return rs;
}

std::string encode_journal(const std::vector<JournalRecord>& rs,
                           std::uint8_t shard) {
  std::string bytes = journal_header(shard);
  for (const auto& r : rs) encode_record(r, bytes);
  return bytes;
}

void expect_record_eq(const JournalRecord& a, const JournalRecord& b) {
  ASSERT_EQ(a.type, b.type);
  switch (a.type) {
    case RecordType::kProvision:
      EXPECT_EQ(a.dev_addr, b.dev_addr);
      EXPECT_EQ(a.x_m, b.x_m);
      EXPECT_EQ(a.y_m, b.y_m);
      break;
    case RecordType::kReject:
      EXPECT_EQ(a.reject_kind, b.reject_kind);
      EXPECT_EQ(a.upgraded, b.upgraded);
      [[fallthrough]];
    case RecordType::kAccept:
      EXPECT_EQ(a.frame.dev_addr, b.frame.dev_addr);
      EXPECT_EQ(a.frame.fcnt, b.frame.fcnt);
      EXPECT_EQ(a.frame.gateway_id, b.frame.gateway_id);
      EXPECT_EQ(a.frame.channel, b.frame.channel);
      EXPECT_EQ(a.frame.sf, b.frame.sf);
      EXPECT_EQ(a.frame.stream_offset, b.frame.stream_offset);
      EXPECT_EQ(a.frame.snr_db, b.frame.snr_db);
      EXPECT_EQ(a.frame.cfo_bins, b.frame.cfo_bins);
      EXPECT_EQ(a.frame.timing_samples, b.frame.timing_samples);
      break;
    case RecordType::kAdrApplied:
      EXPECT_EQ(a.dev_addr, b.dev_addr);
      break;
    case RecordType::kRoster:
      EXPECT_EQ(a.roster_version, b.roster_version);
      break;
    case RecordType::kEpoch:
      EXPECT_EQ(a.epoch, b.epoch);
      break;
  }
}

}  // namespace

TEST(NetJournal, EncodesAndScansEveryRecordType) {
  const auto rs = sample_records();
  const std::string bytes = encode_journal(rs, 3);
  const JournalScan scan = scan_journal(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(), 3);
  EXPECT_FALSE(scan.damaged);
  EXPECT_EQ(scan.skipped_unknown, 0u);
  EXPECT_EQ(scan.bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i)
    expect_record_eq(rs[i], scan.records[i]);
}

TEST(NetJournal, EveryTruncationPrefixRecoversToTheLastIntactRecord) {
  const auto rs = sample_records();
  const std::string bytes = encode_journal(rs, 0);

  // Record boundaries: byte offset at which record i is fully written.
  std::vector<std::size_t> boundary;
  {
    std::string acc = journal_header(0);
    for (const auto& r : rs) {
      encode_record(r, acc);
      boundary.push_back(acc.size());
    }
  }

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const JournalScan scan = scan_journal(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), len, 0);
    // Recovered exactly the records fully contained in the prefix.
    std::size_t complete = 0;
    while (complete < boundary.size() && boundary[complete] <= len) ++complete;
    ASSERT_EQ(scan.records.size(), complete) << "prefix length " << len;
    for (std::size_t i = 0; i < complete; ++i)
      expect_record_eq(rs[i], scan.records[i]);
    // A prefix that ends exactly on a record boundary (or a whole/empty
    // file) is clean; anything mid-record is a damaged tail.
    const bool on_boundary =
        len == 0 || len == kJournalHeaderBytes ||
        (complete > 0 && boundary[complete - 1] == len);
    EXPECT_EQ(scan.damaged, !on_boundary) << "prefix length " << len;
  }
}

TEST(NetJournal, ByteFlipFuzzNeverCrashesAndRecoversOnlyIntactPrefix) {
  const auto rs = sample_records();
  const std::string clean = encode_journal(rs, 0);

  // Boundary offsets again, to map a damaged byte to its record index.
  std::vector<std::size_t> boundary;
  {
    std::string acc = journal_header(0);
    for (const auto& r : rs) {
      encode_record(r, acc);
      boundary.push_back(acc.size());
    }
  }

  TinyRng rng;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string fuzzed = clean;
    const std::size_t pos = rng.next() % fuzzed.size();
    const std::uint8_t bit = 1u << (rng.next() % 8);
    fuzzed[pos] = static_cast<char>(static_cast<std::uint8_t>(fuzzed[pos]) ^
                                    bit);
    const JournalScan scan = scan_journal(
        reinterpret_cast<const std::uint8_t*>(fuzzed.data()), fuzzed.size(),
        0);
    // Records strictly before the damaged byte's record must be intact;
    // nothing past the damage may be trusted blindly, but whatever WAS
    // recovered at an index before the damage must equal the original.
    std::size_t damaged_record = 0;
    while (damaged_record < boundary.size() &&
           boundary[damaged_record] <= pos)
      ++damaged_record;
    ASSERT_GE(scan.records.size(),
              pos < kJournalHeaderBytes ? 0u : damaged_record)
        << "trial " << trial << " pos " << pos;
    for (std::size_t i = 0; i < scan.records.size() && i < damaged_record;
         ++i)
      expect_record_eq(rs[i], scan.records[i]);
  }
}

TEST(NetJournal, TruncatedFuzzComposesWithBitFlips) {
  const auto rs = sample_records();
  const std::string clean = encode_journal(rs, 0);
  TinyRng rng;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string fuzzed = clean.substr(0, rng.next() % (clean.size() + 1));
    if (!fuzzed.empty()) {
      const std::size_t pos = rng.next() % fuzzed.size();
      fuzzed[pos] =
          static_cast<char>(static_cast<std::uint8_t>(fuzzed[pos]) ^
                            static_cast<std::uint8_t>(rng.next() % 255 + 1));
    }
    // Must not crash, throw, or read out of bounds (ASan lane checks).
    const JournalScan scan = scan_journal(
        reinterpret_cast<const std::uint8_t*>(fuzzed.data()), fuzzed.size(),
        0);
    EXPECT_LE(scan.records.size(), rs.size());
  }
}

TEST(NetJournal, UnknownRecordTypeWithValidCrcIsSkippedNotFatal) {
  std::string bytes = journal_header(0);
  {
    JournalRecord r;
    r.type = RecordType::kRoster;
    r.roster_version = 1;
    encode_record(r, bytes);
  }
  {
    // Future record type 200 with a valid CRC: old readers skip it.
    std::string body;
    put_u8(body, 200);
    put_u32(body, 0xDEAD);
    put_u16(bytes, static_cast<std::uint16_t>(body.size()));
    bytes += body;
    put_u32(bytes, crc32(body));
  }
  {
    JournalRecord r;
    r.type = RecordType::kRoster;
    r.roster_version = 2;
    encode_record(r, bytes);
  }
  const JournalScan scan = scan_journal(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(), 0);
  EXPECT_FALSE(scan.damaged);
  EXPECT_EQ(scan.skipped_unknown, 1u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].roster_version, 1u);
  EXPECT_EQ(scan.records[1].roster_version, 2u);
}

TEST(NetJournal, WrongShardOrBadHeaderIsDamage) {
  const std::string bytes = encode_journal(sample_records(), 3);
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const JournalScan wrong = scan_journal(data, bytes.size(), 4);
  EXPECT_TRUE(wrong.damaged);
  EXPECT_TRUE(wrong.records.empty());

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  const JournalScan bm = scan_journal(
      reinterpret_cast<const std::uint8_t*>(bad_magic.data()),
      bad_magic.size(), 3);
  EXPECT_TRUE(bm.damaged);
  EXPECT_TRUE(bm.records.empty());
}

TEST(NetJournal, MissingFileIsACleanEmptyJournal) {
  const JournalScan scan =
      load_journal(scratch_dir("journal_missing") + "/nope.log", 0);
  EXPECT_FALSE(scan.damaged);
  EXPECT_TRUE(scan.records.empty());
}

// ------------------------------------------------------------------ snapshot

namespace {

SnapshotImage sample_image() {
  SnapshotImage img;
  img.counters.uplinks = 100;
  img.counters.accepted = 80;
  img.counters.dedup_dropped = 12;
  img.counters.dedup_upgraded = 3;
  img.counters.replay_rejected = 6;
  img.counters.unknown_device = 1;
  img.counters.malformed = 1;
  img.evicted = 7;
  img.team_version = 9;
  img.assignments = {{1, -1}, {2, 5}, {3, 5}, {9, -2}};
  img.shard_bits = 2;
  img.shards.resize(4);
  DeviceRegistry reg([] {
    RegistryOptions o;
    o.shard_bits = 2;
    return o;
  }());
  for (std::uint32_t dev = 0; dev < 12; ++dev) {
    for (std::uint32_t fcnt = 0; fcnt <= dev; ++fcnt)
      reg.accept(frame_for(dev, fcnt, -5.0f - static_cast<float>(dev)));
    reg.provision(dev, dev * 1.5, dev * -2.5);
  }
  for (std::size_t sh = 0; sh < 4; ++sh) img.shards[sh] = reg.dump_shard(sh);
  return img;
}

}  // namespace

TEST(NetSnapshot, RoundTripsBitForBit) {
  const SnapshotImage img = sample_image();
  const std::string bytes = encode_snapshot(img);
  const SnapshotImage out = decode_snapshot(bytes);

  EXPECT_EQ(out.counters.uplinks, img.counters.uplinks);
  EXPECT_EQ(out.counters.accepted, img.counters.accepted);
  EXPECT_EQ(out.counters.dedup_dropped, img.counters.dedup_dropped);
  EXPECT_EQ(out.counters.dedup_upgraded, img.counters.dedup_upgraded);
  EXPECT_EQ(out.counters.replay_rejected, img.counters.replay_rejected);
  EXPECT_EQ(out.counters.unknown_device, img.counters.unknown_device);
  EXPECT_EQ(out.counters.malformed, img.counters.malformed);
  EXPECT_EQ(out.evicted, img.evicted);
  EXPECT_EQ(out.team_version, img.team_version);
  EXPECT_EQ(out.assignments, img.assignments);
  EXPECT_EQ(out.shard_bits, img.shard_bits);
  ASSERT_EQ(out.shards.size(), img.shards.size());
  for (std::size_t sh = 0; sh < img.shards.size(); ++sh) {
    ASSERT_EQ(out.shards[sh].size(), img.shards[sh].size()) << "shard " << sh;
    for (std::size_t i = 0; i < img.shards[sh].size(); ++i)
      expect_session_eq(img.shards[sh][i], out.shards[sh][i]);
  }
}

TEST(NetSnapshot, DetectsCorruptionAndTruncationEverywhere) {
  const std::string bytes = encode_snapshot(sample_image());

  // Every truncation throws (a snapshot is all-or-nothing).
  for (std::size_t len = 0; len < bytes.size(); len += 7)
    EXPECT_THROW(decode_snapshot(bytes.substr(0, len)), std::runtime_error)
        << "prefix " << len;

  // Any flipped bit throws (CRC, or a range check behind it).
  TinyRng rng;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bad = bytes;
    const std::size_t pos = rng.next() % bad.size();
    bad[pos] = static_cast<char>(static_cast<std::uint8_t>(bad[pos]) ^
                                 (1u << (rng.next() % 8)));
    EXPECT_THROW(decode_snapshot(bad), std::runtime_error)
        << "trial " << trial << " pos " << pos;
  }
}

// ------------------------------------------------- NetServer restore semantics

namespace {

NetServerConfig persist_config(const std::string& dir,
                               std::size_t flush_every = 1,
                               std::size_t shard_bits = 2) {
  NetServerConfig cfg;
  cfg.registry.shard_bits = shard_bits;
  cfg.dedup.shard_bits = shard_bits;
  cfg.persist.dir = dir;
  cfg.persist.flush_every_records = flush_every;
  return cfg;
}

/// Kill server `s` as SIGKILL would and return a recovered replacement.
std::unique_ptr<NetServer> kill_and_recover(std::unique_ptr<NetServer> s,
                                            const NetServerConfig& cfg) {
  s->persistence()->simulate_kill();
  s.reset();
  return std::make_unique<NetServer>(cfg);
}

}  // namespace

TEST(NetPersist, RestoreReproducesSessionsCountersAndReplayWindows) {
  const std::string dir = scratch_dir("persist_roundtrip");
  const NetServerConfig cfg = persist_config(dir);

  auto a = std::make_unique<NetServer>(cfg);
  a->provision(1, 10.0, 20.0);
  a->provision(2, -5.0, 0.5);
  for (std::uint32_t dev = 1; dev <= 40; ++dev)
    for (std::uint32_t fcnt = 0; fcnt < 1 + dev % 20; ++fcnt)
      a->ingest_at(frame_for(dev, fcnt, -10.0f + 0.25f * fcnt), 0.1 * fcnt);
  // Cross-gateway duplicate that wins on SNR (upgrade path).
  a->ingest_at(frame_for(1, 0, -4.0f, /*gateway=*/9), 0.05);
  // Stale replay, a malformed frame, and ADR history reset.
  a->ingest_at(frame_for(3, 0, -8.0f), 99.0);
  UplinkFrame bad = frame_for(4, 999, -8.0f);
  bad.payload.clear();
  a->ingest_at(std::move(bad), 99.0);
  a->note_adr_applied(2);

  const NetServerStats before = a->stats();
  std::vector<DeviceSession> sessions;
  for (std::uint32_t dev = 1; dev <= 40; ++dev)
    sessions.push_back(*a->registry().lookup(dev));

  auto b = kill_and_recover(std::move(a), cfg);
  EXPECT_TRUE(b->recovery().restored);
  EXPECT_EQ(b->recovery().discarded, 0u);

  const NetServerStats after = b->stats();
  EXPECT_EQ(after.uplinks, before.uplinks);
  EXPECT_EQ(after.accepted, before.accepted);
  EXPECT_EQ(after.dedup_dropped, before.dedup_dropped);
  EXPECT_EQ(after.dedup_upgraded, before.dedup_upgraded);
  EXPECT_EQ(after.replay_rejected, before.replay_rejected);
  EXPECT_EQ(after.unknown_device, before.unknown_device);
  EXPECT_EQ(after.malformed, before.malformed);

  for (std::uint32_t dev = 1; dev <= 40; ++dev) {
    SCOPED_TRACE(dev);
    const auto s = b->registry().lookup(dev);
    ASSERT_TRUE(s.has_value());
    expect_session_eq(sessions[dev - 1], *s);
  }

  // The replay window survived: re-offering an already-accepted FCnt with
  // fresh payload bits must be rejected, not re-accepted.
  const auto replayed = b->ingest_at(frame_for(1, 0, -3.0f, 1, /*salt=*/7),
                                     200.0);
  EXPECT_EQ(replayed.status, IngestStatus::kReplay);
}

TEST(NetPersist, CheckpointRotatesGenerationsAndSurvivesRepeatedKills) {
  const std::string dir = scratch_dir("persist_rotate");
  const NetServerConfig cfg = persist_config(dir);

  auto s = std::make_unique<NetServer>(cfg);
  for (std::uint32_t fcnt = 0; fcnt < 10; ++fcnt)
    s->ingest_at(frame_for(7, fcnt, -6.0f), 0.1 * fcnt);
  s->checkpoint();
  const std::uint64_t gen_after_checkpoint = s->persistence()->generation();
  for (std::uint32_t fcnt = 10; fcnt < 15; ++fcnt)
    s->ingest_at(frame_for(7, fcnt, -6.0f), 0.1 * fcnt);
  const DeviceSession ref = *s->registry().lookup(7);

  // Old generations are garbage-collected at checkpoint.
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.insert(e.path().filename().string());
  for (std::uint64_t g = 0; g < gen_after_checkpoint; ++g)
    EXPECT_FALSE(names.count("snapshot-" + std::to_string(g) + ".bin"))
        << "stale generation " << g << " not cleaned up";

  s = kill_and_recover(std::move(s), cfg);
  expect_session_eq(ref, *s->registry().lookup(7));
  EXPECT_GT(s->persistence()->generation(), gen_after_checkpoint);

  // Immediate second kill (journal of the new generation still empty).
  s = kill_and_recover(std::move(s), cfg);
  expect_session_eq(ref, *s->registry().lookup(7));
  const auto replay = s->ingest_at(frame_for(7, 14, -6.0f, 1, 9), 50.0);
  EXPECT_EQ(replay.status, IngestStatus::kReplay);
}

TEST(NetPersist, RestoreDoesNotResurrectEvictedDevices) {
  // Eviction x persistence: a restored registry must agree with the
  // live one about who was evicted — the victim's replay window is gone
  // (its old FCnt is accepted again on re-contact), everyone resident
  // keeps theirs, and net.registry.evicted continues from the restored
  // total rather than resetting.
  const std::string dir = scratch_dir("persist_evict");
  NetServerConfig cfg = persist_config(dir);
  cfg.registry.max_devices = 8;  // 4 shards -> 2 sessions per shard

  auto a = std::make_unique<NetServer>(cfg);
  for (std::uint32_t dev = 0; dev < 32; ++dev)
    a->ingest_at(frame_for(dev, 5, -6.0f), 0.01 * dev);
  const std::uint64_t evicted_before = a->registry().evicted();
  ASSERT_GT(evicted_before, 0u);

  // Find one evicted and one resident device.
  std::uint32_t gone = UINT32_MAX, resident = UINT32_MAX;
  for (std::uint32_t dev = 0; dev < 32; ++dev) {
    if (!a->registry().lookup(dev))
      gone = dev;
    else
      resident = dev;
  }
  ASSERT_NE(gone, UINT32_MAX);
  ASSERT_NE(resident, UINT32_MAX);

  auto b = kill_and_recover(std::move(a), cfg);
  EXPECT_EQ(b->registry().evicted(), evicted_before);
  EXPECT_EQ(b->registry().device_count(), 8u);
  EXPECT_FALSE(b->registry().lookup(gone).has_value());

  // Evicted: the window reset with the eviction, so the stale FCnt is
  // fresh again. Resident: the window survived, same FCnt is a replay.
  EXPECT_EQ(b->ingest_at(frame_for(gone, 5, -6.0f, 1, 1), 10.0).status,
            IngestStatus::kAccepted);
  EXPECT_EQ(b->ingest_at(frame_for(resident, 5, -6.0f, 1, 1), 10.0).status,
            IngestStatus::kReplay);
}

TEST(NetPersist, EvictionOrderReplaysIdenticallyAcrossRestore) {
  // The FIFO queue position is part of the durable state: after restore,
  // the next eviction must pick the same victim the dead process would
  // have picked.
  const std::string dir = scratch_dir("persist_evict_order");
  NetServerConfig cfg = persist_config(dir);
  cfg.registry.max_devices = 8;

  auto mk_workload = [](NetServer& s) {
    for (std::uint32_t dev = 0; dev < 12; ++dev)
      s.ingest_at(frame_for(dev, 1, -5.0f), 0.01 * dev);
  };

  // Reference: no kill.
  const std::string ref_dir = scratch_dir("persist_evict_order_ref");
  NetServerConfig ref_cfg = persist_config(ref_dir);
  ref_cfg.registry.max_devices = 8;
  auto ref = std::make_unique<NetServer>(ref_cfg);
  mk_workload(*ref);
  for (std::uint32_t dev = 100; dev < 112; ++dev)
    ref->ingest_at(frame_for(dev, 1, -5.0f), 1.0);

  // Killed-and-restored twin: same workload split across the kill.
  auto s = std::make_unique<NetServer>(cfg);
  mk_workload(*s);
  s = kill_and_recover(std::move(s), cfg);
  for (std::uint32_t dev = 100; dev < 112; ++dev)
    s->ingest_at(frame_for(dev, 1, -5.0f), 1.0);

  EXPECT_EQ(s->registry().evicted(), ref->registry().evicted());
  for (std::uint32_t dev = 0; dev < 112; ++dev) {
    const auto lhs = s->registry().lookup(dev);
    const auto rhs = ref->registry().lookup(dev);
    ASSERT_EQ(lhs.has_value(), rhs.has_value()) << "device " << dev;
    if (lhs) expect_session_eq(*rhs, *lhs);
  }
}

TEST(NetPersist, BatchedFlushTradesADurabilityWindow) {
  const std::string dir = scratch_dir("persist_batched");
  const NetServerConfig cfg = persist_config(dir, /*flush_every=*/64);

  auto a = std::make_unique<NetServer>(cfg);
  for (std::uint32_t fcnt = 0; fcnt < 10; ++fcnt)
    a->ingest_at(frame_for(5, fcnt, -6.0f), 0.1 * fcnt);
  ASSERT_EQ(a->stats().accepted, 10u);

  // All 10 records are still buffered (64-record group commit): the kill
  // loses them. That is the documented contract of flush_every > 1 — and
  // the recovered server ACCEPTS the re-offered frames rather than
  // double-rejecting them, so nothing is lost forever, merely
  // re-deliverable.
  auto b = kill_and_recover(std::move(a), cfg);
  EXPECT_EQ(b->stats().accepted, 0u);
  EXPECT_FALSE(b->registry().lookup(5).has_value());
  EXPECT_EQ(b->ingest_at(frame_for(5, 0, -6.0f), 10.0).status,
            IngestStatus::kAccepted);

  // flush_all() closes the window on demand.
  for (std::uint32_t fcnt = 1; fcnt < 4; ++fcnt)
    b->ingest_at(frame_for(5, fcnt, -6.0f), 10.0 + 0.1 * fcnt);
  b->persistence()->flush_all();
  auto c = kill_and_recover(std::move(b), cfg);
  EXPECT_EQ(c->registry().lookup(5)->last_fcnt, 3u);
}

TEST(NetPersist, AdrHistoryResetSurvivesRestore) {
  const std::string dir = scratch_dir("persist_adr");
  const NetServerConfig cfg = persist_config(dir);

  auto a = std::make_unique<NetServer>(cfg);
  for (std::uint32_t fcnt = 0; fcnt < 6; ++fcnt)
    a->ingest_at(frame_for(11, fcnt, -4.0f), 0.1 * fcnt);
  a->note_adr_applied(11);
  for (std::uint32_t fcnt = 6; fcnt < 9; ++fcnt)
    a->ingest_at(frame_for(11, fcnt, -14.0f), 0.1 * fcnt);
  const DeviceSession ref = *a->registry().lookup(11);
  ASSERT_EQ(ref.snr_count, 3u);  // history restarted at the ADR change

  auto b = kill_and_recover(std::move(a), cfg);
  expect_session_eq(ref, *b->registry().lookup(11));
}

TEST(NetPersist, RosterVersionContinuesAcrossRestore) {
  const std::string dir = scratch_dir("persist_roster");
  const NetServerConfig cfg = persist_config(dir);

  auto a = std::make_unique<NetServer>(cfg);
  for (std::uint32_t dev = 1; dev <= 6; ++dev)
    a->ingest_at(frame_for(dev, 0, -12.0f), 0.0);
  a->teams().rebuild();
  a->teams().rebuild();
  ASSERT_EQ(a->teams().roster().version, 2u);

  auto b = kill_and_recover(std::move(a), cfg);
  EXPECT_EQ(b->teams().roster().version, 2u);
  EXPECT_EQ(b->teams().rebuild().version, 3u);
}

TEST(NetPersist, ShardBitsMismatchIsAHardError) {
  const std::string dir = scratch_dir("persist_shardbits");
  auto a = std::make_unique<NetServer>(persist_config(dir, 1, 2));
  a->ingest_at(frame_for(1, 0, -5.0f), 0.0);
  a->persistence()->simulate_kill();
  a.reset();
  EXPECT_THROW(NetServer(persist_config(dir, 1, 3)), std::runtime_error);
}

TEST(NetPersist, UnknownDeviceRejectionsAreJournaled) {
  const std::string dir = scratch_dir("persist_unknown");
  NetServerConfig cfg = persist_config(dir);
  cfg.registry.auto_provision = false;

  auto a = std::make_unique<NetServer>(cfg);
  a->provision(1, 0.0, 0.0);
  a->ingest_at(frame_for(1, 0, -5.0f), 0.0);
  a->ingest_at(frame_for(99, 0, -5.0f), 0.0);  // never provisioned
  ASSERT_EQ(a->stats().unknown_device, 1u);

  auto b = kill_and_recover(std::move(a), cfg);
  EXPECT_EQ(b->stats().unknown_device, 1u);
  EXPECT_EQ(b->stats().accepted, 1u);
  EXPECT_FALSE(b->registry().lookup(99).has_value());
}

TEST(NetPersist, ConcurrentIngestWithCheckpointsRecoversConsistently) {
  // TSan target: 4 ingest threads (disjoint devices) racing the
  // checkpoint gate. Each device's traffic lives on one thread, so the
  // final per-device state is deterministic even though global interleave
  // is not.
  const std::string dir = scratch_dir("persist_threads");
  const NetServerConfig cfg = persist_config(dir);

  auto s = std::make_unique<NetServer>(cfg);
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 25;
  constexpr std::uint32_t kFrames = 30;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint32_t dev = 1000 + static_cast<std::uint32_t>(t) * 100 + i;
        for (std::uint32_t fcnt = 0; fcnt < kFrames; ++fcnt)
          s->ingest_at(frame_for(dev, fcnt, -7.0f), 0.001 * fcnt);
      }
    });
  }
  for (int i = 0; i < 5; ++i) s->checkpoint();
  for (auto& th : threads) th.join();
  s->checkpoint();

  const NetServerStats before = s->stats();
  s = kill_and_recover(std::move(s), cfg);
  EXPECT_EQ(s->stats().accepted, before.accepted);
  EXPECT_EQ(s->stats().uplinks, before.uplinks);
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint32_t i = 0; i < kPerThread; ++i) {
      const std::uint32_t dev = 1000 + static_cast<std::uint32_t>(t) * 100 + i;
      const auto sess = s->registry().lookup(dev);
      ASSERT_TRUE(sess.has_value()) << dev;
      EXPECT_EQ(sess->last_fcnt, kFrames - 1) << dev;
      EXPECT_EQ(sess->uplinks, kFrames) << dev;
    }
  }
}

// ------------------------------------------------------- crash-point matrix

namespace {

/// One frame of the matrix workload, with its expected classification.
struct WorkItem {
  UplinkFrame frame;
  bool expect_accept = false;
};

/// Deterministic workload: provisions, fresh accepts, cross-gateway
/// duplicates, stale replays — enough to touch every journal record type.
std::vector<WorkItem> matrix_workload() {
  std::vector<WorkItem> items;
  for (std::uint32_t dev = 1; dev <= 6; ++dev) {
    for (std::uint32_t fcnt = 0; fcnt < 4; ++fcnt) {
      WorkItem w;
      w.frame = frame_for(dev, fcnt, -8.0f + static_cast<float>(fcnt));
      w.expect_accept = true;
      items.push_back(w);
      if (fcnt == 1) {
        // Cross-gateway copy (same payload, better SNR): dedup + upgrade.
        WorkItem d;
        d.frame = frame_for(dev, fcnt, -2.0f, /*gateway=*/5);
        items.push_back(d);
      }
      if (fcnt == 3) {
        // Attacker replay: stale FCnt, salted payload.
        WorkItem r;
        r.frame = frame_for(dev, 0, -8.0f, 1, /*salt=*/0xEE);
        items.push_back(r);
      }
    }
  }
  return items;
}

/// Runs the workload against `s` from item `start`, checkpointing once in
/// the middle, recording every confirmed (dev, fcnt) acceptance in
/// `confirmed`. Throws CrashInjected if an armed point fires.
void run_matrix_workload(NetServer& s,
                         std::map<std::pair<std::uint32_t, std::uint32_t>,
                                  int>& confirmed,
                         std::size_t start = 0) {
  s.set_callback([&confirmed](const UplinkFrame& f) {
    ++confirmed[{f.dev_addr, f.fcnt}];
  });
  const auto items = matrix_workload();
  for (std::size_t i = start; i < items.size(); ++i) {
    if (i == items.size() / 2) s.checkpoint();
    UplinkFrame f = items[i].frame;
    s.ingest_at(std::move(f), 0.01 * static_cast<double>(i));
  }
}

}  // namespace

TEST(NetPersistCrashMatrix, EveryCrashPointRecoversWithExactlyOnceDelivery) {
  if (!kFaultsEnabled) GTEST_SKIP() << "built with CHOIR_FAULTS=OFF";

  // Reference run (no faults): the state every recovery must converge to
  // after the full workload has been re-offered.
  disarm_crash_points();
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> ref_confirmed;
  const std::string ref_dir = scratch_dir("crash_matrix_ref");
  {
    NetServer ref(persist_config(ref_dir));
    run_matrix_workload(ref, ref_confirmed);
  }
  // Dry-run enumeration: every crash point the workload visits, with its
  // hit count, from the fault log itself — the matrix can never silently
  // miss a new boundary someone adds later.
  const auto visited = crash_point_log();
  ASSERT_GE(visited.size(), 8u) << "crash points disappeared?";

  std::size_t crashes = 0;
  for (const auto& [point, hits] : visited) {
    // First occurrence and a mid-stream occurrence of each point.
    for (const std::uint64_t nth : {std::uint64_t{1}, hits / 2 + 1}) {
      if (nth > hits) continue;
      SCOPED_TRACE(point + " occurrence " + std::to_string(nth));
      const std::string dir =
          scratch_dir("crash_matrix_" + point + "_" + std::to_string(nth));

      std::map<std::pair<std::uint32_t, std::uint32_t>, int> confirmed;
      arm_crash_point(point, nth);
      bool crashed = false;
      try {
        NetServer victim(persist_config(dir));
        run_matrix_workload(victim, confirmed);
        // Workload survived (point sits beyond what this run executes) —
        // e.g. arming the startup checkpoint's Nth hit when startup only
        // hits it once. Fine: treat as a graceful run.
      } catch (const CrashInjected&) {
        crashed = true;
        ++crashes;
      }
      disarm_crash_points();

      // Recover and re-offer the FULL workload: durable accepts must be
      // rejected as replays (never re-confirmed), lost ones re-accepted.
      NetServer recovered((persist_config(dir)));
      run_matrix_workload(recovered, confirmed);

      std::size_t zero_confirmed = 0;
      for (const auto& [key, times] : ref_confirmed) {
        const auto it = confirmed.find(key);
        const int total = it == confirmed.end() ? 0 : it->second;
        EXPECT_LE(total, 1) << "frame dev=" << key.first
                            << " fcnt=" << key.second
                            << " confirmed twice (exactly-once violated)";
        if (total == 0) ++zero_confirmed;
      }
      // At most the single frame in flight at the crash may vanish: its
      // journal record became durable but the process died before the
      // confirmation callback ran. (Graceful runs lose nothing.)
      EXPECT_LE(zero_confirmed, crashed ? 1u : 0u);

      // The recovered registry converged to the reference state.
      for (std::uint32_t dev = 1; dev <= 6; ++dev) {
        const auto sess = recovered.registry().lookup(dev);
        ASSERT_TRUE(sess.has_value()) << dev;
        EXPECT_EQ(sess->last_fcnt, 3u) << dev;
        EXPECT_TRUE(sess->seen) << dev;
      }
    }
  }
  // The matrix must have actually injected faults — a refactor that stops
  // crash points from firing would otherwise hollow this test out into a
  // graceful-restart loop without failing anything.
  EXPECT_GE(crashes, visited.size())
      << "most armed crash points never fired";
}

TEST(NetPersistCrashMatrix, CrashDuringStartupCheckpointIsRecoverable) {
  if (!kFaultsEnabled) GTEST_SKIP() << "built with CHOIR_FAULTS=OFF";
  disarm_crash_points();

  const std::string dir = scratch_dir("crash_startup");
  {
    NetServer s(persist_config(dir));
    for (std::uint32_t fcnt = 0; fcnt < 8; ++fcnt)
      s.ingest_at(frame_for(3, fcnt, -5.0f), 0.1 * fcnt);
    s.persistence()->simulate_kill();
  }

  // The next construction crashes inside its own startup checkpoint...
  arm_crash_point("checkpoint.manifest.before", 1);
  EXPECT_THROW(NetServer(persist_config(dir)), CrashInjected);
  disarm_crash_points();

  // ...and the one after that still recovers everything.
  NetServer s(persist_config(dir));
  EXPECT_TRUE(s.recovery().restored);
  const auto sess = s.registry().lookup(3);
  ASSERT_TRUE(sess.has_value());
  EXPECT_EQ(sess->last_fcnt, 7u);
}

// ----------------------------------------------- citysim kill/restore (small)

TEST(NetPersistCitySim, SmallCityKillRestoreKeepsAccountingExact) {
  // The engine's exact-accounting mirror is the verifier: it tracks what
  // the server MUST contain, survives the kill in engine memory, and the
  // recovered server must satisfy it bit-for-bit. The 100k-device version
  // lives in the slow suite (test_citysim_persist.cpp).
  const std::string dir = scratch_dir("citysim_kill_small");
  citysim::EngineOptions opt;
  opt.n_devices = 1500;
  opt.duration_s = 120.0;
  opt.epoch_s = 30.0;
  opt.n_channels = 4;
  opt.threads = 2;
  opt.seed = 5;
  opt.city.n_gateways = 4;
  opt.city.radius_m = 1200.0;
  opt.traffic.metering_period_s = 120.0;
  opt.traffic.parking_period_s = 60.0;
  opt.traffic.tracker_period_s = 30.0;
  opt.replay_rate = 0.05;
  opt.adr_every = 8;
  opt.team_rebuild_epochs = 2;
  opt.net.registry.shard_bits = 4;
  opt.net.dedup.shard_bits = 4;
  opt.net.persist.dir = dir;
  opt.checkpoint_epochs = 1;
  opt.kill_restore_epoch = 2;

  const auto table = citysim::OutcomeTable::analytic();
  citysim::CityEngine engine(opt, table);
  const auto r = engine.run();

  EXPECT_TRUE(r.restored);
  EXPECT_GT(r.recovery_snapshot_sessions, 0u);
  EXPECT_EQ(r.recovery_discarded, 0u);
  EXPECT_GT(r.net_stats.accepted, 0u);
  EXPECT_GT(r.net_stats.replay_rejected, 0u);
  EXPECT_TRUE(r.accounting_exact)
      << "mirror diverged across kill/restore:\n"
      << citysim::format_report(r);
}

TEST(NetPersistCitySim, KillRestoreRequiresAStateDir) {
  citysim::EngineOptions opt;
  opt.n_devices = 100;
  opt.kill_restore_epoch = 1;
  const auto table = citysim::OutcomeTable::analytic();
  EXPECT_THROW(citysim::CityEngine(opt, table), std::invalid_argument);
}
