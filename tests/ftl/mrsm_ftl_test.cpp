#include "ftl/mrsm_ftl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ssd/checkpoint.h"
#include "ssd/serialize.h"
#include "../helpers.h"

namespace af::ftl {
namespace {

struct MrsmFixture : ::testing::Test {
  MrsmFixture() : ssd(test::tiny_config(), SchemeKind::kMrsm) {}

  MrsmFtl& scheme() { return dynamic_cast<MrsmFtl&>(ssd.scheme()); }
  const ssd::DeviceStats& stats() { return ssd.stats(); }
  std::uint32_t spp() { return ssd.config().geometry.sectors_per_page(); }

  void write(SectorAddr off, SectorCount len) {
    test::submit_ok(ssd, {t++, true, SectorRange::of(off, len)});
  }
  void read(SectorAddr off, SectorCount len) {
    test::submit_ok(ssd, {t++, false, SectorRange::of(off, len)});
  }
  std::uint64_t data_writes() {
    return stats().flash_ops(ssd::OpKind::kDataWrite);
  }

  sim::Ssd ssd;
  SimTime t = 0;
};

TEST_F(MrsmFixture, AlignedWritesStayPageMapped) {
  write(0, spp());
  write(16, spp());
  // Sub-page-aligned partial writes also stay page-mapped (the adaptive
  // switch upgrades only on true misalignment).
  write(4, 8);
  EXPECT_FALSE(scheme().region_is_sub(Lpn{0}));
  EXPECT_EQ(scheme().sub_regions(), 0u);
  EXPECT_EQ(data_writes(), 3u);
}

TEST_F(MrsmFixture, MisalignedWriteUpgradesRegion) {
  write(2, 7);  // edges land inside sub-pages
  EXPECT_TRUE(scheme().region_is_sub(Lpn{0}));
  EXPECT_EQ(scheme().sub_regions(), 1u);
}

TEST_F(MrsmFixture, SubPageUpdateAvoidsPageRmw) {
  write(2, 4);      // misaligned: upgrades the region
  write(0, spp());  // full page, now packed sub-page-wise
  const auto rmw_before = stats().rmw_reads();
  write(0, 4);  // exactly one sub-page: no RMW needed (MRSM's selling point)
  EXPECT_EQ(stats().rmw_reads(), rmw_before);
  read(0, spp());  // oracle verifies the gather
}

TEST_F(MrsmFixture, MisalignedSubPageWriteDoesSubRmw) {
  write(2, 4);      // upgrade the region first
  write(0, spp());  // full page through the sub path
  const auto rmw_before = stats().rmw_reads();
  write(2, 4);  // straddles inside sub-pages: old quarters must be read
  EXPECT_GT(stats().rmw_reads(), rmw_before);
  read(0, spp());
}

TEST_F(MrsmFixture, AcrossPageWriteCostsOnePackedProgram) {
  // A misaligned across write touches 2-3 sub-pages → packs into one
  // program, which is why MRSM also mitigates across-page requests.
  const auto before = data_writes();
  write(13, 6);  // across pages 0/1, misaligned edges
  EXPECT_EQ(data_writes() - before, 1u);
  read(13, 6);
}

TEST_F(MrsmFixture, WideUnalignedWritePacksInGroupsOfFour) {
  const auto before = data_writes();
  write(5, 39);  // sectors [5,44): misaligned edges
  // [5,44) touches pages 0,1,2 → sub-pages: p0:{1,2,3}, p1:{0,1,2,3},
  // p2:{0,1,2} = 10 chunks → 3 packed programs.
  EXPECT_EQ(data_writes() - before, 3u);
  read(5, 39);
}

TEST_F(MrsmFixture, ConvertedPageReadableAfterUpgrade) {
  write(0, spp());  // page-mapped
  write(66, 5);     // misaligned write upgrades region via another LPN
  EXPECT_TRUE(scheme().region_is_sub(Lpn{0}));
  read(0, spp());   // gathers from the converted page; oracle checks
}

TEST_F(MrsmFixture, GatherReadTouchesEachSourcePageOnce) {
  write(0, spp());   // page 0 fully mapped (will convert)
  write(5, 2);       // misaligned rewrite → lives in a packed page
  const auto before = stats().flash_ops(ssd::OpKind::kDataRead);
  read(0, spp());    // needs old page + packed page
  EXPECT_EQ(stats().flash_ops(ssd::OpKind::kDataRead) - before, 2u);
}

TEST_F(MrsmFixture, RewritingAllSubPagesFreesOldPage) {
  write(0, spp());  // page-mapped kData page
  const Ppn old = [&] {
    // Find the physical page via a read plan-free approach: the flash array
    // has exactly one valid data page right now.
    const auto& array = ssd.engine().array();
    for (std::uint64_t p = 0; p < ssd.config().geometry.total_pages(); ++p) {
      if (array.state(Ppn{p}) == nand::PageState::kValid &&
          array.owner(Ppn{p}).kind == nand::PageOwner::Kind::kData) {
        return Ppn{p};
      }
    }
    return Ppn{};
  }();
  ASSERT_TRUE(old.valid());
  write(66, 5);     // misaligned write upgrades the region (converts page 0)
  write(0, spp());  // rewrite all four sub-pages through the sub path
  EXPECT_EQ(ssd.engine().array().state(old), nand::PageState::kInvalid);
  read(0, spp());
}

TEST_F(MrsmFixture, TreeWalkCostsExtraDramAccesses) {
  sim::Ssd baseline(test::tiny_config(), SchemeKind::kPageFtl);
  SimTime tb = 0;
  for (int i = 0; i < 64; ++i) {
    test::submit_ok(baseline, {tb++, true, SectorRange::of(5, 7)});
    write(5, 7);
  }
  EXPECT_GT(stats().dram_accesses(), 4 * baseline.stats().dram_accesses());
}

TEST_F(MrsmFixture, MapFootprintLargerThanBaselineOnceSubMapped) {
  sim::Ssd baseline(test::tiny_config(), SchemeKind::kPageFtl);
  SimTime tb = 0;
  const auto sectors = ssd.config().logical_sectors();
  // Unaligned writes sprinkled over the whole space upgrade every region.
  for (SectorAddr off = 5; off + 8 < sectors; off += 1024) {
    test::submit_ok(baseline, {tb++, true, SectorRange::of(off, 7)});
    write(off, 7);
  }
  EXPECT_GT(scheme().map_bytes(), baseline.scheme().map_bytes());
}

// Sits between a Checkpointer and MRSM. At every snapshot it checks the
// spliced bytes against a cold encode of the same state, made by the same
// encoder after a cache reset. On request it pads one snapshot past the
// free pool so the capacity gate defers it.
class SpliceProbe final : public ssd::RecoverableMapping {
 public:
  SpliceProbe(MrsmFtl& inner, const ssd::Engine& engine)
      : inner_(inner), engine_(engine) {}

  void serialize_mapping(ssd::ByteSink& sink) override {
    if (inner_.snapshot_cache_warm()) ++warm;
    ++snapshots;
    const std::size_t begin = sink.size();
    inner_.serialize_mapping(sink);
    const std::vector<std::uint8_t> spliced(
        sink.bytes().begin() + static_cast<std::ptrdiff_t>(begin),
        sink.bytes().end());
    inner_.drop_snapshot_cache();
    ssd::ByteSink cold;
    inner_.serialize_mapping(cold);
    const std::span<const std::uint8_t> fresh = cold.bytes();
    if (!std::equal(spliced.begin(), spliced.end(), fresh.begin(),
                    fresh.end())) {
      ++mismatches;
    }
    if (pad_next) {
      pad_next = false;
      const std::uint64_t page_bytes = engine_.geometry().page_bytes;
      for (std::uint64_t i = 0;
           i < (engine_.free_headroom_pages() + 1) * page_bytes; ++i) {
        sink.u8(0);
      }
    }
  }
  void adopt_snapshot(std::vector<std::uint8_t> bytes) override {
    inner_.adopt_snapshot(std::move(bytes));
  }
  void serialize_delta(ssd::ByteSink& sink) override {
    inner_.serialize_delta(sink);
  }
  void discard_delta() override { inner_.discard_delta(); }
  void enable_journal(bool on) override { inner_.enable_journal(on); }
  void deserialize_mapping(ssd::ByteSource& src) override {
    inner_.deserialize_mapping(src);
  }
  void apply_delta(ssd::ByteSource& src) override { inner_.apply_delta(src); }
  void recover_claim(const nand::OobRecord& oob, Ppn ppn) override {
    inner_.recover_claim(oob, ppn);
  }
  void recover_trim(SectorRange range) override { inner_.recover_trim(range); }
  void recover_enumerate(
      const std::function<void(Ppn, nand::PageOwner)>& fn) const override {
    inner_.recover_enumerate(fn);
  }
  void recover_finalize() override { inner_.recover_finalize(); }

  std::uint64_t snapshots = 0;
  std::uint64_t warm = 0;
  std::uint64_t mismatches = 0;
  bool pad_next = false;

 private:
  MrsmFtl& inner_;
  const ssd::Engine& engine_;
};

// Every snapshot the checkpointer writes equals a cold encode of the same
// state, through GC, region upgrades, trims, packed pages reprogrammed at
// the same PPN, a capacity-deferred snapshot, direct serialize_mapping calls
// and a power cut followed by a mount and more writes.
TEST(MrsmSnapshotSplice, EverySnapshotMatchesAColdEncode) {
  ssd::SsdConfig config = test::tiny_config();
  const ssd::SsdConfig::CheckpointPolicy policy{.interval_requests = 6,
                                                .snapshot_every = 2};
  auto ssd = std::make_unique<sim::Ssd>(config, SchemeKind::kMrsm);
  test::WorkloadGen gen(config.logical_sectors(),
                        config.geometry.sectors_per_page(), /*seed=*/77);
  Rng rng(78);

  std::uint64_t snapshots = 0;
  std::uint64_t warm = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t trims = 0;
  std::uint64_t direct_calls = 0;
  std::uint64_t deferred = 0;
  std::map<std::uint64_t, std::uint64_t> packed_ids;  // PPN -> pack id
  std::uint64_t packed_reused = 0;

  const auto churn = [&](std::uint64_t requests) {
    auto& mrsm = dynamic_cast<MrsmFtl&>(ssd->scheme());
    SpliceProbe probe(mrsm, ssd->engine());
    ssd::Checkpointer ckpt(ssd->engine(), probe, policy);
    for (std::uint64_t i = 0; i < requests; ++i) {
      ftl::IoRequest req = gen.next();
      if (req.write && rng.chance(0.05)) {
        req.write = false;
        req.trim = true;
        ++trims;
      }
      const auto done = test::submit_ok(*ssd, req);
      if (req.write || req.trim) ckpt.note_write(done.done);
      if (i == requests / 2) probe.pad_next = true;
      if (i % 97 == 96) {
        ssd::ByteSink direct;
        mrsm.serialize_mapping(direct);
        ++direct_calls;
      }
      mrsm.recover_enumerate([&](Ppn ppn, nand::PageOwner owner) {
        if (owner.kind != nand::PageOwner::Kind::kPacked) return;
        const auto [it, fresh] = packed_ids.emplace(ppn.get(), owner.id);
        if (!fresh && it->second != owner.id) {
          ++packed_reused;
          it->second = owner.id;
        }
      });
    }
    snapshots += probe.snapshots;
    warm += probe.warm;
    mismatches += probe.mismatches;
    deferred += ckpt.counters().deferred;
  };

  churn(1500);
  EXPECT_GT(dynamic_cast<MrsmFtl&>(ssd->scheme()).sub_regions(), 0u);

  // Power cut at a request boundary, then a mount and more writes.
  const ssd::Oracle oracle_seed = *ssd->oracle();
  nand::FlashArray image = ssd->release_flash();
  ssd.reset();
  ssd::RecoveryReport report;
  ssd = sim::Ssd::mount(config, SchemeKind::kMrsm, std::move(image),
                        &oracle_seed, &report);
  EXPECT_TRUE(report.used_checkpoint);
  churn(1500);
  test::verify_full_space(*ssd);

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(snapshots, 100u);
  EXPECT_GT(warm, snapshots / 2);
  EXPECT_GT(ssd->engine().gc_runs(), 0u);
  EXPECT_GT(packed_reused, 0u);
  EXPECT_GT(trims, 0u);
  EXPECT_GT(direct_calls, 0u);
  EXPECT_GE(deferred, 2u);  // one per life
}

// A checkpoint blob whose PPNs fall outside the device must fail loudly at
// mount: the slot directories are a flat PPN-indexed table, and a corrupt
// key must not index past it (nor silently create a directory).
struct MrsmJournalDeathTest : MrsmFixture {
  std::uint64_t total_pages() {
    return ssd.config().geometry.total_pages();
  }
  /// A delta with no regions or LPN rows and one slot directory at `ppn`.
  static std::vector<std::uint8_t> dir_delta(std::uint64_t ppn, bool present) {
    ssd::ByteSink sink;
    sink.u64(0);  // next_pack_id
    sink.u64(0);  // regions
    sink.u64(0);  // LPN rows
    sink.u64(1);  // directories
    sink.u64(ppn);
    sink.u8(present ? 1 : 0);
    if (present) {
      sink.u64(7);  // pack id
      sink.u8(1);   // slot 0 live
      sink.u64(0);  // lpn
      sink.u8(0);   // sub
      for (int i = 1; i < 4; ++i) sink.u8(0);
    }
    return sink.take();
  }
  void apply(const std::vector<std::uint8_t>& blob) {
    ssd::ByteSource src(blob);
    scheme().apply_delta(src);
  }
};

TEST_F(MrsmJournalDeathTest, WellFormedDeltaApplies) {
  apply(dir_delta(total_pages() - 1, /*present=*/true));
  apply(dir_delta(total_pages() - 1, /*present=*/false));
}

TEST_F(MrsmJournalDeathTest, DirectoryPastTheDeviceFails) {
  EXPECT_DEATH(apply(dir_delta(total_pages(), /*present=*/true)),
               "PPN outside the device");
  EXPECT_DEATH(apply(dir_delta(~std::uint64_t{0} - 1, /*present=*/false)),
               "PPN outside the device");
}

TEST_F(MrsmJournalDeathTest, SubLocationPastTheDeviceFails) {
  ssd::ByteSink sink;
  sink.u64(0);                 // next_pack_id
  sink.u64(0);                 // regions
  sink.u64(1);                 // LPN rows
  sink.u64(0);                 // lpn
  sink.u64(~std::uint64_t{0});  // unmapped page-mode entry: accepted
  sink.u8(1);                  // sub-table follows
  for (int k = 0; k < 4; ++k) {
    sink.u64(k == 2 ? total_pages() : ~std::uint64_t{0});
    sink.u8(0);
  }
  sink.u64(0);  // directories
  const std::vector<std::uint8_t> blob = sink.take();
  EXPECT_DEATH(apply(blob), "PPN outside the device");
}

TEST_F(MrsmJournalDeathTest, SnapshotDirectoryPastTheDeviceFails) {
  // The empty device's snapshot ends with a zero directory count; make it
  // one directory, sitting one past the last page.
  ssd::ByteSink sink;
  scheme().serialize_mapping(sink);
  sink.patch_u64(sink.size() - 8, 1);
  sink.u64(total_pages());
  sink.u64(7);  // pack id
  for (int i = 0; i < 4; ++i) sink.u8(0);
  const std::vector<std::uint8_t> blob = sink.take();
  EXPECT_DEATH(
      {
        ssd::ByteSource src(blob);
        scheme().deserialize_mapping(src);
      },
      "PPN outside the device");
}

}  // namespace
}  // namespace af::ftl
