// Checkpoint journal (ssd/checkpoint.h): cadence, root commitment, and the
// clean-remount round trip (tables restored bit-identically from the chain
// plus OOB claims).
#include <gtest/gtest.h>

#include <vector>

#include "ftl/scheme.h"
#include "sim/ssd.h"
#include "ssd/serialize.h"
#include "../helpers.h"

namespace af {
namespace {

ssd::SsdConfig ckpt_config(std::uint64_t interval, std::uint32_t every) {
  ssd::SsdConfig config = test::tiny_config();
  config.checkpoint.interval_requests = interval;
  config.checkpoint.snapshot_every = every;
  return config;
}

void run_workload(sim::Ssd& ssd, std::uint64_t requests, std::uint64_t seed) {
  test::WorkloadGen gen(ssd.config().logical_sectors(),
                        ssd.config().geometry.sectors_per_page(), seed);
  for (std::uint64_t i = 0; i < requests; ++i) {
    test::submit_ok(ssd, gen.next());
  }
}

std::vector<std::uint8_t> mapping_bytes(ftl::FtlScheme& scheme) {
  ssd::ByteSink sink;
  scheme.serialize_mapping(sink);
  return sink.take();
}

TEST(Checkpoint, DisabledPolicyWritesNoJournal) {
  sim::Ssd ssd(test::tiny_config(), ftl::SchemeKind::kAcrossFtl);
  run_workload(ssd, 200, 7);
  EXPECT_EQ(ssd.checkpointer(), nullptr);
  EXPECT_FALSE(ssd.engine().array().mount_root().valid);
}

TEST(Checkpoint, JournalCadenceAndSnapshotMix) {
  sim::Ssd ssd(ckpt_config(/*interval=*/10, /*every=*/4),
               ftl::SchemeKind::kAcrossFtl);
  run_workload(ssd, 200, 7);

  ASSERT_NE(ssd.checkpointer(), nullptr);
  const auto& c = ssd.checkpointer()->counters();
  EXPECT_GT(c.journal_writes, 0u);
  EXPECT_EQ(c.journal_writes, c.snapshots + c.deltas);
  // Entry 0 is a snapshot, then every 4th: snapshots ≈ writes / 4.
  EXPECT_EQ(c.snapshots, (c.journal_writes + 3) / 4);
  EXPECT_GE(c.pages_written, c.journal_writes);
}

TEST(Checkpoint, RootNamesACompleteOnFlashEntry) {
  sim::Ssd ssd(ckpt_config(/*interval=*/8, /*every=*/2),
               ftl::SchemeKind::kPageFtl);
  run_workload(ssd, 120, 3);

  const auto& array = ssd.engine().array();
  const nand::MountRoot& root = array.mount_root();
  ASSERT_TRUE(root.valid);
  EXPECT_GT(root.journal_seq, 0u);
  EXPECT_LE(root.journal_seq, array.last_seq());
  ASSERT_FALSE(root.snapshot_pages.empty());
  for (const Ppn ppn : root.snapshot_pages) {
    EXPECT_EQ(array.state(ppn), nand::PageState::kValid);
    EXPECT_EQ(array.owner(ppn).kind, nand::PageOwner::Kind::kCkpt);
    ASSERT_NE(array.ckpt_blob(ppn), nullptr);
  }
  for (const auto& entry : root.delta_pages) {
    for (const Ppn ppn : entry) {
      EXPECT_EQ(array.state(ppn), nand::PageState::kValid);
      ASSERT_NE(array.ckpt_blob(ppn), nullptr);
    }
  }
}

class CheckpointRemount : public testing::TestWithParam<ftl::SchemeKind> {};

TEST_P(CheckpointRemount, CleanRemountRestoresTablesBitIdentically) {
  const ssd::SsdConfig config = ckpt_config(/*interval=*/16, /*every=*/3);
  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  run_workload(*ssd, 300, 11);

  const std::vector<std::uint8_t> before = mapping_bytes(ssd->scheme());
  const ssd::Oracle oracle_seed = *ssd->oracle();
  nand::FlashArray image = ssd->release_flash();
  ssd.reset();

  ssd::RecoveryReport report;
  auto mounted = sim::Ssd::mount(config, GetParam(), std::move(image),
                                 &oracle_seed, &report);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_GT(report.checkpoint_pages_read, 0u);
  EXPECT_EQ(report.torn_pages, 0u);
  EXPECT_EQ(mapping_bytes(mounted->scheme()), before);
  test::verify_full_space(*mounted);

  // The journal bounds the scan: with a fresh-enough checkpoint, whole
  // blocks predate journal_seq and are skipped without reading their pages.
  EXPECT_GT(report.blocks_skipped, 0u);
  EXPECT_LT(report.pages_scanned,
            config.geometry.total_pages());
}

TEST_P(CheckpointRemount, RemountWithoutJournalFallsBackToFullScan) {
  const ssd::SsdConfig config = test::tiny_config();
  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  run_workload(*ssd, 300, 11);

  const std::vector<std::uint8_t> before = mapping_bytes(ssd->scheme());
  const ssd::Oracle oracle_seed = *ssd->oracle();
  nand::FlashArray image = ssd->release_flash();
  ssd.reset();

  ssd::RecoveryReport report;
  auto mounted = sim::Ssd::mount(config, GetParam(), std::move(image),
                                 &oracle_seed, &report);
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_EQ(report.checkpoint_pages_read, 0u);
  EXPECT_EQ(mapping_bytes(mounted->scheme()), before);
  test::verify_full_space(*mounted);
}

TEST_P(CheckpointRemount, RecoveredDeviceKeepsServingWrites) {
  const ssd::SsdConfig config = ckpt_config(/*interval=*/12, /*every=*/2);
  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  run_workload(*ssd, 150, 5);

  const ssd::Oracle oracle_seed = *ssd->oracle();
  nand::FlashArray image = ssd->release_flash();
  ssd.reset();
  auto mounted =
      sim::Ssd::mount(config, GetParam(), std::move(image), &oracle_seed);

  // The second life journals too (policy re-attaches on mount) and the
  // oracle still holds: new writes continue the stamp sequence.
  run_workload(*mounted, 150, 6);
  ASSERT_NE(mounted->checkpointer(), nullptr);
  EXPECT_GT(mounted->checkpointer()->counters().journal_writes, 0u);
  test::verify_full_space(*mounted);
}

// A snapshot commit frees the blobs of the journal pages it supersedes, so
// after a long churn the array holds exactly the blobs the root names — and
// the device still remounts from them.
TEST_P(CheckpointRemount, OnlyBlobsTheRootNamesStayResident) {
  const ssd::SsdConfig config = ckpt_config(/*interval=*/8, /*every=*/3);
  auto ssd = std::make_unique<sim::Ssd>(config, GetParam());
  run_workload(*ssd, 3000, 21);
  ASSERT_GT(ssd->checkpointer()->counters().snapshots, 20u);
  EXPECT_GT(ssd->engine().gc_runs(), 0u);

  const nand::FlashArray& array = ssd->engine().array();
  const nand::MountRoot& root = array.mount_root();
  ASSERT_TRUE(root.valid);
  std::size_t named = root.snapshot_pages.size();
  for (const std::vector<Ppn>& delta : root.delta_pages) named += delta.size();
  EXPECT_EQ(array.ckpt_blob_count(), named);

  const std::vector<std::uint8_t> before = mapping_bytes(ssd->scheme());
  const ssd::Oracle oracle_seed = *ssd->oracle();
  nand::FlashArray image = ssd->release_flash();
  ssd.reset();
  ssd::RecoveryReport report;
  auto mounted = sim::Ssd::mount(config, GetParam(), std::move(image),
                                 &oracle_seed, &report);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(mapping_bytes(mounted->scheme()), before);
  test::verify_full_space(*mounted);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CheckpointRemount,
                         testing::Values(ftl::SchemeKind::kPageFtl,
                                         ftl::SchemeKind::kMrsm,
                                         ftl::SchemeKind::kAcrossFtl),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ftl::SchemeKind::kPageFtl:
                               return "PageFtl";
                             case ftl::SchemeKind::kMrsm:
                               return "Mrsm";
                             default:
                               return "Across";
                           }
                         });

}  // namespace
}  // namespace af
