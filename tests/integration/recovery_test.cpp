// Sudden power-off recovery, end to end: torn pages, scheme-specific crash
// windows (AMerge/ARollback, MRSM packed programs), randomized crash-point
// sweeps over synthetic traces, and recovery determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ftl/scheme.h"
#include "nand/power.h"
#include "sim/ssd.h"
#include "ssd/serialize.h"
#include "trace/profiles.h"
#include "trace/replayer.h"
#include "trace/synth.h"
#include "../helpers.h"

namespace af {
namespace {

constexpr std::uint32_t kSpp = 16;  // tiny config: 8 KiB pages

std::vector<std::uint8_t> mapping_bytes(ftl::FtlScheme& scheme) {
  ssd::ByteSink sink;
  scheme.serialize_mapping(sink);
  return sink.take();
}

trace::TraceRecord w(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/true, off, len};
}

trace::TraceRecord r(SimTime t, SectorAddr off, SectorCount len) {
  return {t, /*write=*/false, off, len};
}

/// Replays `t` with a cut at every op index in [1, horizon]: every possible
/// crash point of the trace must recover to oracle-equivalent state (the
/// harness aborts otherwise).
void sweep_every_op(const ssd::SsdConfig& config, ftl::SchemeKind kind,
                    const trace::Trace& t) {
  trace::ReplayOptions options;
  options.age = false;
  const auto dry = trace::replay_with_power_cut(
      config, kind, t, {/*at_op=*/UINT64_MAX, /*seed=*/0}, options);
  ASSERT_FALSE(dry.crashed);
  ASSERT_GT(dry.total_ops, 0u);
  for (std::uint64_t op = 1; op <= dry.total_ops; ++op) {
    const auto res = trace::replay_with_power_cut(
        config, kind, t, {/*at_op=*/op, /*seed=*/0}, options);
    EXPECT_TRUE(res.crashed) << "op " << op;
    EXPECT_GT(res.verified_sectors, 0u) << "op " << op;
  }
}

TEST(Recovery, TornDataPageFallsBackToOldVersion) {
  const ssd::SsdConfig config = test::tiny_config();
  auto ssd = std::make_unique<sim::Ssd>(config, ftl::SchemeKind::kPageFtl);
  test::submit_ok(*ssd, {0, true, SectorRange::of(0, kSpp)});
  test::submit_ok(*ssd, {1, true, SectorRange::of(kSpp, kSpp)});

  // Snapshot the acknowledged state *before* the doomed overwrite — the
  // host never sees it complete, so recovery must serve the old version.
  const ssd::Oracle acknowledged = *ssd->oracle();
  ssd->engine().array().arm_power_cut({/*at_op=*/1, /*seed=*/0});
  EXPECT_THROW((void)ssd->submit({2, true, SectorRange::of(0, kSpp)}),
               nand::PowerLoss);

  nand::FlashArray image = ssd->release_flash();
  ssd.reset();
  ssd::RecoveryReport report;
  auto mounted = sim::Ssd::mount(config, ftl::SchemeKind::kPageFtl,
                                 std::move(image), &acknowledged, &report);
  EXPECT_EQ(report.torn_pages, 1u);
  test::verify_full_space(*mounted);
}

TEST(Recovery, AcrossCrashWindows) {
  // Direct write → AMerge → ARollback, each the paper's §3.3 lifecycle
  // transition, with reads pinning the final state. Every op of this trace
  // is a crash point; the area's multi-program windows (rollback programs
  // several pages) must never lose an acknowledged sector.
  trace::Trace t;
  SimTime now = 0;
  for (SectorAddr p = 0; p < 4; ++p) {
    t.push_back(w(now++, p * kSpp, kSpp));  // settle normal pages
  }
  t.push_back(w(now++, 8, kSpp));      // across pages 0-1: direct write
  t.push_back(w(now++, 10, 12));       // overlapping, fits: AMerge
  t.push_back(w(now++, 4, kSpp));      // union outgrows a page: ARollback
  t.push_back(w(now++, kSpp + 8, kSpp));  // new area over pages 1-2
  t.push_back(r(now++, 0, 4 * kSpp));
  sweep_every_op(test::tiny_config(), ftl::SchemeKind::kAcrossFtl, t);
}

TEST(Recovery, MrsmPackedCrashWindows) {
  // Misaligned sub-page writes force region upgrades and packed programs;
  // overwrites retire slots; the read sweeps it all.
  trace::Trace t;
  SimTime now = 0;
  for (SectorAddr p = 0; p < 4; ++p) {
    t.push_back(w(now++, p * kSpp, kSpp));
  }
  t.push_back(w(now++, 1, 3));             // sub-page, misaligned: upgrade
  t.push_back(w(now++, kSpp + 5, 6));      // second LPN joins the pack
  t.push_back(w(now++, 2, 5));             // overwrite retires slots
  t.push_back(w(now++, 2 * kSpp + 9, 3));  // third LPN
  t.push_back(r(now++, 0, 4 * kSpp));
  sweep_every_op(test::tiny_config(), ftl::SchemeKind::kMrsm, t);
}

TEST(Recovery, CheckpointedCrashWindows) {
  // Same oracle-equivalence guarantee when a checkpoint chain is in play:
  // cut points land before, inside and after journal writes.
  ssd::SsdConfig config = test::tiny_config();
  config.checkpoint.interval_requests = 3;
  config.checkpoint.snapshot_every = 2;
  trace::Trace t;
  SimTime now = 0;
  for (SectorAddr p = 0; p < 4; ++p) t.push_back(w(now++, p * kSpp, kSpp));
  t.push_back(w(now++, 8, kSpp));
  t.push_back(w(now++, 10, 12));
  t.push_back(w(now++, 4, kSpp));
  t.push_back(r(now++, 0, 4 * kSpp));
  sweep_every_op(config, ftl::SchemeKind::kAcrossFtl, t);
}

struct SweepCase {
  ftl::SchemeKind kind;
  std::size_t profile;
  bool checkpoint;
};

class CrashSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(CrashSweep, SampledCrashPointsRecoverOracleEquivalent) {
  const SweepCase& c = GetParam();
  ssd::SsdConfig config = test::tiny_config();
  if (c.checkpoint) {
    config.checkpoint.interval_requests = 16;
    config.checkpoint.snapshot_every = 3;
  }
  trace::SynthProfile profile = trace::lun_profile(c.profile, 250);
  const trace::Trace t =
      trace::generate(profile, config.logical_sectors());

  trace::ReplayOptions options;  // aged device: GC live at the crash
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto res = trace::replay_with_power_cut(config, c.kind, t,
                                                  {/*at_op=*/0, seed}, options);
    ASSERT_TRUE(res.crashed) << "seed " << seed;
    EXPECT_GT(res.verified_sectors, 0u);
    EXPECT_EQ(res.recovery.used_checkpoint,
              c.checkpoint && res.recovery.checkpoint_seq > 0);
    // The continuation replay finished the trace on the recovered device.
    EXPECT_GT(res.result.stats.all_writes().latency().count() +
                  res.result.stats.all_reads().latency().count(),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, CrashSweep,
    testing::Values(SweepCase{ftl::SchemeKind::kPageFtl, 0, false},
                    SweepCase{ftl::SchemeKind::kPageFtl, 3, true},
                    SweepCase{ftl::SchemeKind::kMrsm, 0, false},
                    SweepCase{ftl::SchemeKind::kMrsm, 3, true},
                    SweepCase{ftl::SchemeKind::kAcrossFtl, 0, false},
                    SweepCase{ftl::SchemeKind::kAcrossFtl, 3, true}),
    [](const auto& param_info) {
      std::string name;
      switch (param_info.param.kind) {
        case ftl::SchemeKind::kPageFtl: name = "PageFtl"; break;
        case ftl::SchemeKind::kMrsm: name = "Mrsm"; break;
        default: name = "Across"; break;
      }
      name += "Lun" + std::to_string(param_info.param.profile);
      name += param_info.param.checkpoint ? "Ckpt" : "NoCkpt";
      return name;
    });

TEST(Recovery, DeterministicAcrossRuns) {
  // Same trace + same plan ⇒ bit-identical recovered tables and identical
  // mount reports, run to run.
  const ssd::SsdConfig config = test::tiny_config();
  trace::SynthProfile profile = trace::lun_profile(1, 200);
  const trace::Trace t = trace::generate(profile, config.logical_sectors());

  auto run_once = [&](std::vector<std::uint8_t>* tables,
                      ssd::RecoveryReport* report) {
    auto ssd =
        std::make_unique<sim::Ssd>(config, ftl::SchemeKind::kAcrossFtl);
    ssd->engine().array().arm_power_cut({/*at_op=*/150, /*seed=*/9});
    bool crashed = false;
    for (const auto& rec : t) {
      try {
        (void)ssd->submit({rec.timestamp, rec.write, rec.range()});
      } catch (const nand::PowerLoss&) {
        crashed = true;
        break;
      }
    }
    ASSERT_TRUE(crashed);
    const ssd::Oracle oracle_seed = *ssd->oracle();
    nand::FlashArray image = ssd->release_flash();
    ssd.reset();
    auto mounted = sim::Ssd::mount(config, ftl::SchemeKind::kAcrossFtl,
                                   std::move(image), &oracle_seed, report);
    *tables = mapping_bytes(mounted->scheme());
  };

  std::vector<std::uint8_t> tables_a;
  std::vector<std::uint8_t> tables_b;
  ssd::RecoveryReport report_a;
  ssd::RecoveryReport report_b;
  run_once(&tables_a, &report_a);
  run_once(&tables_b, &report_b);

  ASSERT_FALSE(tables_a.empty());
  EXPECT_EQ(tables_a, tables_b);
  EXPECT_EQ(report_a.claims_applied, report_b.claims_applied);
  EXPECT_EQ(report_a.torn_pages, report_b.torn_pages);
  EXPECT_EQ(report_a.pages_scanned, report_b.pages_scanned);
  EXPECT_EQ(report_a.orphans_invalidated, report_b.orphans_invalidated);
  EXPECT_EQ(report_a.mount_time_ns, report_b.mount_time_ns);
}

TEST(Recovery, UncutReplayMatchesPlainReplay) {
  // A cut point beyond the horizon must degenerate to the ordinary replay —
  // the armed-but-silent plan may not perturb results.
  const ssd::SsdConfig config = test::tiny_config();
  trace::SynthProfile profile = trace::lun_profile(2, 150);
  const trace::Trace t = trace::generate(profile, config.logical_sectors());
  trace::ReplayOptions options;
  options.age = false;

  const auto plain = trace::replay(config, ftl::SchemeKind::kAcrossFtl, t,
                                   options);
  const auto uncut = trace::replay_with_power_cut(
      config, ftl::SchemeKind::kAcrossFtl, t,
      {/*at_op=*/UINT64_MAX, /*seed=*/0}, options);
  EXPECT_FALSE(uncut.crashed);
  EXPECT_EQ(uncut.result.stats.all_writes().latency().count(),
            plain.stats.all_writes().latency().count());
  EXPECT_EQ(uncut.result.gc_runs, plain.gc_runs);
  EXPECT_EQ(uncut.result.io_time_s, plain.io_time_s);
}

}  // namespace
}  // namespace af
