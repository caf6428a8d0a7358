// Golden journal bytes: pins FNV-1a hashes of each scheme's snapshot
// encoding (serialize_mapping) and of every journal blob the mount root
// names, sampled all through a seeded churn. The churn runs GC, MRSM region
// upgrades and packed pages that are erased and reprogrammed at the same PPN.
//
// The journal's bytes decide its chunk counts, and through them flash ops,
// timing and recovery; an encoder or table-layout change must leave every
// byte alone. When a format change is intended, re-pin the hashes from the
// failure message and say why in the change log.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ftl/mrsm_ftl.h"
#include "ftl/scheme.h"
#include "sim/ssd.h"
#include "ssd/serialize.h"
#include "../helpers.h"

namespace af {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

struct Golden {
  ftl::SchemeKind kind;
  // Fills what would be padding. gtest names each case by the parameter's
  // raw bytes, and padding bytes are indeterminate, so without this field a
  // case's name could change from one process to the next.
  std::uint32_t zero = 0;
  std::uint64_t mapping;  // every sampled serialize_mapping payload
  std::uint64_t journal;  // every sampled blob named by the mount root
};
static_assert(sizeof(ftl::SchemeKind) == 4 && sizeof(Golden) == 24,
              "Golden must have no padding");

class JournalGolden : public testing::TestWithParam<Golden> {};

TEST_P(JournalGolden, BytesMatchPinnedHashes) {
  ssd::SsdConfig config = test::tiny_config();
  config.checkpoint.interval_requests = 8;
  config.checkpoint.snapshot_every = 3;
  sim::Ssd ssd(config, GetParam().kind);
  test::WorkloadGen gen(config.logical_sectors(),
                        config.geometry.sectors_per_page(), /*seed=*/2024);

  std::uint64_t mapping = kFnvBasis;
  std::uint64_t journal = kFnvBasis;
  std::uint64_t sampled_blobs = 0;
  // PPN -> pack id of every packed page seen; a PPN that comes back under a
  // new pack id was erased and reprogrammed in between.
  std::map<std::uint64_t, std::uint64_t> packed_ids;
  std::uint64_t packed_reused = 0;

  for (int i = 0; i < 4000; ++i) {
    test::submit_ok(ssd, gen.next());
    if (GetParam().kind == ftl::SchemeKind::kMrsm) {
      ssd.scheme().recover_enumerate([&](Ppn ppn, nand::PageOwner owner) {
        if (owner.kind != nand::PageOwner::Kind::kPacked) return;
        const auto [it, fresh] = packed_ids.emplace(ppn.get(), owner.id);
        if (!fresh && it->second != owner.id) {
          ++packed_reused;
          it->second = owner.id;
        }
      });
    }
    if (i % 40 != 39) continue;

    ssd::ByteSink sink;
    ssd.scheme().serialize_mapping(sink);
    mapping = fnv1a(mapping, sink.bytes());

    const nand::FlashArray& array = ssd.engine().array();
    const nand::MountRoot& root = array.mount_root();
    ASSERT_TRUE(root.valid);
    const auto fold = [&](Ppn ppn) {
      const auto* blob = array.ckpt_blob(ppn);
      ASSERT_NE(blob, nullptr);
      journal = fnv1a(journal, *blob);
      ++sampled_blobs;
    };
    for (const Ppn ppn : root.snapshot_pages) fold(ppn);
    for (const std::vector<Ppn>& delta : root.delta_pages) {
      for (const Ppn ppn : delta) fold(ppn);
    }
  }

  // The churn reached the paths the hashes are meant to cover.
  EXPECT_GT(ssd.engine().gc_runs(), 0u);
  EXPECT_GT(ssd.stats().erases(), 0u);
  EXPECT_GT(ssd.checkpointer()->counters().snapshots, 1u);
  EXPECT_GT(ssd.checkpointer()->counters().deltas, 1u);
  EXPECT_GT(sampled_blobs, 100u);
  if (const auto* mrsm = dynamic_cast<const ftl::MrsmFtl*>(&ssd.scheme())) {
    EXPECT_GT(mrsm->sub_regions(), 0u);
    EXPECT_GT(packed_reused, 0u);
  }

  EXPECT_EQ(mapping, GetParam().mapping) << std::hex << "0x" << mapping;
  EXPECT_EQ(journal, GetParam().journal) << std::hex << "0x" << journal;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, JournalGolden,
    testing::Values(Golden{.kind = ftl::SchemeKind::kPageFtl,
                           .mapping = 0x76636383dc9d81eaULL,
                           .journal = 0x37b74bcce64765beULL},
                    Golden{.kind = ftl::SchemeKind::kAcrossFtl,
                           .mapping = 0x07c368e413b431fcULL,
                           .journal = 0x4589886c5ce201ebULL},
                    Golden{.kind = ftl::SchemeKind::kMrsm,
                           .mapping = 0xf45127017301aaddULL,
                           .journal = 0x643c31d3b4954235ULL}),
    [](const testing::TestParamInfo<Golden>& param_info) {
      switch (param_info.param.kind) {
        case ftl::SchemeKind::kPageFtl:
          return "PageFtl";
        case ftl::SchemeKind::kAcrossFtl:
          return "AcrossFtl";
        case ftl::SchemeKind::kMrsm:
          return "Mrsm";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace af
