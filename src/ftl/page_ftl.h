// Baseline dynamic page-level mapping FTL (the paper's "FTL" comparator).
//
// One 4-byte PPN entry per logical page. Partial-page writes perform
// read-modify-write: the old page is read so the unmodified sectors can be
// carried into the freshly programmed page — this is exactly the cost
// across-page requests inflate (two RMWs for one small request).
#pragma once

#include <vector>

#include "common/dirty_bits.h"
#include "ftl/scheme.h"

namespace af::ftl {

class PageFtl final : public FtlScheme {
 public:
  explicit PageFtl(ssd::Engine& engine);

  [[nodiscard]] const char* name() const override { return "FTL"; }
  SimTime write(const IoRequest& req, SimTime ready) override;
  SimTime read(const IoRequest& req, SimTime ready, ReadPlan* plan) override;
  [[nodiscard]] SimTime trim(SectorRange range, SimTime ready) override;
  [[nodiscard]] bool lpn_mapped(Lpn lpn) const override {
    return pmt_[lpn.get()].valid();
  }
  void gc_relocate(Ppn victim, const nand::PageOwner& owner,
                   SimTime& clock) override;
  [[nodiscard]] std::uint64_t map_bytes() const override;

  // RecoverableMapping: the PMT is the whole mapping state.
  void serialize_mapping(ssd::ByteSink& sink) override;
  void serialize_delta(ssd::ByteSink& sink) override;
  void discard_delta() override;
  void deserialize_mapping(ssd::ByteSource& src) override;
  void apply_delta(ssd::ByteSource& src) override;
  void recover_claim(const nand::OobRecord& oob, Ppn ppn) override;
  void recover_trim(SectorRange range) override;
  void recover_enumerate(
      const std::function<void(Ppn, nand::PageOwner)>& fn) const override;
  void recover_finalize() override;

  /// Test access: current physical location of a logical page.
  [[nodiscard]] Ppn mapping(Lpn lpn) const;

 private:
  [[nodiscard]] std::uint64_t map_page_of(Lpn lpn) const {
    return lpn.get() / entries_per_tpage_;
  }
  /// Writes one sub-request: RMW read if partial over existing data, then a
  /// page program. Returns program completion.
  [[nodiscard]] SimTime write_sub(const SubRequest& sub, SimTime ready);

  void journal_lpn(std::uint64_t lpn) {
    if (journaling()) dirty_lpns_.mark(lpn);
  }

  std::vector<Ppn> pmt_;
  std::uint64_t entries_per_tpage_;
  DirtyBits dirty_lpns_;  // delta-journal dirty set
};

}  // namespace af::ftl
