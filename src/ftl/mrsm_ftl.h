// MRSM comparator (Chen et al., "Beyond address mapping: a user-oriented
// multiregional space management design for 3-D NAND flash memory",
// TCAD 2020) as characterised by the paper under reproduction:
//
//  * sub-page mapping ("multiregional"): the logical space is divided into
//    regions that start page-mapped and switch to sub-page (quarter-page)
//    mapping once the host writes them unaligned;
//  * sub-page writes need no page-level read-modify-write — new quarter-page
//    versions are appended, packed up to four per physical page — which is
//    why MRSM beats the baseline on *write latency* despite issuing more
//    flash traffic overall;
//  * the price is a ~4x larger mapping table behind the same DRAM budget
//    (heavy translation-page traffic; §4.2.2 reports 36.9% of MRSM's flash
//    writes being map writes) and a tree-indexed lookup structure costing
//    extra DRAM accesses (§4.2.4 reports ~32x the baseline's DRAM accesses).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dense_key_map.h"
#include "common/dirty_bits.h"
#include "ftl/scheme.h"

namespace af::ftl {

class MrsmFtl final : public FtlScheme {
 public:
  /// Quarter-page mapping granularity (2 KiB sub-pages on 8 KiB pages).
  static constexpr std::uint32_t kSubsPerPage = 4;

  explicit MrsmFtl(ssd::Engine& engine);

  [[nodiscard]] const char* name() const override { return "MRSM"; }
  SimTime write(const IoRequest& req, SimTime ready) override;
  SimTime read(const IoRequest& req, SimTime ready, ReadPlan* plan) override;
  [[nodiscard]] SimTime trim(SectorRange range, SimTime ready) override;
  [[nodiscard]] bool lpn_mapped(Lpn lpn) const override;
  void gc_relocate(Ppn victim, const nand::PageOwner& owner,
                   SimTime& clock) override;
  [[nodiscard]] std::uint64_t map_bytes() const override;

  // RecoverableMapping: region modes, the page-mode PMT, the sub-page tables
  // and the packed-page slot directories. Snapshots are encoded
  // incrementally: the bytes of the last one come back through
  // adopt_snapshot, and the next copies its clean entries and re-encodes
  // only the keys changed since.
  void serialize_mapping(ssd::ByteSink& sink) override;
  void adopt_snapshot(std::vector<std::uint8_t> bytes) override;
  void enable_journal(bool on) override;
  void serialize_delta(ssd::ByteSink& sink) override;
  void discard_delta() override;
  void deserialize_mapping(ssd::ByteSource& src) override;
  void apply_delta(ssd::ByteSource& src) override;
  void recover_claim(const nand::OobRecord& oob, Ppn ppn) override;
  void recover_trim(SectorRange range) override;
  void recover_enumerate(
      const std::function<void(Ppn, nand::PageOwner)>& fn) const override;
  void recover_finalize() override;

  // --- Introspection ----------------------------------------------------------
  [[nodiscard]] bool region_is_sub(Lpn lpn) const {
    return region_mode_[lpn.get() / kRegionLpns] != 0;
  }
  [[nodiscard]] std::uint64_t sub_regions() const;
  /// True when the next snapshot will splice from the last one's bytes.
  [[nodiscard]] bool snapshot_cache_warm() const {
    return cache_ == CacheState::kWarm;
  }
  /// Forgets the last snapshot's bytes: the next snapshot encodes every key
  /// afresh. Every path that changes the tables outside the journal hooks
  /// calls this.
  void drop_snapshot_cache();

 private:
  /// Region size for the adaptive page-/sub-mapping switch.
  static constexpr std::uint64_t kRegionLpns = 64;

  /// Location of one sub-page: physical page + slot within it.
  struct SubLoc {
    Ppn ppn;
    std::uint8_t slot = 0;
    [[nodiscard]] bool valid() const { return ppn.valid(); }
  };

  /// Slot directory of a log-packed page (owner kind kPacked).
  struct PackedPage {
    struct Slot {
      Lpn lpn;
      std::uint8_t sub = 0;
      bool live = false;
    };
    std::array<Slot, kSubsPerPage> slots;
    /// The pack id the page was programmed under (its PageOwner::packed id);
    /// recovery re-derives the owner from this.
    std::uint64_t pack_id = 0;
    [[nodiscard]] std::uint32_t live_count() const {
      std::uint32_t n = 0;
      for (const auto& s : slots) n += s.live ? 1 : 0;
      return n;
    }
  };

  /// One sub-page's worth of pending write within a request.
  struct Chunk {
    Lpn lpn;
    std::uint8_t sub = 0;
    SectorRange fresh;  // sectors actually written by the request
  };

  [[nodiscard]] std::uint32_t sub_sectors() const {
    return pgeom_.sectors_per_page / kSubsPerPage;
  }
  [[nodiscard]] SectorRange sub_range(Lpn lpn, std::uint32_t sub) const;
  [[nodiscard]] std::uint64_t page_tpage_of(Lpn lpn) const;
  [[nodiscard]] std::uint64_t sub_tpage_of(Lpn lpn) const;
  /// CMT touch plus the tree-walk DRAM cost of locating the region.
  SimTime touch_map(Lpn lpn, bool dirty, SimTime ready);

  void upgrade_region(std::uint64_t region);
  /// Releases a sub-page's previous location, invalidating the physical page
  /// once its last live slot dies.
  void retire_subloc(Lpn lpn, std::uint32_t sub);
  /// Programs `chunks` (≤ kSubsPerPage) into one packed page.
  [[nodiscard]] ssd::Engine::Programmed program_packed(
      std::span<const Chunk> chunks, SimTime ready, bool gc,
      std::uint64_t gc_plane);

  /// One live sub-page lifted off a GC victim: its identity plus a DRAM copy
  /// of its stamps (the victim may be erased before the flush).
  struct StagedChunk {
    Lpn lpn;
    std::uint8_t sub = 0;
    std::vector<std::uint64_t> stamps;  // empty when payload tracking is off
  };

  /// Stages a victim page's live chunks for cross-page repacking; flushes
  /// full groups immediately. Without cross-page packing, GC would consume
  /// one page per victim page (padding) and never reclaim fragmented blocks.
  void stage_victim_chunks(Ppn victim, std::span<const Chunk> live,
                           std::uint64_t plane, SimTime& clock);
  /// Programs up to kSubsPerPage staged chunks into one packed page.
  void flush_staged_group(std::uint64_t plane, SimTime& clock);
  /// Drains the whole staging buffer (end-of-GC hook).
  void flush_staged(std::uint64_t plane, SimTime& clock);
  [[nodiscard]] SimTime write_page_mode(const SubRequest& sub, SimTime ready);

  // --- Crash recovery helpers -------------------------------------------------
  // Each hook marks the key for the next delta and, for rows and
  // directories, stale for the next snapshot. Region modes are re-encoded
  // whole in every snapshot (one byte each).
  void journal_lpn(std::uint64_t lpn) {
    if (!journaling()) return;
    dirty_lpns_.mark(lpn);
    rows_.stale.mark(lpn);
  }
  void journal_region(std::uint64_t region) {
    if (journaling()) dirty_regions_.mark(region);
  }
  void journal_packed(Ppn ppn) {
    if (!journaling()) return;
    dirty_packed_.mark(ppn.get());
    dirs_.stale.mark(ppn.get());
  }
  /// RAM-only variant of retire_subloc for claim replay: clears the old
  /// subloc and its packed-directory slot, never touching the engine.
  void recover_displace(Lpn lpn, std::uint32_t sub);
  void recover_claim_packed(const nand::OobRecord& oob, Ppn ppn);
  // Serialization helpers: one LPN's PMT + sub-table row, one slot directory.
  [[nodiscard]] bool has_subs(std::uint64_t l) const;
  void sink_lpn_entry(ssd::ByteSink& sink, std::uint64_t l, bool subs) const;
  void source_lpn_entry(ssd::ByteSource& src);
  /// Reads a PPN from a checkpoint blob and fails on one past the device, so
  /// a corrupt blob never indexes the flat tables. `unmapped_ok` admits the
  /// invalid sentinel of an empty entry.
  [[nodiscard]] Ppn source_ppn(ssd::ByteSource& src, bool unmapped_ok) const;
  static void sink_packed_dir(ssd::ByteSink& sink, const PackedPage& dir);
  static PackedPage source_packed_dir(ssd::ByteSource& src);

  /// One keyed section of a snapshot (LPN rows, or packed directories in
  /// PPN order) plus where each key's entry sits in the last encoded copy.
  struct SnapshotSection {
    explicit SnapshotSection(std::uint64_t key_space = 0)
        : at(static_cast<std::size_t>(key_space) + 1, 0), stale(key_space) {}
    /// Empties the section and marks every key stale, so the next splice
    /// encodes all of them.
    void reset();
    /// Writes the section into `sink`: runs of clean keys are copied from
    /// `prev` (the buffer the last splice wrote, or empty after reset), and
    /// each stale key is re-encoded by `emit(sink, key)`, which returns
    /// whether it wrote an entry. Updates `at` to the new layout and clears
    /// `stale`.
    template <typename Emit>
    void splice(ssd::ByteSink& sink, std::span<const std::uint8_t> prev,
                Emit&& emit);

    /// at[k]: offset, from the section start, of the first entry whose key
    /// is >= k; at[key_space] is the section length. Key k's entry spans
    /// [at[k], at[k + 1]), which is empty when the key has no entry.
    std::vector<std::uint32_t> at;
    /// Keys whose entry may differ from the last encoded copy.
    DirtyBits stale;
    std::uint64_t entries = 0;
    std::size_t begin = 0;  // section start within the encoded buffer
  };
  /// kPending: a snapshot was encoded and its bytes have not come back yet;
  /// the sections describe those bytes. Only kWarm splices.
  enum class CacheState { kCold, kPending, kWarm };

  std::vector<Ppn> pmt_;                          // page-mode mapping
  std::vector<std::array<SubLoc, kSubsPerPage>> subs_;  // sub-mode mapping
  std::vector<std::uint8_t> region_mode_;         // 0 = page, 1 = sub
  /// Slot directories of the live packed pages, keyed by PPN.
  DenseKeyMap<PackedPage> packed_;
  std::vector<StagedChunk> staged_;  // GC repacking buffer
  std::uint64_t next_pack_id_ = 0;
  std::uint64_t tree_depth_;  // DRAM accesses per region lookup

  std::uint64_t page_tpages_;
  std::uint64_t page_entries_per_tpage_;
  std::uint64_t sub_entries_per_tpage_;

  // Delta-journal dirty sets (tracked only while journaling).
  DirtyBits dirty_lpns_;
  DirtyBits dirty_regions_;
  DirtyBits dirty_packed_;  // raw PPNs of touched directories

  // Incremental snapshot encoding.
  SnapshotSection rows_;
  SnapshotSection dirs_;
  std::vector<std::uint8_t> last_snapshot_;  // the adopted snapshot's bytes
  CacheState cache_ = CacheState::kCold;
};

}  // namespace af::ftl
