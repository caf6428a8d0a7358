// Cached mapping directory (CMT), DFTL-style.
//
// All three FTL schemes keep their logical tables in flash "translation
// pages" and cache a subset in DRAM (§4.2.2: both MRSM and Across-FTL
// "sometimes need loading the expected part of the mapping table into the
// DRAM cache"). A scheme addresses its table as a flat array of map-page
// ids; this class charges a DRAM access per touch, performs flash reads on
// misses and flash write-backs on dirty evictions, and tracks the footprint
// of the table for Figure 12a.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/dirty_bits.h"
#include "common/types.h"
#include "nand/flash_array.h"
#include "ssd/serialize.h"

namespace af::ssd {

/// Flash/DRAM services the directory needs; implemented by Engine.
class MapIo {
 public:
  virtual ~MapIo() = default;
  [[nodiscard]] virtual SimTime map_flash_read(Ppn ppn, SimTime ready) = 0;
  /// Programs a new version of a translation page; returns its location and
  /// completion time.
  [[nodiscard]] virtual std::pair<Ppn, SimTime> map_flash_program(
      std::uint64_t map_page, SimTime ready) = 0;
  virtual void map_flash_invalidate(Ppn ppn) = 0;
  virtual void map_dram_access(std::uint64_t n) = 0;
};

class MapDirectory {
 public:
  /// `num_map_pages` is the scheme's table size in translation pages;
  /// `cache_pages` is the DRAM budget.
  MapDirectory(MapIo& io, std::uint64_t num_map_pages, std::uint64_t cache_pages);

  /// Brings `map_page` into the CMT (charging flash ops on a miss and on a
  /// dirty eviction), marks it dirty if `dirty`, and returns the advanced
  /// ready time. The caller serialises its data ops behind this.
  [[nodiscard]] SimTime touch(std::uint64_t map_page, bool dirty,
                              SimTime ready);

  /// GC moved the flash copy of `map_page`.
  void on_relocated(std::uint64_t map_page, Ppn new_ppn);

  /// Current flash location of a translation page (invalid if it has never
  /// been written back).
  [[nodiscard]] Ppn flash_location(std::uint64_t map_page) const;

  /// Distinct translation pages ever touched — the allocated-on-demand size
  /// of the mapping table.
  [[nodiscard]] std::uint64_t touched_pages() const { return touched_count_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t cached_pages() const { return lru_.size(); }
  [[nodiscard]] std::uint64_t capacity_pages() const { return cache_pages_; }
  [[nodiscard]] std::uint64_t num_map_pages() const { return num_map_pages_; }

  // --- Crash consistency ----------------------------------------------------

  /// With journaling on, GTD changes (dirty-eviction write-backs, GC
  /// relocations) are tracked so checkpoint deltas can persist them —
  /// without this, a checkpoint's GTD would go stale the moment GC moved a
  /// translation page whose move predates the next snapshot.
  void enable_journal(bool on) { journal_ = on; }
  /// Map-page ids whose GTD entry changed since the last clear_dirty_gtd().
  [[nodiscard]] const DirtyBits& dirty_gtd() const { return dirty_gtd_; }
  void clear_dirty_gtd() { dirty_gtd_.clear(); }
  /// Serializes every valid GTD entry (snapshot payload).
  void serialize_gtd(ByteSink& sink) const;
  /// Mount-time restore of one GTD entry (checkpoint replay and kMap OOB
  /// claims; later calls win, matching seq order).
  void recover_set_location(std::uint64_t map_page, Ppn ppn);
  /// Walks valid GTD entries: `fn(map_page, ppn)`. Reconciliation uses this
  /// to enumerate the translation pages the recovered state references.
  template <typename Fn>
  void for_each_flash_location(Fn&& fn) const {
    for (std::uint64_t p = 0; p < num_map_pages_; ++p) {
      if (flash_loc_[p].valid()) fn(p, flash_loc_[p]);
    }
  }

 private:
  struct CacheEntry {
    std::list<std::uint64_t>::iterator lru_pos;
    bool dirty = false;
  };

  [[nodiscard]] SimTime evict_one(SimTime ready);
  void note_gtd_change(std::uint64_t map_page) {
    if (journal_) dirty_gtd_.mark(map_page);
  }

  MapIo& io_;
  std::uint64_t num_map_pages_;
  std::uint64_t cache_pages_;
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::vector<Ppn> flash_loc_;    // GTD: map page -> current flash copy
  std::vector<bool> touched_;
  std::uint64_t touched_count_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  bool journal_ = false;
  DirtyBits dirty_gtd_;
};

}  // namespace af::ssd
