#include "ssd/map_directory.h"

#include "common/check.h"

namespace af::ssd {

MapDirectory::MapDirectory(MapIo& io, std::uint64_t num_map_pages,
                           std::uint64_t cache_pages)
    : io_(io),
      num_map_pages_(num_map_pages),
      cache_pages_(cache_pages == 0 ? 1 : cache_pages),
      dirty_gtd_(num_map_pages) {
  flash_loc_.assign(num_map_pages_, Ppn{});
  touched_.assign(num_map_pages_, false);
}

SimTime MapDirectory::touch(std::uint64_t map_page, bool dirty, SimTime ready) {
  AF_CHECK_MSG(map_page < num_map_pages_, "map page id out of range");
  io_.map_dram_access(1);
  if (!touched_[map_page]) {
    touched_[map_page] = true;
    ++touched_count_;
  }

  auto it = cache_.find(map_page);
  if (it != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    it->second.dirty = it->second.dirty || dirty;
    return ready;
  }

  ++misses_;
  // Fetch the page from flash if a copy exists there; a never-written table
  // page materialises for free (the table is allocated on demand).
  if (flash_loc_[map_page].valid()) {
    ready = io_.map_flash_read(flash_loc_[map_page], ready);
  }
  if (lru_.size() >= cache_pages_) {
    ready = evict_one(ready);
  }
  // The eviction's write-back may have run GC, whose relocations re-enter
  // touch() — possibly inserting this very page. Never insert twice.
  if (auto it2 = cache_.find(map_page); it2 != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it2->second.lru_pos);
    it2->second.dirty = it2->second.dirty || dirty;
    return ready;
  }
  lru_.push_front(map_page);
  cache_.emplace(map_page, CacheEntry{lru_.begin(), dirty});
  return ready;
}

SimTime MapDirectory::evict_one(SimTime ready) {
  AF_CHECK(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  auto it = cache_.find(victim);
  AF_CHECK(it != cache_.end());
  const bool dirty = it->second.dirty;
  cache_.erase(it);
  if (dirty) {
    ++evictions_;
    // Drop the stale flash copy BEFORE programming the new one: the program
    // may run GC, and a still-valid stale copy it relocated would out-seq
    // the fresh copy in power-cut recovery's OOB replay. (The program may
    // still re-insert the victim into the cache; touch() guards against
    // double insertion.)
    if (flash_loc_[victim].valid()) {
      io_.map_flash_invalidate(flash_loc_[victim]);
      flash_loc_[victim] = Ppn{};
    }
    auto [ppn, done] = io_.map_flash_program(victim, ready);
    flash_loc_[victim] = ppn;
    note_gtd_change(victim);
    ready = done;
  }
  return ready;
}

void MapDirectory::on_relocated(std::uint64_t map_page, Ppn new_ppn) {
  AF_CHECK(map_page < num_map_pages_);
  flash_loc_[map_page] = new_ppn;
  note_gtd_change(map_page);
}

Ppn MapDirectory::flash_location(std::uint64_t map_page) const {
  AF_CHECK(map_page < num_map_pages_);
  return flash_loc_[map_page];
}

void MapDirectory::serialize_gtd(ByteSink& sink) const {
  const std::size_t count_at = sink.u64_placeholder();
  std::uint64_t count = 0;
  for_each_flash_location([&](std::uint64_t map_page, Ppn ppn) {
    sink.u64(map_page);
    sink.u64(ppn.get());
    ++count;
  });
  sink.patch_u64(count_at, count);
}

void MapDirectory::recover_set_location(std::uint64_t map_page, Ppn ppn) {
  AF_CHECK(map_page < num_map_pages_);
  flash_loc_[map_page] = ppn;
  if (!touched_[map_page]) {
    touched_[map_page] = true;
    ++touched_count_;
  }
  note_gtd_change(map_page);
}

}  // namespace af::ssd
