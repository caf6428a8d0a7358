#include "ssd/checkpoint.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "common/check.h"
#include "ssd/engine.h"
#include "ssd/serialize.h"

namespace af::ssd {

Checkpointer::Checkpointer(Engine& engine, RecoverableMapping& scheme,
                           SsdConfig::CheckpointPolicy policy)
    : engine_(engine), scheme_(scheme), policy_(policy) {
  AF_CHECK_MSG(engine_.map_directory_mut() != nullptr,
               "Checkpointer before init_map_space");
  scheme_.enable_journal(true);
  engine_.map_directory_mut()->enable_journal(true);
  engine_.set_ckpt_moved(
      [this](Ppn from, Ppn to) { on_ckpt_moved(from, to); });
}

Checkpointer::~Checkpointer() { engine_.set_ckpt_moved(nullptr); }

void Checkpointer::note_write(SimTime now) {
  if (!policy_.enabled()) return;
  if (++since_last_ < policy_.interval_requests) return;
  since_last_ = 0;
  if (engine_.read_only()) {
    // The device stopped taking writes; a journal entry's map-stream burst
    // is not admission-checked and would eat the free blocks GC still needs
    // for its own relocations. Recovery stays correct without the entry —
    // the OOB scan replays everything past the last committed one.
    ++counters_.deferred;
    return;
  }
  const std::uint32_t cadence = std::max<std::uint32_t>(1, policy_.snapshot_every);
  const bool snapshot = entries_ % cadence == 0;
  if (!write_journal(now, snapshot)) {
    // Not enough free headroom for the entry right now. entries_ stays put,
    // so the retry next interval attempts the same (snapshot/delta) kind —
    // in particular the first-ever entry is always a snapshot, and deltas
    // never land without a root to hang off.
    ++counters_.deferred;
    return;
  }
  ++entries_;
  ++counters_.journal_writes;
  if (snapshot) {
    ++counters_.snapshots;
  } else {
    ++counters_.deltas;
  }
}

bool Checkpointer::write_journal(SimTime now, bool snapshot) {
  nand::FlashArray& array = engine_.array();
  MapDirectory& dir = *engine_.map_directory_mut();

  // Everything with seq <= journal_seq is covered by this entry; the entry's
  // own programs (and any GC they trigger) get larger seqs and are replayed
  // from OOB on top of it at mount.
  const std::uint64_t seq_at = array.last_seq();

  ByteSink sink;
  if (snapshot) {
    scheme_.serialize_mapping(sink);
    dir.serialize_gtd(sink);
    // Capacity gate, checked before any delta dirty set is drained (the
    // snapshot encode above drains none): a full snapshot is the one burst
    // that can exceed the free pool outright at deep end-of-life, when erase
    // faults have eaten most spares and GC can no longer backfill behind the
    // chunk programs. Defer it — nothing is lost, the dirty state simply
    // rides to the next try.
    const std::uint64_t page_bytes = engine_.geometry().page_bytes;
    const std::uint64_t need =
        (sink.size() + page_bytes - 1) / page_bytes;
    if (engine_.free_headroom_pages() < need) {
      // The bytes still encode the tables as they are now, so the scheme
      // may splice its next snapshot from them.
      scheme_.adopt_snapshot(sink.take());
      return false;
    }
    // A snapshot supersedes all prior dirty state: drop it so the next delta
    // carries only post-snapshot changes.
    scheme_.discard_delta();
    dir.clear_dirty_gtd();
  } else {
    scheme_.serialize_delta(sink);
    sink.u64(dir.dirty_gtd().count());
    dir.dirty_gtd().for_each([&](std::uint64_t map_page) {
      sink.u64(map_page);
      sink.u64(dir.flash_location(map_page).get());
    });
    dir.clear_dirty_gtd();
  }

  // Chunk the payload into page-sized pieces and program them through the
  // map stream. GC may fire mid-entry and relocate earlier chunks; pending_
  // lets on_ckpt_moved repoint them before they reach the root.
  std::vector<std::uint8_t> bytes = sink.take();
  const std::uint64_t page_bytes = engine_.geometry().page_bytes;
  std::vector<Ppn> pages;
  pending_ = &pages;
  SimTime clock = now;
  std::size_t offset = 0;
  do {
    const std::size_t len = std::min<std::size_t>(page_bytes, bytes.size() - offset);
    const Engine::Programmed prog =
        engine_.flash_program(Stream::kMap, nand::PageOwner::ckpt(next_chunk_id_++),
                              OpKind::kCkptWrite, clock);
    clock = prog.done;
    array.set_ckpt_blob(
        prog.ppn, std::vector<std::uint8_t>(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                                            bytes.begin() + static_cast<std::ptrdiff_t>(offset + len)));
    pages.push_back(prog.ppn);
    ++counters_.pages_written;
    offset += len;
  } while (offset < bytes.size());
  pending_ = nullptr;

  // Commit: repoint the root only now that the entry is fully on flash. Read
  // the root fresh — GC during the chunk programs may have moved old journal
  // pages and updated it.
  nand::MountRoot root = array.mount_root();
  if (snapshot) {
    std::vector<Ppn> superseded;
    if (root.valid) {
      superseded = root.snapshot_pages;
      for (const std::vector<Ppn>& delta : root.delta_pages) {
        superseded.insert(superseded.end(), delta.begin(), delta.end());
      }
    }
    nand::MountRoot fresh;
    fresh.valid = true;
    fresh.snapshot_seq = seq_at;
    fresh.journal_seq = seq_at;
    fresh.snapshot_pages = std::move(pages);
    array.set_mount_root(std::move(fresh));
    // Mount reads journal pages only through the root, so a superseded
    // page's blob is dead from here on; drop it rather than keep it
    // resident until GC erases the block.
    for (const Ppn ppn : superseded) {
      engine_.invalidate(ppn);
      array.drop_ckpt_blob(ppn);
    }
  } else {
    AF_CHECK_MSG(root.valid, "delta journal entry with no snapshot");
    root.journal_seq = seq_at;
    root.delta_pages.push_back(std::move(pages));
    array.set_mount_root(std::move(root));
  }
  // Trims dirty their mapping entries like writes do, so every tombstone at
  // or below seq_at is folded into the entry just committed; recovery skips
  // that span (tomb.seq <= journal_seq). Drop them so the log stays bounded.
  array.prune_trim_log(seq_at);
  if (snapshot) scheme_.adopt_snapshot(std::move(bytes));
  return true;
}

void Checkpointer::on_ckpt_moved(Ppn from, Ppn to) {
  const auto replace = [&](std::vector<Ppn>& v) {
    for (Ppn& p : v) {
      if (p == from) {
        p = to;
        return true;
      }
    }
    return false;
  };
  if (pending_ != nullptr && replace(*pending_)) return;
  nand::MountRoot root = engine_.array().mount_root();
  bool hit = replace(root.snapshot_pages);
  for (std::size_t i = 0; !hit && i < root.delta_pages.size(); ++i) {
    hit = replace(root.delta_pages[i]);
  }
  AF_CHECK_MSG(hit, "relocated checkpoint page not in the journal");
  engine_.array().set_mount_root(std::move(root));
}

}  // namespace af::ssd
