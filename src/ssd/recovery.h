// Mount-time crash recovery (DESIGN.md §7).
//
// RAM mapping state — PMT, AMT, MRSM sub-tables, the GTD, GC weight caches —
// is a cache over what flash durably knows: the per-page OOB records
// (nand::OobRecord) and the checkpoint journal. After a power cut, Recovery
// rebuilds the whole stack from those two sources:
//
//   1. load the newest complete checkpoint (snapshot + delta chain) named by
//      the array's MountRoot — this restores the mapping tables and GTD as
//      of `journal_seq`;
//   2. scan the OOB of every block whose max_seq exceeds `journal_seq`
//      (bounded scan — the whole point of checkpointing), collecting claims;
//   3. replay claims in seq order, newest-wins, into the scheme's RAM tables
//      and the GTD (torn pages are detected and skipped);
//   4. reconcile: flash validity is RAM-fiction, so re-derive it — pages not
//      referenced by any recovered mapping entry are invalidated (orphans),
//      referenced-but-invalid pages are revived;
//   5. rebuild the engine's GC victim-weight caches and heaps.
//
// The scheme-specific halves (what a claim means, what the checkpoint
// serializes) live behind the RecoverableMapping interface, implemented by
// ftl::FtlScheme's three schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/interval.h"
#include "common/types.h"
#include "nand/flash_array.h"
#include "ssd/serialize.h"

namespace af::ssd {

class Engine;

/// The durable-mapping contract an FTL scheme implements so the checkpoint
/// journal can persist its tables and Recovery can rebuild them. Declared
/// here (not in src/ftl) to keep the layering acyclic: ssd knows the
/// interface, ftl provides the implementations.
class RecoverableMapping {
 public:
  virtual ~RecoverableMapping() = default;

  // --- Checkpoint side (no-crash path) -------------------------------------

  /// Serializes the full mapping state (snapshot journal entry). A scheme
  /// may encode it incrementally from the previous snapshot's bytes when
  /// those came back through adopt_snapshot; the bytes are the same either
  /// way.
  virtual void serialize_mapping(ByteSink& sink) = 0;
  /// Hands back the whole buffer the latest serialize_mapping call wrote
  /// into, once the checkpointer no longer needs it; the scheme's payload
  /// starts where that call began. The default drops it; MRSM keeps it as
  /// the base of its next snapshot, so the entry is never resident twice.
  virtual void adopt_snapshot(std::vector<std::uint8_t> bytes) { (void)bytes; }
  /// Serializes and drains the entries dirtied since the last serialize call
  /// (delta journal entry). Only meaningful with journaling enabled.
  virtual void serialize_delta(ByteSink& sink) = 0;
  /// Drains the dirty entries without encoding them: a snapshot just
  /// captured them all.
  virtual void discard_delta() = 0;
  /// Turns dirty-entry tracking on/off. Off (the default) keeps the
  /// no-journal hot path free of bookkeeping.
  virtual void enable_journal(bool on) = 0;

  // --- Mount side -----------------------------------------------------------

  /// Restores the full mapping state from a snapshot payload.
  virtual void deserialize_mapping(ByteSource& src) = 0;
  /// Applies one delta payload on top of the current tables.
  virtual void apply_delta(ByteSource& src) = 0;
  /// Replays one OOB claim: page `ppn` was durably programmed with this
  /// record, newer (by seq) than anything applied before it. RAM tables
  /// only — flash validity is reconciled afterwards in one pass.
  virtual void recover_claim(const nand::OobRecord& oob, Ppn ppn) = 0;
  /// Replays one durable TRIM tombstone, ordered against claims by seq:
  /// clears the mapping of every logical page fully covered by `range`.
  /// RAM tables only — the flash pages it orphans are reconciled afterwards
  /// like any other unreferenced page.
  virtual void recover_trim(SectorRange range) = 0;
  /// Enumerates every flash page the recovered tables reference, with the
  /// owner it should carry (reconciliation's ground truth).
  virtual void recover_enumerate(
      const std::function<void(Ppn, nand::PageOwner)>& fn) const = 0;
  /// Rebuilds derived scheme state (free lists, FIFOs, packed directories'
  /// counters) once checkpoint + claims are fully applied.
  virtual void recover_finalize() = 0;
};

/// What a mount cost and found. `mount_time_ns` is simulated time: the
/// checkpoint reads plus the OOB scan, serialized on the device timeline.
struct RecoveryReport {
  bool used_checkpoint = false;
  std::uint64_t checkpoint_seq = 0;        // journal_seq recovery started from
  std::uint64_t checkpoint_pages_read = 0; // snapshot + delta chunk reads
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;        // max_seq <= journal_seq
  std::uint64_t pages_scanned = 0;         // OOB reads issued by the scan
  std::uint64_t claims_applied = 0;
  std::uint64_t trims_replayed = 0;        // durable tombstones re-applied
  std::uint64_t torn_pages = 0;            // interrupted programs detected
  std::uint64_t orphans_invalidated = 0;
  std::uint64_t pages_revived = 0;
  /// Parity stripes regrouped from OOB stripe stamps (0 with parity off).
  std::uint64_t stripes_recovered = 0;
  std::uint64_t flash_reads = 0;           // checkpoint_pages_read + pages_scanned
  std::uint64_t mount_time_ns = 0;
};

class Recovery {
 public:
  /// Rebuilds `scheme`'s mapping, the GTD and the engine's GC state from the
  /// engine's (adopted) flash image. The scheme must be freshly constructed
  /// on this engine (empty tables, init_map_space done).
  [[nodiscard]] static RecoveryReport mount(Engine& engine,
                                            RecoverableMapping& scheme);
};

}  // namespace af::ssd
