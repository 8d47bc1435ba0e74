// LRU page cache keyed by device LBA, with sequential read-ahead, write-back
// dirty tracking, and dirty-threshold throttling. Blocking variants of the
// operations (for simulated threads) live in StorageStack; the cache itself
// exposes a callback-based interface plus bookkeeping.
//
// Layout: one open-addressed lba -> slot table (linear probing, backward-
// shift delete) sized from capacity_blocks, and slots in fixed-size chunks
// linked into two circular index lists: the LRU list of every resident
// block, and the dirty list holding only the dirty ones. Every path that
// dirties a block also moves it to the LRU front, and every LRU move of a
// dirty block moves it in the dirty list too, so the dirty list is always
// the LRU list restricted to dirty blocks: its tail is the oldest dirty one.
#ifndef SRC_STORAGE_PAGE_CACHE_H_
#define SRC_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/io_scheduler.h"

namespace artc::storage {

struct PageCacheParams {
  uint64_t capacity_blocks = 262144;  // 1 GB
  uint32_t readahead_blocks = 32;     // extra blocks fetched on sequential miss
  // Write-back throttling: when dirty blocks exceed this fraction of
  // capacity, writers synchronously flush the oldest dirty blocks.
  double dirty_ratio = 0.4;
  TimeNs hit_cost = Us(2);            // CPU cost of a cache-hit block copy
};

class PageCache {
 public:
  PageCache(sim::Simulation* simulation, IoScheduler* scheduler, PageCacheParams params);

  // True if every block of [lba, lba+n) is resident.
  bool Resident(uint64_t lba, uint32_t nblocks) const;

  // Marks lba most-recently-used and returns true if it is resident; the
  // same as Resident(lba, 1) followed by Touch(lba, 1), in one probe.
  bool TouchIfResident(uint64_t lba);

  // Inserts blocks as clean (used by read completion) or dirty (writes).
  void InsertClean(uint64_t lba, uint32_t nblocks);
  void InsertDirty(uint64_t lba, uint32_t nblocks);

  // Marks blocks most-recently-used if present.
  void Touch(uint64_t lba, uint32_t nblocks);

  // Removes blocks (e.g., on file deletion) without write-back.
  void Invalidate(uint64_t lba, uint32_t nblocks);

  // Returns the dirty blocks within [lba, lba+n), clearing their dirty bits
  // (the caller is responsible for writing them to the device).
  std::vector<uint64_t> CollectDirty(uint64_t lba, uint32_t nblocks);

  // Pops up to max_blocks of the oldest dirty blocks (for throttled
  // write-back), clearing dirty bits.
  std::vector<uint64_t> CollectOldestDirty(uint32_t max_blocks);

  bool OverDirtyLimit() const;
  uint64_t DirtyCount() const { return dirty_count_; }
  uint64_t ResidentCount() const { return resident_count_; }
  uint64_t HitBlocks() const { return hit_blocks_; }
  uint64_t MissBlocks() const { return miss_blocks_; }
  uint64_t EvictedBlocks() const { return evicted_blocks_; }
  uint64_t WritebackBlocks() const { return writeback_blocks_; }
  void CountHit(uint32_t nblocks);
  void CountMiss(uint32_t nblocks);

  const PageCacheParams& params() const { return params_; }

  // Evicts (clean) LRU blocks until size <= capacity. Returns dirty blocks
  // that had to be evicted and must be written out by the caller.
  std::vector<uint64_t> EvictToCapacity();

  // Drops everything (clean and dirty) — used between benchmark phases to
  // model "echo 3 > /proc/sys/vm/drop_caches". The table keeps its size.
  void DropAll();

 private:
  // The two lists a slot can be on; each list's head is the slot whose id
  // equals the list's value.
  enum List : uint32_t { kLru = 0, kDirty = 1 };
  static constexpr uint32_t kFirstBlockSlot = 2;
  static constexpr uint32_t kEmpty = 0;  // table entry with no slot
  static constexpr uint32_t kClean = UINT32_MAX;  // next[kDirty] off the dirty list
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;

  struct Slot {
    uint64_t lba = 0;
    uint32_t prev[2] = {0, 0};  // indexed by List
    uint32_t next[2] = {0, 0};  // next[kLru] links the free list when unused
  };

  Slot& At(uint32_t s) { return chunks_[s >> kChunkBits][s & (kChunkSlots - 1)]; }
  const Slot& At(uint32_t s) const {
    return chunks_[s >> kChunkBits][s & (kChunkSlots - 1)];
  }
  bool IsDirty(uint32_t s) const { return At(s).next[kDirty] != kClean; }

  // Fibonacci hashing: the top log2(table size) bits of lba * 2^64 / phi.
  size_t Home(uint64_t lba) const {
    return static_cast<size_t>((lba * 0x9E3779B97F4A7C15ULL) >> table_shift_);
  }
  // The table position holding lba, or the empty position ending its probe.
  size_t Probe(uint64_t lba) const;
  uint32_t Find(uint64_t lba) const { return table_[Probe(lba)]; }
  void EraseAt(size_t pos);
  void Rebuild(size_t table_size);

  void Unlink(uint32_t s, List list);
  void PushFront(uint32_t s, List list);
  void MoveToFront(uint32_t s);
  void MarkDirty(uint32_t s);
  void MarkClean(uint32_t s);

  // Makes lba resident at the LRU front (dirty or clean) if absent; if it
  // is present, moves it to the front and, if dirty is set, dirties it.
  void Insert(uint64_t lba, bool dirty);
  // Removes the resident block s, whose table position is pos.
  void Remove(uint32_t s, size_t pos);

  sim::Simulation* sim_;
  IoScheduler* scheduler_;
  PageCacheParams params_;
  std::vector<uint32_t> table_;  // lba hash -> slot id, kEmpty if none
  int table_shift_ = 64;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slot_end_ = kFirstBlockSlot;  // slots below this have been used
  uint32_t free_head_ = kEmpty;          // freed slots, linked by next[kLru]
  uint64_t resident_count_ = 0;
  uint64_t dirty_count_ = 0;
  uint64_t hit_blocks_ = 0;
  uint64_t miss_blocks_ = 0;
  uint64_t evicted_blocks_ = 0;
  uint64_t writeback_blocks_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_PAGE_CACHE_H_
