// The page cache as it was before the flat-table rewrite: one std::list node
// plus one std::unordered_map node per resident block. Kept unchanged as the
// test-only oracle that page_cache_diff_test drives side by side with
// storage::PageCache; PageCacheParams is the real one.
#ifndef TESTS_ORACLE_PAGE_CACHE_H_
#define TESTS_ORACLE_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/io_scheduler.h"
#include "src/storage/page_cache.h"

namespace artc::storage::oracle {

class PageCache {
 public:
  PageCache(sim::Simulation* simulation, IoScheduler* scheduler, PageCacheParams params);

  // True if every block of [lba, lba+n) is resident.
  bool Resident(uint64_t lba, uint32_t nblocks) const;

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
  uint64_t ResidentCount() const { return map_.size(); }
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
  // model "echo 3 > /proc/sys/vm/drop_caches".
  void DropAll();

 private:
  struct Entry {
    std::list<uint64_t>::iterator lru_it;
    bool dirty = false;
  };

  sim::Simulation* sim_;
  IoScheduler* scheduler_;
  PageCacheParams params_;
  std::list<uint64_t> lru_;  // front = most recent
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t dirty_count_ = 0;
  uint64_t hit_blocks_ = 0;
  uint64_t miss_blocks_ = 0;
  uint64_t evicted_blocks_ = 0;
  uint64_t writeback_blocks_ = 0;
};

}  // namespace artc::storage::oracle

#endif  // TESTS_ORACLE_PAGE_CACHE_H_
