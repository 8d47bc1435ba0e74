#include "src/storage/page_cache.h"

#include <algorithm>
#include <bit>

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage {

PageCache::PageCache(sim::Simulation* simulation, IoScheduler* scheduler,
                     PageCacheParams params)
    : sim_(simulation), scheduler_(scheduler), params_(params) {
  (void)sim_;
  (void)scheduler_;
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  Slot& dirty = At(kDirty);
  dirty.prev[kDirty] = dirty.next[kDirty] = kDirty;
  // At capacity the table is at most half full, so it never grows unless a
  // burst of inserts overshoots capacity by half before EvictToCapacity.
  Rebuild(std::bit_ceil(std::max<uint64_t>(16, 2 * params_.capacity_blocks)));
}

void PageCache::CountHit(uint32_t nblocks) {
  hit_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.hit_blocks", nblocks);
}

void PageCache::CountMiss(uint32_t nblocks) {
  miss_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.miss_blocks", nblocks);
}

size_t PageCache::Probe(uint64_t lba) const {
  const size_t mask = table_.size() - 1;
  size_t pos = Home(lba);
  while (table_[pos] != kEmpty && At(table_[pos]).lba != lba) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void PageCache::EraseAt(size_t pos) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home position.
  const size_t mask = table_.size() - 1;
  size_t hole = pos;
  for (size_t i = (pos + 1) & mask; table_[i] != kEmpty; i = (i + 1) & mask) {
    const size_t home = Home(At(table_[i]).lba);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole] = kEmpty;
}

void PageCache::Rebuild(size_t table_size) {
  table_.assign(table_size, kEmpty);
  table_shift_ = 64 - std::countr_zero(table_size);
  for (uint32_t s = At(kLru).next[kLru]; s != kLru; s = At(s).next[kLru]) {
    table_[Probe(At(s).lba)] = s;
  }
}

void PageCache::Unlink(uint32_t s, List list) {
  Slot& slot = At(s);
  At(slot.prev[list]).next[list] = slot.next[list];
  At(slot.next[list]).prev[list] = slot.prev[list];
}

void PageCache::PushFront(uint32_t s, List list) {
  Slot& head = At(list);
  Slot& slot = At(s);
  slot.prev[list] = list;
  slot.next[list] = head.next[list];
  At(head.next[list]).prev[list] = s;
  head.next[list] = s;
}

void PageCache::MoveToFront(uint32_t s) {
  if (At(kLru).next[kLru] == s) {
    return;  // already first, and so first on the dirty list if dirty
  }
  Unlink(s, kLru);
  PushFront(s, kLru);
  if (IsDirty(s)) {
    Unlink(s, kDirty);
    PushFront(s, kDirty);
  }
}

void PageCache::MarkDirty(uint32_t s) {
  PushFront(s, kDirty);  // s is first on the LRU list
  dirty_count_++;
}

void PageCache::MarkClean(uint32_t s) {
  Unlink(s, kDirty);
  At(s).next[kDirty] = kClean;
  dirty_count_--;
}

void PageCache::Insert(uint64_t lba, bool dirty) {
  size_t pos = Probe(lba);
  uint32_t s = table_[pos];
  if (s != kEmpty) {
    MoveToFront(s);
    if (dirty && !IsDirty(s)) {
      MarkDirty(s);
    }
    return;
  }
  if ((resident_count_ + 1) * 4 > table_.size() * 3) {
    Rebuild(table_.size() * 2);
    pos = Probe(lba);
  }
  if (free_head_ != kEmpty) {
    s = free_head_;
    free_head_ = At(s).next[kLru];
  } else {
    if ((slot_end_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    s = slot_end_++;
  }
  table_[pos] = s;
  resident_count_++;
  At(s).lba = lba;
  At(s).next[kDirty] = kClean;
  PushFront(s, kLru);
  if (dirty) {
    MarkDirty(s);
  }
}

void PageCache::Remove(uint32_t s, size_t pos) {
  if (IsDirty(s)) {
    MarkClean(s);
  }
  Unlink(s, kLru);
  EraseAt(pos);
  At(s).next[kLru] = free_head_;
  free_head_ = s;
  resident_count_--;
}

bool PageCache::Resident(uint64_t lba, uint32_t nblocks) const {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    if (Find(b) == kEmpty) {
      return false;
    }
  }
  return true;
}

bool PageCache::TouchIfResident(uint64_t lba) {
  const uint32_t s = Find(lba);
  if (s == kEmpty) {
    return false;
  }
  MoveToFront(s);
  return true;
}

void PageCache::InsertClean(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    Insert(b, /*dirty=*/false);
  }
}

void PageCache::InsertDirty(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    Insert(b, /*dirty=*/true);
  }
}

void PageCache::Touch(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    TouchIfResident(b);
  }
}

void PageCache::Invalidate(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    const size_t pos = Probe(b);
    if (table_[pos] != kEmpty) {
      Remove(table_[pos], pos);
    }
  }
}

std::vector<uint64_t> PageCache::CollectDirty(uint64_t lba, uint32_t nblocks) {
  std::vector<uint64_t> out;
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    const uint32_t s = Find(b);
    if (s != kEmpty && IsDirty(s)) {
      MarkClean(s);
      out.push_back(b);
    }
  }
  writeback_blocks_ += out.size();
  ARTC_OBS_COUNT("page_cache.writeback_blocks", out.size());
  return out;
}

std::vector<uint64_t> PageCache::CollectOldestDirty(uint32_t max_blocks) {
  std::vector<uint64_t> out;
  while (out.size() < max_blocks && dirty_count_ > 0) {
    const uint32_t s = At(kDirty).prev[kDirty];
    MarkClean(s);
    out.push_back(At(s).lba);
  }
  writeback_blocks_ += out.size();
  ARTC_OBS_COUNT("page_cache.writeback_blocks", out.size());
  return out;
}

bool PageCache::OverDirtyLimit() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_ratio * static_cast<double>(params_.capacity_blocks);
}

std::vector<uint64_t> PageCache::EvictToCapacity() {
  std::vector<uint64_t> dirty_evicted;
  const uint64_t before = resident_count_;
  while (resident_count_ > params_.capacity_blocks) {
    // Prefer the oldest clean block; if the tail is dirty, it must be
    // written out by the caller before the space can be reused.
    const uint32_t victim = At(kLru).prev[kLru];
    const uint64_t lba = At(victim).lba;
    if (IsDirty(victim)) {
      dirty_evicted.push_back(lba);
    }
    const size_t pos = Probe(lba);
    ARTC_CHECK(table_[pos] == victim);
    Remove(victim, pos);
  }
  const uint64_t evicted = before - resident_count_;
  if (evicted > 0) {
    evicted_blocks_ += evicted;
    writeback_blocks_ += dirty_evicted.size();
    ARTC_OBS_COUNT("page_cache.evicted_blocks", evicted);
    ARTC_OBS_COUNT("page_cache.writeback_blocks", dirty_evicted.size());
  }
  return dirty_evicted;
}

void PageCache::DropAll() {
  std::fill(table_.begin(), table_.end(), kEmpty);
  Slot& lru = At(kLru);
  lru.prev[kLru] = lru.next[kLru] = kLru;
  Slot& dirty = At(kDirty);
  dirty.prev[kDirty] = dirty.next[kDirty] = kDirty;
  slot_end_ = kFirstBlockSlot;
  free_head_ = kEmpty;
  resident_count_ = 0;
  dirty_count_ = 0;
}

}  // namespace artc::storage
