#include "tests/oracle_page_cache.h"

#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::storage::oracle {

PageCache::PageCache(sim::Simulation* simulation, IoScheduler* scheduler,
                     PageCacheParams params)
    : sim_(simulation), scheduler_(scheduler), params_(params) {
  (void)sim_;
  (void)scheduler_;
}

void PageCache::CountHit(uint32_t nblocks) {
  hit_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.hit_blocks", nblocks);
}

void PageCache::CountMiss(uint32_t nblocks) {
  miss_blocks_ += nblocks;
  ARTC_OBS_COUNT("page_cache.miss_blocks", nblocks);
}

bool PageCache::Resident(uint64_t lba, uint32_t nblocks) const {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    if (map_.find(b) == map_.end()) {
      return false;
    }
  }
  return true;
}

void PageCache::InsertClean(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    auto it = map_.find(b);
    if (it != map_.end()) {
      lru_.erase(it->second.lru_it);
      lru_.push_front(b);
      it->second.lru_it = lru_.begin();
      continue;
    }
    lru_.push_front(b);
    map_[b] = Entry{lru_.begin(), /*dirty=*/false};
  }
}

void PageCache::InsertDirty(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    auto it = map_.find(b);
    if (it != map_.end()) {
      lru_.erase(it->second.lru_it);
      lru_.push_front(b);
      it->second.lru_it = lru_.begin();
      if (!it->second.dirty) {
        it->second.dirty = true;
        dirty_count_++;
      }
      continue;
    }
    lru_.push_front(b);
    map_[b] = Entry{lru_.begin(), /*dirty=*/true};
    dirty_count_++;
  }
}

void PageCache::Touch(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    auto it = map_.find(b);
    if (it != map_.end()) {
      lru_.erase(it->second.lru_it);
      lru_.push_front(b);
      it->second.lru_it = lru_.begin();
    }
  }
}

void PageCache::Invalidate(uint64_t lba, uint32_t nblocks) {
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    auto it = map_.find(b);
    if (it != map_.end()) {
      if (it->second.dirty) {
        dirty_count_--;
      }
      lru_.erase(it->second.lru_it);
      map_.erase(it);
    }
  }
}

std::vector<uint64_t> PageCache::CollectDirty(uint64_t lba, uint32_t nblocks) {
  std::vector<uint64_t> out;
  for (uint64_t b = lba; b < lba + nblocks; ++b) {
    auto it = map_.find(b);
    if (it != map_.end() && it->second.dirty) {
      it->second.dirty = false;
      dirty_count_--;
      out.push_back(b);
    }
  }
  writeback_blocks_ += out.size();
  ARTC_OBS_COUNT("page_cache.writeback_blocks", out.size());
  return out;
}

std::vector<uint64_t> PageCache::CollectOldestDirty(uint32_t max_blocks) {
  std::vector<uint64_t> out;
  for (auto it = lru_.rbegin(); it != lru_.rend() && out.size() < max_blocks; ++it) {
    auto e = map_.find(*it);
    ARTC_CHECK(e != map_.end());
    if (e->second.dirty) {
      e->second.dirty = false;
      dirty_count_--;
      out.push_back(*it);
    }
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
  const uint64_t before = map_.size();
  while (map_.size() > params_.capacity_blocks) {
    // Prefer the oldest clean block; if the tail is dirty, it must be
    // written out by the caller before the space can be reused.
    uint64_t victim = lru_.back();
    auto it = map_.find(victim);
    ARTC_CHECK(it != map_.end());
    if (it->second.dirty) {
      dirty_count_--;
      dirty_evicted.push_back(victim);
    }
    lru_.pop_back();
    map_.erase(it);
  }
  const uint64_t evicted = before - map_.size();
  if (evicted > 0) {
    evicted_blocks_ += evicted;
    writeback_blocks_ += dirty_evicted.size();
    ARTC_OBS_COUNT("page_cache.evicted_blocks", evicted);
    ARTC_OBS_COUNT("page_cache.writeback_blocks", dirty_evicted.size());
  }
  return dirty_evicted;
}

void PageCache::DropAll() {
  lru_.clear();
  map_.clear();
  dirty_count_ = 0;
}

}  // namespace artc::storage::oracle
