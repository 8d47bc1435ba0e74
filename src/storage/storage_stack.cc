#include "src/storage/storage_stack.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/storage/raid0.h"
#include "src/util/check.h"

namespace artc::storage {

StorageConfig MakeNamedConfig(const std::string& name) {
  StorageConfig c;
  c.name = name;
  if (name == "hdd") {
    return c;
  }
  if (name == "raid0") {
    c.raid_members = 2;
    return c;
  }
  if (name == "ssd") {
    c.device = DeviceKind::kSsd;
    return c;
  }
  if (name == "smallcache") {
    // 1.5 GB vs the default 1 GB is not much of a squeeze; the paper pinned
    // memory to shrink a 4 GB cache to 1.5 GB. We scale the same ~2.7x ratio
    // down so experiments stay fast: default 1 GB -> small 384 MB.
    c.cache.capacity_blocks = 98304;
    return c;
  }
  if (name == "bigcache") {
    c.cache.capacity_blocks = 1048576;  // 4 GB
    return c;
  }
  if (name == "cfq-1ms") {
    c.scheduler = SchedulerKind::kCfq;
    c.cfq.slice_sync = Ms(1);
    return c;
  }
  if (name == "cfq-100ms") {
    c.scheduler = SchedulerKind::kCfq;
    c.cfq.slice_sync = Ms(100);
    return c;
  }
  ARTC_CHECK_MSG(false, "unknown storage config '%s'", name.c_str());
  return c;
}

StorageStack::StorageStack(sim::Simulation* simulation, const StorageConfig& config)
    : sim_(simulation), config_(config), inflight_cv_(simulation) {
  auto make_device = [&]() -> std::unique_ptr<BlockDevice> {
    if (config_.device == DeviceKind::kSsd) {
      return std::make_unique<SsdModel>(sim_, config_.ssd);
    }
    return std::make_unique<HddModel>(sim_, config_.hdd);
  };
  if (config_.raid_members > 1) {
    std::vector<std::unique_ptr<BlockDevice>> members;
    members.reserve(config_.raid_members);
    for (uint32_t i = 0; i < config_.raid_members; ++i) {
      members.push_back(make_device());
    }
    top_device_ = std::make_unique<Raid0>(std::move(members), config_.raid_chunk_blocks);
  } else {
    top_device_ = make_device();
  }
  if (config_.scheduler == SchedulerKind::kCfq) {
    scheduler_ = std::make_unique<CfqScheduler>(sim_, top_device_.get(), config_.cfq);
  } else {
    scheduler_ = std::make_unique<NoopScheduler>(top_device_.get());
  }
  cache_ = std::make_unique<PageCache>(sim_, scheduler_.get(), config_.cache);
}

StorageStack::~StorageStack() = default;

void StorageStack::AccountService(TimeNs dt, ServiceCat cat) {
  if (dt <= 0) {
    return;
  }
  const sim::SimThreadId t = sim_->CurrentThread();
  if (t != sim::kInvalidThread) {
    if (service_ns_by_thread_.size() <= t) {
      service_ns_by_thread_.resize(t + 1, 0);
    }
    service_ns_by_thread_[t] += dt;
  }
  switch (cat) {
    case ServiceCat::kCache:
      service_cache_ns_ += dt;
      break;
    case ServiceCat::kMediaRead:
      service_media_read_ns_ += dt;
      break;
    case ServiceCat::kMediaWrite:
      service_media_write_ns_ += dt;
      break;
    case ServiceCat::kWriteback:
      service_writeback_ns_ += dt;
      break;
  }
}

TimeNs StorageStack::ServiceNsForCurrentThread() const {
  const sim::SimThreadId t = sim_->CurrentThread();
  if (t == sim::kInvalidThread) {
    return 0;
  }
  return t < service_ns_by_thread_.size() ? service_ns_by_thread_[t] : 0;
}

void StorageStack::BlockingIo(uint64_t lba, uint32_t nblocks, bool is_write,
                              uint32_t issuer, ServiceCat cat) {
  const TimeNs t0 = sim_->Now();
  bool done = false;
  sim::SimCondVar cv(sim_);
  BlockRequest req;
  req.lba = lba;
  req.nblocks = nblocks;
  req.is_write = is_write;
  req.issuer = issuer;
  req.done = [&done, &cv] {
    done = true;
    cv.NotifyAll();
  };
  ARTC_OBS_GAUGE_ADD("storage.inflight_requests", 1);
  ARTC_OBS_OBSERVE("storage.request_blocks", nblocks);
  scheduler_->Submit(std::move(req));
  while (!done) {
    cv.Wait();
  }
  ARTC_OBS_GAUGE_ADD("storage.inflight_requests", -1);
  AccountService(sim_->Now() - t0, cat);
  if (is_write) {
    media_write_blocks_ += nblocks;
    ARTC_OBS_COUNT("storage.media_write_blocks", nblocks);
  } else {
    media_read_blocks_ += nblocks;
    ARTC_OBS_COUNT("storage.media_read_blocks", nblocks);
  }
}

void StorageStack::Read(uint64_t lba, uint32_t nblocks, bool sequential_hint) {
  uint32_t issuer = sim_->CurrentThread();
  uint64_t end = lba + nblocks;
  uint64_t b = lba;
  uint32_t hit_run = 0;
  while (b < end) {
    if (cache_->Resident(b, 1)) {
      cache_->Touch(b, 1);
      hit_run++;
      b++;
      continue;
    }
    if (inflight_reads_.count(b) != 0) {
      // Another thread is already fetching this block; waiting on its I/O
      // is still time the media serves this reader.
      const TimeNs w0 = sim_->Now();
      while (inflight_reads_.count(b) != 0) {
        inflight_cv_.Wait();
      }
      AccountService(sim_->Now() - w0, ServiceCat::kMediaRead);
      continue;  // re-check residency
    }
    // Find the contiguous miss run within the request.
    uint64_t miss_end = b + 1;
    while (miss_end < end && !cache_->Resident(miss_end, 1) &&
           inflight_reads_.count(miss_end) == 0) {
      miss_end++;
    }
    uint32_t fetch = static_cast<uint32_t>(miss_end - b);
    if (sequential_hint) {
      // Extend with read-ahead past the request, stopping at resident or
      // already-inflight blocks and the device capacity.
      uint64_t ra_end = b + fetch + cache_->params().readahead_blocks;
      ra_end = std::min(ra_end, top_device_->CapacityBlocks());
      while (b + fetch < ra_end && !cache_->Resident(b + fetch, 1) &&
             inflight_reads_.count(b + fetch) == 0) {
        fetch++;
      }
    }
    cache_->CountMiss(fetch);
    for (uint64_t i = b; i < b + fetch; ++i) {
      inflight_reads_.insert(i);
    }
    BlockingIo(b, fetch, /*is_write=*/false, issuer, ServiceCat::kMediaRead);
    cache_->InsertClean(b, fetch);
    for (uint64_t i = b; i < b + fetch; ++i) {
      inflight_reads_.erase(i);
    }
    inflight_cv_.NotifyAll();
    WriteBlocksOut(cache_->EvictToCapacity(), kAsyncIssuer, ServiceCat::kWriteback);
    b += std::min<uint64_t>(fetch, miss_end - b);
  }
  if (hit_run > 0) {
    cache_->CountHit(hit_run);
    sim_->Sleep(cache_->params().hit_cost * hit_run);
    AccountService(cache_->params().hit_cost * hit_run, ServiceCat::kCache);
  }
}

void StorageStack::Write(uint64_t lba, uint32_t nblocks) {
  cache_->InsertDirty(lba, nblocks);
  sim_->Sleep(cache_->params().hit_cost * nblocks);
  AccountService(cache_->params().hit_cost * nblocks, ServiceCat::kCache);
  WriteBlocksOut(cache_->EvictToCapacity(), sim_->CurrentThread(),
                 ServiceCat::kWriteback);
  ThrottleDirty();
}

void StorageStack::WriteSync(uint64_t lba, uint32_t nblocks) {
  uint32_t issuer = sim_->CurrentThread();
  cache_->InsertClean(lba, nblocks);  // resident, not dirty: it's on media
  BlockingIo(lba, nblocks, /*is_write=*/true, issuer, ServiceCat::kMediaWrite);
  WriteBlocksOut(cache_->EvictToCapacity(), issuer, ServiceCat::kWriteback);
}

void StorageStack::ThrottleDirty() {
  // Foreground throttling: writers over the dirty limit must clean pages.
  while (cache_->OverDirtyLimit()) {
    std::vector<uint64_t> victims = cache_->CollectOldestDirty(256);
    if (victims.empty()) {
      return;
    }
    WriteBlocksOut(std::move(victims), sim_->CurrentThread(),
                   ServiceCat::kWriteback);
  }
}

void StorageStack::WriteBlocksOut(std::vector<uint64_t> blocks, uint32_t issuer,
                                  ServiceCat cat) {
  if (blocks.empty()) {
    return;
  }
  std::sort(blocks.begin(), blocks.end());
  size_t i = 0;
  while (i < blocks.size()) {
    size_t j = i + 1;
    while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1) {
      j++;
    }
    BlockingIo(blocks[i], static_cast<uint32_t>(j - i), /*is_write=*/true,
               issuer, cat);
    i = j;
  }
}

void StorageStack::Flush(const std::vector<std::pair<uint64_t, uint32_t>>& ranges) {
  std::vector<uint64_t> dirty;
  for (const auto& [lba, nblocks] : ranges) {
    std::vector<uint64_t> d = cache_->CollectDirty(lba, nblocks);
    dirty.insert(dirty.end(), d.begin(), d.end());
  }
  WriteBlocksOut(std::move(dirty), sim_->CurrentThread(),
                 ServiceCat::kMediaWrite);
}

void StorageStack::Discard(uint64_t lba, uint32_t nblocks) {
  cache_->Invalidate(lba, nblocks);
}

StorageCounters StorageStack::Counters() const {
  StorageCounters c;
  c.cache_hit_blocks = cache_->HitBlocks();
  c.cache_miss_blocks = cache_->MissBlocks();
  c.cache_evicted_blocks = cache_->EvictedBlocks();
  c.cache_writeback_blocks = cache_->WritebackBlocks();
  c.media_read_blocks = media_read_blocks_;
  c.media_write_blocks = media_write_blocks_;
  if (config_.scheduler == SchedulerKind::kCfq) {
    c.cfq_context_switches =
        static_cast<const CfqScheduler&>(*scheduler_).ContextSwitches();
  }
  if (config_.raid_members > 1) {
    const auto& raid = static_cast<const Raid0&>(*top_device_);
    c.raid_member_read_blocks = raid.MemberReadBlocks();
    c.raid_member_write_blocks = raid.MemberWriteBlocks();
  }
  c.service_cache_ns = service_cache_ns_;
  c.service_media_read_ns = service_media_read_ns_;
  c.service_media_write_ns = service_media_write_ns_;
  c.service_writeback_ns = service_writeback_ns_;
  return c;
}

}  // namespace artc::storage
