// Differential test: storage::PageCache (flat table, index-linked LRU and
// dirty lists) against the list + unordered_map cache it replaced, kept in
// tests/oracle_page_cache.* as the oracle. Both are driven with the same
// seeded random operation sequences over small capacities and overlapping
// ranges; after every operation their return vectors (in order), sizes and
// counters must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/storage/page_cache.h"
#include "tests/oracle_page_cache.h"

namespace artc::storage {
namespace {

class Differ {
 public:
  Differ(uint64_t capacity, uint64_t seed)
      : params_(Params(capacity)), cache_(nullptr, nullptr, params_),
        oracle_(nullptr, nullptr, params_), rng_(seed) {}

  // Runs `ops` random operations, checking both caches after each one.
  void Run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      Step();
      ExpectSameState();
    }
  }

 private:
  static PageCacheParams Params(uint64_t capacity) {
    PageCacheParams p;
    p.capacity_blocks = capacity;
    p.dirty_ratio = 0.4;
    return p;
  }

  uint64_t Lba() {
    // Three regions far apart, each four capacities wide, so ranges overlap
    // often and the table sees widely spread keys.
    static constexpr uint64_t kBases[] = {0, 1'000'003, uint64_t{1} << 40};
    const uint64_t span = 4 * params_.capacity_blocks;
    return kBases[Pick(3)] + Pick(span);
  }
  uint32_t Len() { return 1 + static_cast<uint32_t>(Pick(params_.capacity_blocks / 2 + 2)); }
  uint64_t Pick(uint64_t n) { return std::uniform_int_distribution<uint64_t>(0, n - 1)(rng_); }

  void Step() {
    const uint64_t lba = Lba();
    const uint32_t n = Len();
    switch (Pick(12)) {
      case 0:
      case 1:
        cache_.InsertClean(lba, n);
        oracle_.InsertClean(lba, n);
        Trace("InsertClean", lba, n);
        MaybeEvict();
        break;
      case 2:
      case 3:
        cache_.InsertDirty(lba, n);
        oracle_.InsertDirty(lba, n);
        Trace("InsertDirty", lba, n);
        MaybeEvict();
        break;
      case 4:
        cache_.Touch(lba, n);
        oracle_.Touch(lba, n);
        Trace("Touch", lba, n);
        break;
      case 5: {
        // StorageStack's hit path: one probe that also touches.
        const bool resident = oracle_.Resident(lba, 1);
        if (resident) {
          oracle_.Touch(lba, 1);
        }
        Trace("TouchIfResident", lba, 1);
        EXPECT_EQ(cache_.TouchIfResident(lba), resident) << history_;
        break;
      }
      case 6:
        cache_.Invalidate(lba, n);
        oracle_.Invalidate(lba, n);
        Trace("Invalidate", lba, n);
        break;
      case 7:
        Trace("CollectDirty", lba, n);
        EXPECT_EQ(cache_.CollectDirty(lba, n), oracle_.CollectDirty(lba, n)) << history_;
        break;
      case 8: {
        const uint32_t max = static_cast<uint32_t>(Pick(params_.capacity_blocks + 2));
        Trace("CollectOldestDirty", max, 0);
        EXPECT_EQ(cache_.CollectOldestDirty(max), oracle_.CollectOldestDirty(max)) << history_;
        break;
      }
      case 9:
        Trace("Resident", lba, n);
        EXPECT_EQ(cache_.Resident(lba, n), oracle_.Resident(lba, n)) << history_;
        break;
      case 10:
        cache_.CountHit(n);
        oracle_.CountHit(n);
        cache_.CountMiss(n / 2);
        oracle_.CountMiss(n / 2);
        Trace("CountHitMissEvict", n, n / 2);
        EXPECT_EQ(cache_.EvictToCapacity(), oracle_.EvictToCapacity()) << history_;
        break;
      case 11:
        if (Pick(8) == 0) {
          cache_.DropAll();
          oracle_.DropAll();
          Trace("DropAll", 0, 0);
        }
        break;
    }
  }

  // Usually evicts right after an insert, as StorageStack does; sometimes
  // leaves the overshoot for later so residency runs past capacity.
  void MaybeEvict() {
    if (Pick(4) != 0) {
      Trace("EvictToCapacity", 0, 0);
      EXPECT_EQ(cache_.EvictToCapacity(), oracle_.EvictToCapacity()) << history_;
    }
  }

  void ExpectSameState() {
    EXPECT_EQ(cache_.ResidentCount(), oracle_.ResidentCount()) << history_;
    EXPECT_EQ(cache_.DirtyCount(), oracle_.DirtyCount()) << history_;
    EXPECT_EQ(cache_.HitBlocks(), oracle_.HitBlocks()) << history_;
    EXPECT_EQ(cache_.MissBlocks(), oracle_.MissBlocks()) << history_;
    EXPECT_EQ(cache_.EvictedBlocks(), oracle_.EvictedBlocks()) << history_;
    EXPECT_EQ(cache_.WritebackBlocks(), oracle_.WritebackBlocks()) << history_;
    EXPECT_EQ(cache_.OverDirtyLimit(), oracle_.OverDirtyLimit()) << history_;
  }

  // The last few operations, printed with any mismatch.
  void Trace(const char* op, uint64_t a, uint64_t b) {
    history_ += std::string(op) + "(" + std::to_string(a) + "," + std::to_string(b) + ") ";
    if (history_.size() > 600) {
      history_.erase(0, history_.size() - 600);
    }
  }

  PageCacheParams params_;
  PageCache cache_;
  oracle::PageCache oracle_;
  std::mt19937_64 rng_;
  std::string history_;
};

TEST(PageCacheDiff, MatchesListCacheOnRandomOps) {
  for (uint64_t capacity : {8, 13, 16, 33, 64}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " + std::to_string(seed));
      Differ(capacity, seed * 7919 + capacity).Run(3000);
    }
  }
}

TEST(PageCacheDiff, MatchesListCacheAfterOvershootAndDropAll) {
  // Inserting far past capacity before evicting grows the table; DropAll
  // must leave a table that keeps working at its grown size.
  PageCacheParams p;
  p.capacity_blocks = 8;
  PageCache cache(nullptr, nullptr, p);
  oracle::PageCache oracle(nullptr, nullptr, p);
  for (int round = 0; round < 3; ++round) {
    cache.InsertDirty(100, 200);
    oracle.InsertDirty(100, 200);
    cache.InsertClean(250, 100);
    oracle.InsertClean(250, 100);
    EXPECT_EQ(cache.ResidentCount(), oracle.ResidentCount());
    EXPECT_EQ(cache.CollectOldestDirty(17), oracle.CollectOldestDirty(17));
    EXPECT_EQ(cache.CollectDirty(120, 40), oracle.CollectDirty(120, 40));
    EXPECT_EQ(cache.EvictToCapacity(), oracle.EvictToCapacity());
    EXPECT_EQ(cache.ResidentCount(), 8u);
    EXPECT_TRUE(cache.Resident(342, 8));
    cache.DropAll();
    oracle.DropAll();
    EXPECT_EQ(cache.ResidentCount(), 0u);
    EXPECT_EQ(cache.DirtyCount(), 0u);
    EXPECT_FALSE(cache.Resident(342, 1));
  }
}

TEST(PageCacheDiff, OldestDirtyFollowsLruOrderAcrossTouches) {
  PageCacheParams p;
  p.capacity_blocks = 64;
  PageCache cache(nullptr, nullptr, p);
  cache.InsertDirty(10, 4);   // 10..13, 13 most recent
  cache.InsertClean(20, 2);
  cache.Touch(11, 1);         // a touch moves a dirty block in the dirty list
  cache.InsertClean(12, 1);   // re-inserting clean keeps it dirty, moves it
  EXPECT_EQ(cache.CollectOldestDirty(3), (std::vector<uint64_t>{10, 13, 11}));
  EXPECT_EQ(cache.CollectOldestDirty(8), (std::vector<uint64_t>{12}));
  EXPECT_EQ(cache.DirtyCount(), 0u);
  EXPECT_EQ(cache.ResidentCount(), 6u);
}

}  // namespace
}  // namespace artc::storage
