#include "src/storage/raid0.h"

#include <algorithm>
#include <memory>

#include "src/util/check.h"

namespace artc::storage {

Raid0::Raid0(std::vector<std::unique_ptr<BlockDevice>> members, uint32_t chunk_blocks)
    : members_(std::move(members)), chunk_blocks_(chunk_blocks) {
  ARTC_CHECK(!members_.empty());
  ARTC_CHECK(chunk_blocks_ > 0);
  uint64_t min_cap = UINT64_MAX;
  for (const auto& m : members_) {
    min_cap = std::min(min_cap, m->CapacityBlocks());
  }
  capacity_ = min_cap * members_.size();
  member_read_blocks_.resize(members_.size(), 0);
  member_write_blocks_.resize(members_.size(), 0);
}

size_t Raid0::Inflight() const {
  size_t n = 0;
  for (const auto& m : members_) {
    n += m->Inflight();
  }
  return n;
}

void Raid0::Submit(BlockRequest req) {
  ARTC_CHECK(req.done != nullptr);
  ARTC_CHECK(req.lba + req.nblocks <= capacity_);

  // Split into per-chunk pieces first so we know the fan-out count.
  struct Piece {
    size_t member;
    uint64_t member_lba;
    uint32_t nblocks;
  };
  std::vector<Piece> pieces;
  uint64_t lba = req.lba;
  uint32_t remaining = req.nblocks;
  while (remaining > 0) {
    uint64_t chunk_index = lba / chunk_blocks_;
    uint32_t offset_in_chunk = static_cast<uint32_t>(lba % chunk_blocks_);
    uint32_t take = std::min(remaining, chunk_blocks_ - offset_in_chunk);
    size_t member = static_cast<size_t>(chunk_index % members_.size());
    uint64_t member_chunk = chunk_index / members_.size();
    pieces.push_back(Piece{member, member_chunk * chunk_blocks_ + offset_in_chunk, take});
    lba += take;
    remaining -= take;
  }

  auto outstanding = std::make_shared<size_t>(pieces.size());
  auto done = std::make_shared<std::function<void()>>(std::move(req.done));
  for (const Piece& p : pieces) {
    (req.is_write ? member_write_blocks_ : member_read_blocks_)[p.member] +=
        p.nblocks;
    BlockRequest sub;
    sub.lba = p.member_lba;
    sub.nblocks = p.nblocks;
    sub.is_write = req.is_write;
    sub.issuer = req.issuer;
    sub.done = [outstanding, done] {
      if (--*outstanding == 0) {
        (*done)();
      }
    };
    members_[p.member]->Submit(std::move(sub));
  }
}

}  // namespace artc::storage
