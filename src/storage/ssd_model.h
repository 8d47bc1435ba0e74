// Flash-device timing model: fixed per-op latency, multiple independent
// channels (lba-striped), no positional cost.
#ifndef SRC_STORAGE_SSD_MODEL_H_
#define SRC_STORAGE_SSD_MODEL_H_

#include <deque>
#include <vector>

#include "src/storage/block_device.h"

namespace artc::storage {

struct SsdParams {
  uint64_t capacity_blocks = 512ULL * 1024 * 1024 / 4;
  uint32_t channels = 8;
  TimeNs read_latency = Us(80);
  TimeNs write_latency = Us(120);
  double bandwidth_bytes_per_sec = 420.0 * 1024 * 1024;  // per channel
};

class SsdModel : public BlockDevice {
 public:
  SsdModel(sim::Simulation* simulation, SsdParams params);

  void Submit(BlockRequest req) override;
  uint64_t CapacityBlocks() const override { return params_.capacity_blocks; }
  size_t Inflight() const override { return inflight_; }

 private:
  struct Channel {
    std::deque<BlockRequest> queue;
    bool busy = false;
  };
  void StartNext(uint32_t ch);

  sim::Simulation* sim_;
  SsdParams params_;
  std::vector<Channel> channels_;
  size_t inflight_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_SSD_MODEL_H_
