// MetricsRegistry: named counters, gauges, and log2-bucketed histograms with
// thread-local shards.
//
// Hot-path cost model: an increment is one thread-local shard lookup (a
// single-entry cache hit in the common case) plus one relaxed atomic add on
// a cell owned by the calling thread — no locks, no cross-thread cache-line
// contention. Snapshot() merges every shard under the registry mutex, so
// aggregation cost is paid only when someone actually reads the metrics.
//
// The registry itself depends on nothing but the standard library, so every
// layer of the stack (util, sim, storage, core) can link against it.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace artc::obs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

// Opaque handle returned by metric registration; cheap to copy and to keep
// in a function-local static at the increment site.
struct MetricId {
  uint32_t cell = 0;  // first cell index in the shard cell space
  MetricKind kind = MetricKind::kCounter;
};

// Log2 histogram layout: bucket 0 holds value 0, bucket b >= 1 holds values
// in [2^(b-1), 2^b - 1]. One extra cell accumulates the raw sum.
inline constexpr uint32_t kHistogramBuckets = 64;

struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  // (inclusive upper bound, count) for non-empty buckets, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::string ToJson() const;
  // Prometheus text exposition format (version 0.0.4): sanitized names with
  // an "artc_" namespace, counters suffixed "_total", histograms rendered
  // with cumulative le="..." buckets plus _sum/_count, and one HELP/TYPE
  // pair per metric. Implemented in export.cc.
  std::string ToPrometheusText() const;
};

// Maps an internal metric name (dotted, e.g. "page_cache.hit_blocks") to a
// Prometheus-legal name: "artc_" prefix, [a-zA-Z0-9_:] alphabet, leading
// digits guarded. Exposed for tests and the exposition writer.
std::string SanitizeMetricName(std::string_view name);

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration interns by name: the same name always yields the same id
  // (and the same cells), so call sites can register independently.
  MetricId Counter(std::string_view name);
  MetricId Gauge(std::string_view name);
  MetricId Histogram(std::string_view name);

  // Counter/gauge update. Counters should only ever receive non-negative
  // deltas; gauges may go both ways (e.g. queue depth +1/-1).
  void Add(MetricId id, int64_t delta) {
    LocalShard()->Cell(id.cell)->fetch_add(delta, std::memory_order_relaxed);
  }

  // Gauge set: afterwards the merged value reads `value`. Unlike Add this
  // takes the registry mutex, under which it adds (value - merged value) to
  // the caller's shard; concurrent Adds linearize before or after it.
  void Set(MetricId id, int64_t value);

  // Histogram sample.
  void Observe(MetricId id, uint64_t value);

  // Merges all shards. Safe to call while other threads keep incrementing;
  // the result is then simply a slightly stale but consistent-per-cell view.
  MetricsSnapshot Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().ToJson(); }

  // Diagnostics for tests: number of thread shards ever registered.
  size_t ShardCount() const;

 private:
  // Lock-free chunked cell storage so shards can grow while other threads
  // read existing cells (snapshot) without a lock on the increment path.
  static constexpr uint32_t kCellsPerChunk = 1024;
  static constexpr uint32_t kMaxChunks = 64;  // 65536 cells per shard

  struct Shard {
    std::array<std::atomic<std::atomic<int64_t>*>, kMaxChunks> chunks{};
    ~Shard();
    std::atomic<int64_t>* Cell(uint32_t index);
  };

  struct Metric {
    std::string name;
    MetricId id;
  };

  Shard* LocalShard() const;
  Shard* RegisterShard() const;
  MetricId Register(std::string_view name, MetricKind kind, uint32_t cells);
  int64_t SumCell(uint32_t cell) const;  // caller holds mu_

  const uint64_t id_;  // process-unique registry id for the TLS cache
  mutable std::mutex mu_;
  std::map<std::string, MetricId, std::less<>> by_name_;
  std::vector<Metric> metrics_;  // registration order, for export
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  uint32_t next_cell_ = 0;
};

}  // namespace artc::obs

#endif  // SRC_OBS_METRICS_H_
