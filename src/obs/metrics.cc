#include "src/obs/metrics.h"

#include <bit>
#include <unordered_map>

#include "src/obs/json.h"

namespace artc::obs {
namespace {

std::atomic<uint64_t> g_next_registry_id{1};

// Per-thread shard cache. The single-entry fast path covers the common case
// (one registry hot per thread); the map handles threads that touch several
// registries (tests). Keys are process-unique registry ids, never reused, so
// entries for destroyed registries are dead weight but never dereferenced.
struct TlsShardCache {
  uint64_t reg_id = 0;
  void* shard = nullptr;
  std::unordered_map<uint64_t, void*> fallback;
};
thread_local TlsShardCache g_tls_shards;

}  // namespace

MetricsRegistry::Shard::~Shard() {
  for (auto& c : chunks) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

std::atomic<int64_t>* MetricsRegistry::Shard::Cell(uint32_t index) {
  const uint32_t chunk = index / kCellsPerChunk;
  std::atomic<int64_t>* base = chunks[chunk].load(std::memory_order_acquire);
  if (base == nullptr) {
    auto* fresh = new std::atomic<int64_t>[kCellsPerChunk];
    for (uint32_t i = 0; i < kCellsPerChunk; ++i) {
      fresh[i].store(0, std::memory_order_relaxed);
    }
    if (chunks[chunk].compare_exchange_strong(base, fresh,
                                              std::memory_order_acq_rel)) {
      base = fresh;
    } else {
      delete[] fresh;  // another thread won the race (snapshot growth)
    }
  }
  return base + (index % kCellsPerChunk);
}

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard* MetricsRegistry::RegisterShard() const {
  std::lock_guard<std::mutex> lk(mu_);
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

MetricsRegistry::Shard* MetricsRegistry::LocalShard() const {
  TlsShardCache& tls = g_tls_shards;
  if (tls.reg_id == id_) {
    return static_cast<Shard*>(tls.shard);
  }
  void*& slot = tls.fallback[id_];
  if (slot == nullptr) {
    slot = RegisterShard();
  }
  tls.reg_id = id_;
  tls.shard = slot;
  return static_cast<Shard*>(slot);
}

MetricId MetricsRegistry::Register(std::string_view name, MetricKind kind,
                                   uint32_t cells) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;  // same kind assumed; names are namespaced by caller
  }
  MetricId id;
  id.cell = next_cell_;
  id.kind = kind;
  next_cell_ += cells;
  by_name_.emplace(std::string(name), id);
  metrics_.push_back(Metric{std::string(name), id});
  return id;
}

MetricId MetricsRegistry::Counter(std::string_view name) {
  return Register(name, MetricKind::kCounter, 1);
}

MetricId MetricsRegistry::Gauge(std::string_view name) {
  return Register(name, MetricKind::kGauge, 1);
}

MetricId MetricsRegistry::Histogram(std::string_view name) {
  return Register(name, MetricKind::kHistogram, kHistogramBuckets + 1);
}

void MetricsRegistry::Observe(MetricId id, uint64_t value) {
  // Bucket 0 <- 0; bucket b <- [2^(b-1), 2^b - 1], i.e. the value's bit
  // width, clamped to the last bucket.
  uint32_t bucket = value == 0 ? 0 : static_cast<uint32_t>(std::bit_width(value));
  if (bucket >= kHistogramBuckets) {
    bucket = kHistogramBuckets - 1;
  }
  Shard* shard = LocalShard();
  shard->Cell(id.cell + bucket)->fetch_add(1, std::memory_order_relaxed);
  shard->Cell(id.cell + kHistogramBuckets)
      ->fetch_add(static_cast<int64_t>(value), std::memory_order_relaxed);
}

void MetricsRegistry::Set(MetricId id, int64_t value) {
  Shard* shard = LocalShard();  // may register, which takes mu_ itself
  std::lock_guard<std::mutex> lk(mu_);
  shard->Cell(id.cell)->fetch_add(value - SumCell(id.cell), std::memory_order_relaxed);
}

int64_t MetricsRegistry::SumCell(uint32_t cell) const {
  int64_t total = 0;
  const uint32_t chunk = cell / kCellsPerChunk;
  const uint32_t offset = cell % kCellsPerChunk;
  for (const auto& shard : shards_) {
    std::atomic<int64_t>* base = shard->chunks[chunk].load(std::memory_order_acquire);
    if (base != nullptr) {
      total += base[offset].load(std::memory_order_relaxed);
    }
  }
  return total;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  for (const Metric& m : metrics_) {
    switch (m.id.kind) {
      case MetricKind::kCounter:
        snap.counters[m.name] = SumCell(m.id.cell);
        break;
      case MetricKind::kGauge:
        snap.gauges[m.name] = SumCell(m.id.cell);
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
          int64_t c = SumCell(m.id.cell + b);
          if (c > 0) {
            uint64_t upper = b == 0 ? 0 : (uint64_t{1} << b) - 1;
            h.buckets.emplace_back(upper, static_cast<uint64_t>(c));
            h.count += static_cast<uint64_t>(c);
          }
        }
        h.sum = SumCell(m.id.cell + kHistogramBuckets);
        snap.histograms[m.name] = std::move(h);
        break;
      }
    }
  }
  return snap;
}

size_t MetricsRegistry::ShardCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_.size();
}

namespace {

// Appends `"name": ` as the next member of a JSON object, after a comma
// unless it is the first.
void AppendMemberKey(std::string* out, bool* first, const std::string& name) {
  *out += *first ? "\n    \"" : ",\n    \"";
  *first = false;
  AppendJsonEscaped(out, name);
  *out += "\": ";
}

void AppendScalars(std::string* out, const std::map<std::string, int64_t>& values) {
  bool first = true;
  for (const auto& [name, v] : values) {
    AppendMemberKey(out, &first, name);
    *out += std::to_string(v);
  }
  *out += first ? "},\n" : "\n  },\n";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  AppendScalars(&out, counters);
  out += "  \"gauges\": {";
  AppendScalars(&out, gauges);
  out += "  \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    AppendMemberKey(&out, &first, name);
    out += "{\"count\": " + std::to_string(h.count) + ", \"sum\": " +
           std::to_string(h.sum) + ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      out += i == 0 ? "{\"le\": " : ", {\"le\": ";
      out += std::to_string(h.buckets[i].first) + ", \"count\": " +
             std::to_string(h.buckets[i].second) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace artc::obs
