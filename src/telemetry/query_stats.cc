#include "telemetry/query_stats.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "telemetry/exporters.h"

namespace hetdb {

namespace {

thread_local QueryStatsPtr tls_stats;
thread_local NodeStats* tls_node = nullptr;

const char* ProcessorName(int processor) {
  switch (processor) {
    case 0:
      return "CPU";
    case 1:
      return "GPU";
    default:
      return "-";
  }
}

std::string FormatBytes(int64_t bytes) {
  char buffer[32];
  if (bytes >= (1 << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1 << 10)) {
    std::snprintf(buffer, sizeof(buffer), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%lldB",
                  static_cast<long long>(bytes));
  }
  return buffer;
}

std::string FormatMillis(int64_t micros) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fms",
                static_cast<double>(micros) / 1000.0);
  return buffer;
}

}  // namespace

NodeStats* QueryStats::AddNode(const void* key, const void* parent_key,
                               std::string op, std::string label) {
  auto node = std::make_unique<NodeStats>();
  node->index = static_cast<int>(nodes_.size());
  node->op = std::move(op);
  node->label = std::move(label);
  if (parent_key != nullptr) {
    NodeStats* parent = Find(parent_key);
    HETDB_CHECK(parent != nullptr);  // parents register before children
    node->parent = parent->index;
  }
  NodeStats* raw = node.get();
  nodes_.push_back(std::move(node));
  index_[key] = raw;
  return raw;
}

NodeStats* QueryStats::Find(const void* key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second;
}

void QueryStats::MarkSubmitted() {
  if (submitted()) return;  // first call wins: keep the admission baseline
  submitted_ = std::chrono::steady_clock::now();
}

void QueryStats::MarkFinished(bool ok, const std::string& error) {
  if (finished_.load(std::memory_order_acquire)) return;
  finish_micros_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - submitted_)
          .count(),
      std::memory_order_relaxed);
  ok_.store(ok, std::memory_order_relaxed);
  error_ = error;
  finished_.store(true, std::memory_order_release);
}

void QueryStats::MarkShed(const std::string& reason) {
  if (finished_.load(std::memory_order_acquire)) return;
  shed_.store(true, std::memory_order_relaxed);
  MarkFinished(/*ok=*/false, reason);
}

int64_t QueryStats::wall_micros() const {
  const int64_t finish = finish_micros_.load(std::memory_order_relaxed);
  if (finish >= 0) return finish;
  if (submitted_ == std::chrono::steady_clock::time_point{}) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - submitted_)
      .count();
}

void QueryStats::OnTransfer(int direction, int64_t bytes, int64_t micros,
                            NodeStats* node, int device) {
  (direction == 0 ? h2d_bytes_ : d2h_bytes_)
      .fetch_add(bytes, std::memory_order_relaxed);
  (direction == 0 ? h2d_bytes_by_device_ : d2h_bytes_by_device_)[Clamp(device)]
      .fetch_add(bytes, std::memory_order_relaxed);
  transfer_micros_.fetch_add(micros, std::memory_order_relaxed);
  transfers_.fetch_add(1, std::memory_order_relaxed);
  if (node != nullptr) {
    (direction == 0 ? node->h2d_bytes : node->d2h_bytes)
        .fetch_add(bytes, std::memory_order_relaxed);
    node->transfers.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryStats::OnHeapAllocated(int64_t bytes, int64_t global_used_after,
                                 NodeStats* node, int device) {
  heap_current_.fetch_add(bytes, std::memory_order_relaxed);
  if (global_used_after > heap_high_water_.load(std::memory_order_relaxed)) {
    heap_high_water_.store(global_used_after, std::memory_order_relaxed);
  }
  alloc_bytes_by_device_[Clamp(device)].fetch_add(bytes,
                                                  std::memory_order_relaxed);
  std::atomic<int64_t>& device_hw = heap_hw_by_device_[Clamp(device)];
  if (global_used_after > device_hw.load(std::memory_order_relaxed)) {
    device_hw.store(global_used_after, std::memory_order_relaxed);
  }
  if (node != nullptr) {
    node->device_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (global_used_after >
        node->heap_high_water.load(std::memory_order_relaxed)) {
      node->heap_high_water.store(global_used_after,
                                  std::memory_order_relaxed);
    }
  }
}

void QueryStats::OnD2DTransfer(int64_t bytes, int64_t micros) {
  d2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  transfer_micros_.fetch_add(micros, std::memory_order_relaxed);
  transfers_.fetch_add(1, std::memory_order_relaxed);
}

void QueryStats::OnHeapFreed(int64_t bytes) {
  heap_current_.fetch_sub(bytes, std::memory_order_relaxed);
}

void QueryStats::OnCacheAccess(bool hit, NodeStats* node) {
  (hit ? cache_hits_ : cache_misses_).fetch_add(1, std::memory_order_relaxed);
  if (node != nullptr) {
    (hit ? node->cache_hits : node->cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryStats::OnQueueWait(int64_t micros, NodeStats* node) {
  queue_wait_micros_.fetch_add(micros, std::memory_order_relaxed);
  if (node != nullptr) {
    node->queue_wait_micros.fetch_add(micros, std::memory_order_relaxed);
  }
}

void QueryStats::OnRun(int64_t micros, NodeStats* node) {
  run_micros_.fetch_add(micros, std::memory_order_relaxed);
  if (node != nullptr) {
    node->run_micros.fetch_add(micros, std::memory_order_relaxed);
  }
}

void QueryStats::OnCpuWait(int64_t micros, NodeStats* node) {
  cpu_wait_micros_.fetch_add(micros, std::memory_order_relaxed);
  if (node != nullptr) {
    node->cpu_wait_micros.fetch_add(micros, std::memory_order_relaxed);
  }
}

int64_t QueryStats::device_retries() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->device_retries.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t QueryStats::cpu_fallbacks() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->cpu_fallbacks.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t QueryStats::heap_declines() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->heap_declines.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t QueryStats::operators_run() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->ran_on.load(std::memory_order_relaxed) >= 0) ++total;
  }
  return total;
}

std::string QueryStats::ToText() const {
  std::ostringstream os;
  // Children per parent, in registration order (stable, deterministic).
  std::vector<std::vector<const NodeStats*>> children(nodes_.size());
  const NodeStats* root = nullptr;
  for (const auto& node : nodes_) {
    if (node->parent < 0) {
      root = node.get();
    } else {
      children[static_cast<size_t>(node->parent)].push_back(node.get());
    }
  }

  struct Printer {
    const std::vector<std::vector<const NodeStats*>>& children;
    std::ostringstream& os;
    void Print(const NodeStats& node, int depth) const {
      os << std::string(static_cast<size_t>(depth) * 2, ' ') << node.label;
      const int ran_on = node.ran_on.load(std::memory_order_relaxed);
      const int requested = node.requested.load(std::memory_order_relaxed);
      const int device = node.device.load(std::memory_order_relaxed);
      os << "  [" << ProcessorName(ran_on);
      if (ran_on == 1 && device > 0) os << ":" << device;
      if (requested >= 0 && requested != ran_on) {
        os << ", requested " << ProcessorName(requested);
        // Told apart from a breaker short-circuit, which renders the same.
        if (node.heap_declines.load(std::memory_order_relaxed) > 0) {
          os << ", heap_decline";
        }
      }
      os << "]";
      const int64_t rows_in = node.rows_in.load(std::memory_order_relaxed);
      const int64_t rows_out = node.rows_out.load(std::memory_order_relaxed);
      if (rows_out >= 0) {
        os << "  rows=" << rows_out;
        if (rows_in >= 0) os << " (in " << rows_in << ")";
      }
      const int64_t cpu_us =
          node.cpu_kernel_micros.load(std::memory_order_relaxed);
      const int64_t gpu_us =
          node.gpu_kernel_micros.load(std::memory_order_relaxed);
      if (cpu_us > 0) os << "  kernel_cpu=" << FormatMillis(cpu_us);
      if (gpu_us > 0) os << "  kernel_gpu=" << FormatMillis(gpu_us);
      const int64_t h2d = node.h2d_bytes.load(std::memory_order_relaxed);
      const int64_t d2h = node.d2h_bytes.load(std::memory_order_relaxed);
      os << "  pcie(h2d=" << FormatBytes(h2d) << ",d2h=" << FormatBytes(d2h)
         << ")";
      os << "  heap_hw=" << FormatBytes(
                node.heap_high_water.load(std::memory_order_relaxed));
      const int64_t hits = node.cache_hits.load(std::memory_order_relaxed);
      const int64_t misses = node.cache_misses.load(std::memory_order_relaxed);
      if (hits + misses > 0) {
        os << "  cache(h=" << hits << ",m=" << misses << ")";
      }
      const int64_t retries =
          node.device_retries.load(std::memory_order_relaxed);
      const int64_t fallbacks =
          node.cpu_fallbacks.load(std::memory_order_relaxed);
      if (retries > 0) os << "  retries=" << retries;
      if (fallbacks > 0) os << "  gpu_abort->cpu=" << fallbacks;
      os << "  wait=" << FormatMillis(
                node.queue_wait_micros.load(std::memory_order_relaxed))
         << " run=" << FormatMillis(
                node.run_micros.load(std::memory_order_relaxed))
         << " cpu_wait=" << FormatMillis(
                node.cpu_wait_micros.load(std::memory_order_relaxed));
      os << "\n";
      for (const NodeStats* child : children[static_cast<size_t>(node.index)]) {
        Print(*child, depth + 1);
      }
    }
  };
  if (root != nullptr) {
    Printer{children, os}.Print(*root, 0);
  }

  os << "-- query";
  if (query_id_ != 0) os << " #" << query_id_;
  if (!name_.empty()) os << " (" << name_ << ")";
  os << ": " << (finished() ? (ok() ? "ok" : (shed() ? "SHED" : "FAILED"))
                            : "running")
     << "  wall=" << FormatMillis(wall_micros())
     << "  pcie(h2d=" << FormatBytes(h2d_bytes())
     << ",d2h=" << FormatBytes(d2h_bytes()) << " in " << transfers()
     << " transfers, " << FormatMillis(transfer_micros()) << ")"
     << "  heap_hw=" << FormatBytes(heap_high_water()) << "  cache(h="
     << cache_hits() << ",m=" << cache_misses() << ")"
     << "  wait=" << FormatMillis(queue_wait_micros())
     << " run=" << FormatMillis(run_micros())
     << " cpu_wait=" << FormatMillis(cpu_wait_micros())
     << "  retries=" << device_retries()
     << " fallbacks=" << cpu_fallbacks()
     << " heap_declines=" << heap_declines() << "\n";
  if (finished() && !ok()) os << "   error: " << error_ << "\n";
  return os.str();
}

std::string QueryStats::ToJson() const {
  std::ostringstream os;
  os << "{\"query_id\":" << query_id_ << ",\"name\":\"" << JsonEscape(name_)
     << "\",\"status\":\""
     << (finished() ? (ok() ? "ok" : (shed() ? "shed" : "error")) : "running")
     << "\"";
  if (finished() && !ok()) os << ",\"error\":\"" << JsonEscape(error_) << "\"";
  os << ",\"wall_us\":" << wall_micros() << ",\"h2d_bytes\":" << h2d_bytes()
     << ",\"d2h_bytes\":" << d2h_bytes() << ",\"transfers\":" << transfers()
     << ",\"transfer_us\":" << transfer_micros()
     << ",\"heap_high_water\":" << heap_high_water()
     << ",\"cache_hits\":" << cache_hits()
     << ",\"cache_misses\":" << cache_misses()
     << ",\"queue_wait_us\":" << queue_wait_micros()
     << ",\"run_us\":" << run_micros()
     << ",\"cpu_wait_us\":" << cpu_wait_micros()
     << ",\"device_retries\":" << device_retries()
     << ",\"cpu_fallbacks\":" << cpu_fallbacks()
     << ",\"heap_declines\":" << heap_declines() << ",\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeStats& node = *nodes_[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << node.index << ",\"parent\":" << node.parent
       << ",\"op\":\"" << JsonEscape(node.op) << "\",\"label\":\""
       << JsonEscape(node.label) << "\",\"requested\":\""
       << ProcessorName(node.requested.load(std::memory_order_relaxed))
       << "\",\"ran_on\":\""
       << ProcessorName(node.ran_on.load(std::memory_order_relaxed))
       << "\",\"device\":" << node.device.load(std::memory_order_relaxed)
       << ",\"rows_in\":" << node.rows_in.load(std::memory_order_relaxed)
       << ",\"rows_out\":" << node.rows_out.load(std::memory_order_relaxed)
       << ",\"cpu_kernel_us\":"
       << node.cpu_kernel_micros.load(std::memory_order_relaxed)
       << ",\"gpu_kernel_us\":"
       << node.gpu_kernel_micros.load(std::memory_order_relaxed)
       << ",\"h2d_bytes\":" << node.h2d_bytes.load(std::memory_order_relaxed)
       << ",\"d2h_bytes\":" << node.d2h_bytes.load(std::memory_order_relaxed)
       << ",\"transfers\":" << node.transfers.load(std::memory_order_relaxed)
       << ",\"cache_hits\":"
       << node.cache_hits.load(std::memory_order_relaxed)
       << ",\"cache_misses\":"
       << node.cache_misses.load(std::memory_order_relaxed)
       << ",\"device_alloc_bytes\":"
       << node.device_alloc_bytes.load(std::memory_order_relaxed)
       << ",\"heap_high_water\":"
       << node.heap_high_water.load(std::memory_order_relaxed)
       << ",\"queue_wait_us\":"
       << node.queue_wait_micros.load(std::memory_order_relaxed)
       << ",\"run_us\":" << node.run_micros.load(std::memory_order_relaxed)
       << ",\"cpu_wait_us\":"
       << node.cpu_wait_micros.load(std::memory_order_relaxed)
       << ",\"attempts\":" << node.attempts.load(std::memory_order_relaxed)
       << ",\"device_retries\":"
       << node.device_retries.load(std::memory_order_relaxed)
       << ",\"cpu_fallbacks\":"
       << node.cpu_fallbacks.load(std::memory_order_relaxed)
       << ",\"heap_declines\":"
       << node.heap_declines.load(std::memory_order_relaxed) << "}";
  }
  os << "]}";
  return os.str();
}

std::vector<std::pair<std::string, std::string>> QueryStats::SummaryFields()
    const {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back(
      "status",
      finished() ? (ok() ? "ok" : (shed() ? "shed" : "error")) : "running");
  if (finished() && !ok()) fields.emplace_back("error", error_);
  fields.emplace_back("wall_us", std::to_string(wall_micros()));
  fields.emplace_back("operators", std::to_string(operators_run()));
  fields.emplace_back("h2d_bytes", std::to_string(h2d_bytes()));
  fields.emplace_back("d2h_bytes", std::to_string(d2h_bytes()));
  fields.emplace_back("heap_high_water", std::to_string(heap_high_water()));
  fields.emplace_back("cache_hits", std::to_string(cache_hits()));
  fields.emplace_back("cache_misses", std::to_string(cache_misses()));
  fields.emplace_back("queue_wait_us", std::to_string(queue_wait_micros()));
  fields.emplace_back("run_us", std::to_string(run_micros()));
  fields.emplace_back("cpu_wait_us", std::to_string(cpu_wait_micros()));
  fields.emplace_back("device_retries", std::to_string(device_retries()));
  fields.emplace_back("cpu_fallbacks", std::to_string(cpu_fallbacks()));
  fields.emplace_back("heap_declines", std::to_string(heap_declines()));
  return fields;
}

QueryStatsScope::QueryStatsScope(QueryStatsPtr stats, NodeStats* node)
    : prev_stats_(std::move(tls_stats)), prev_node_(tls_node) {
  tls_stats = std::move(stats);
  tls_node = node;
}

QueryStatsScope::~QueryStatsScope() {
  tls_stats = std::move(prev_stats_);
  tls_node = prev_node_;
}

QueryStats* QueryStatsScope::current_stats() { return tls_stats.get(); }

NodeStats* QueryStatsScope::current_node() { return tls_node; }

QueryStatsPtr QueryStatsScope::current_stats_shared() { return tls_stats; }

}  // namespace hetdb
