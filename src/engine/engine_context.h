#ifndef HETDB_ENGINE_ENGINE_CONTEXT_H_
#define HETDB_ENGINE_ENGINE_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/data_cache.h"
#include "common/config.h"
#include "fault/brownout.h"
#include "fault/circuit_breaker.h"
#include "fault/watchdog.h"
#include "hype/cost_model.h"
#include "hype/load_tracker.h"
#include "hype/scheduler.h"
#include "placement/sharding.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "telemetry/detector.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace hetdb {

/// One fused pipeline's standing demand on the data caches. Under the
/// data-driven rule a pipeline runs on the device only if every column its
/// source reads is cached, and a build side only if its own columns are, so
/// the data-driven runners' placement job completes the pipelines worth most
/// per cache byte (placement/pipeline_cache.h).
struct PipelineDemand {
  std::vector<std::string> keys;  ///< base-column cache keys read, sorted
  uint64_t runs = 0;              ///< how often it ran
  /// Modeled CPU time minus modeled device time of one run.
  double run_value_micros = 0;
};

/// Owns the full runtime state of one HetDB instance: the simulated machine,
/// the per-device data caches / circuit breakers / thrashing detectors, the
/// device sharding policy, the HyPE optimizer state, and telemetry (metric
/// registry + workload counters; trace recording is process-global, see
/// telemetry/trace_recorder.h).
///
/// Benchmarks construct one EngineContext per experimental configuration;
/// executors and placement strategies all operate against it. The no-arg
/// `cache()` / `breaker()` / `detector()` accessors return device 0's unit,
/// which on the default single-device machine is the whole story — the
/// multi-device-aware layers index explicitly.
class EngineContext {
 public:
  EngineContext(const SystemConfig& config, DatabasePtr database,
                EvictionPolicy cache_policy = EvictionPolicy::kLfu)
      : simulator_(std::make_unique<Simulator>(config)),
        cost_model_(std::make_unique<CostModel>(simulator_.get())),
        load_tracker_(std::make_unique<LoadTracker>()),
        scheduler_(std::make_unique<HypeScheduler>(
            cost_model_.get(), load_tracker_.get(), simulator_.get())),
        telemetry_(std::make_unique<Telemetry>()),
        flight_recorder_(std::make_unique<FlightRecorder>()),
        database_(std::move(database)) {
    const int devices = simulator_->device_count();
    caches_.reserve(static_cast<size_t>(devices));
    detectors_.reserve(static_cast<size_t>(devices));
    breakers_.reserve(static_cast<size_t>(devices));
    for (int d = 0; d < devices; ++d) {
      // Device 0 keeps the legacy un-prefixed metric names, so the
      // single-device dashboards/tests are byte-identical to before.
      const std::string prefix =
          d == 0 ? "" : "device" + std::to_string(d) + ".";
      caches_.push_back(std::make_unique<DataCache>(
          config.device_cache_bytes, cache_policy, simulator_.get(),
          config.compress_device_cache, d));
      detectors_.push_back(std::make_unique<ThrashingDetector>(
          ThrashingDetector::Options(), &telemetry_->registry(),
          flight_recorder_.get(), prefix));
      breakers_.push_back(std::make_unique<DeviceCircuitBreaker>(
          DeviceCircuitBreaker::Options(), &telemetry_->registry(),
          flight_recorder_.get(), prefix));
      // Fault-injection counters surface in this context's metric exports,
      // and fault episodes land in the flight recorder's history.
      simulator_->fault_injector(d).BindMetrics(&telemetry_->registry());
      simulator_->fault_injector(d).BindFlightRecorder(flight_recorder_.get());
    }
    std::vector<DataCache*> cache_ptrs;
    std::vector<DeviceCircuitBreaker*> breaker_ptrs;
    for (int d = 0; d < devices; ++d) {
      cache_ptrs.push_back(caches_[static_cast<size_t>(d)].get());
      breaker_ptrs.push_back(breakers_[static_cast<size_t>(d)].get());
    }
    sharding_ = std::make_unique<DeviceShardingPolicy>(
        simulator_.get(), std::move(cache_ptrs), std::move(breaker_ptrs));
    brownout_ = std::make_unique<BrownoutController>(
        BrownoutController::Options(), devices, &telemetry_->registry(),
        flight_recorder_.get());
    watchdog_ = std::make_unique<StuckQueryWatchdog>(
        StuckQueryWatchdog::Options(), &telemetry_->registry(),
        flight_recorder_.get());
    // Degradation hooks: at L2+ cache misses stop demand-inserting, and the
    // placement layer skips devices the controller benched (all of them at
    // L3). Both gates are lock-free atomic reads on the controller.
    for (int d = 0; d < devices; ++d) {
      caches_[static_cast<size_t>(d)]->SetAdmissionGate(
          [this] { return brownout_->AllowCacheAdmission(); });
    }
    sharding_->SetDeviceGate(
        [this](int device) { return brownout_->DevicePlacementAllowed(device); });
  }

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  Simulator& simulator() { return *simulator_; }
  int device_count() const { return simulator_->device_count(); }
  DataCache& cache(int device = 0) {
    return *caches_[static_cast<size_t>(device)];
  }
  CostModel& cost_model() { return *cost_model_; }
  LoadTracker& load_tracker() { return *load_tracker_; }
  HypeScheduler& scheduler() { return *scheduler_; }
  Telemetry& telemetry() { return *telemetry_; }
  /// Abort-storm circuit breaker gating placement/execution on `device`.
  DeviceCircuitBreaker& breaker(int device = 0) {
    return *breakers_[static_cast<size_t>(device)];
  }
  /// Always-on ring buffer of recent query summaries and state transitions.
  FlightRecorder& flight_recorder() { return *flight_recorder_; }
  /// Live classifier of the paper's heap-contention / cache-thrashing modes
  /// on `device`.
  ThrashingDetector& detector(int device = 0) {
    return *detectors_[static_cast<size_t>(device)];
  }
  /// Column affinity, operator->device placement, and loss rebalancing.
  DeviceShardingPolicy& sharding() { return *sharding_; }
  /// Coordinated graceful-degradation ladder (DESIGN.md §13).
  BrownoutController& brownout() { return *brownout_; }
  /// Stuck-query backstop: progress-stall / deadline-multiple killer.
  StuckQueryWatchdog& watchdog() { return *watchdog_; }
  const DatabasePtr& database() const { return database_; }
  const SystemConfig& config() const { return simulator_->config(); }

  /// True while at least one device is live with a non-open breaker — the
  /// any-device generalization the run-time placers gate on.
  bool AnyDeviceAvailable() {
    for (int d = 0; d < device_count(); ++d) {
      if (sharding_->IsLive(d) && breakers_[static_cast<size_t>(d)]
              ->device_available()) {
        return true;
      }
    }
    return false;
  }

  /// True iff `key` is resident in any device's data cache (data-driven
  /// placement test, generalized over the sharded caches).
  bool IsCachedOnAnyDevice(const std::string& key) const {
    for (const auto& cache : caches_) {
      if (cache->IsCached(key)) return true;
    }
    return false;
  }

  /// Counts one run of the pipeline that reads `keys` (sorted, unique).
  /// A data-driven StrategyRunner records every pipeline it runs outside
  /// paper mode (placement/pipeline_cache.h).
  void RecordPipelineRun(std::vector<std::string> keys,
                         double run_value_micros) {
    std::lock_guard<std::mutex> lock(demands_mutex_);
    auto [it, inserted] = demands_.try_emplace(std::move(keys));
    if (inserted) it->second.keys = it->first;
    ++it->second.runs;
    it->second.run_value_micros = run_value_micros;
  }

  /// Every pipeline recorded so far, ordered by key set. Kept across
  /// ResetRunStats, like the columns' access counters Algorithm 1 reads.
  std::vector<PipelineDemand> PipelineDemands() const {
    std::lock_guard<std::mutex> lock(demands_mutex_);
    std::vector<PipelineDemand> demands;
    demands.reserve(demands_.size());
    for (const auto& [keys, demand] : demands_) demands.push_back(demand);
    return demands;
  }

  /// Feeds each device's thrashing detector — and the brownout controller —
  /// one observation window from the engine's cumulative counters. The
  /// executors call this once per finished query.
  void NoteQueryFinished() {
    const int devices = device_count();
    BrownoutSignals signals;
    signals.device_thrashing.resize(static_cast<size_t>(devices), false);
    int open_breakers = 0;
    for (int d = 0; d < devices; ++d) {
      const DataCacheStats cache_stats =
          caches_[static_cast<size_t>(d)]->stats();
      ThrashingDetector::Sample sample;
      sample.cache_hits = static_cast<int64_t>(cache_stats.hits);
      sample.cache_misses = static_cast<int64_t>(cache_stats.misses);
      sample.cache_evictions = static_cast<int64_t>(cache_stats.evictions);
      sample.gpu_aborts =
          static_cast<int64_t>(telemetry_->gpu_operator_aborts(d));
      // Successes + aborts = device launches attempted.
      sample.gpu_attempts =
          sample.gpu_aborts +
          static_cast<int64_t>(telemetry_->gpu_operators(d));
      sample.failed_allocations = static_cast<int64_t>(
          simulator_->device_heap(d).failed_allocations());
      sample.heap_used_bytes =
          static_cast<int64_t>(simulator_->device_heap(d).used());
      sample.heap_capacity_bytes =
          static_cast<int64_t>(simulator_->device_heap(d).capacity());
      const ThrashingDetector::State thrash =
          detectors_[static_cast<size_t>(d)]->Update(sample);

      signals.worst_thrash_state =
          std::max(signals.worst_thrash_state, static_cast<int>(thrash));
      signals.device_thrashing[static_cast<size_t>(d)] =
          thrash == ThrashingDetector::State::kThrashing;
      // device_available() (not state()) on purpose: the peek advances the
      // breaker's open-state cooldown, so a device the brownout pinned away
      // from all traffic (L3) still half-opens once its wall-clock floor
      // elapses — this sampling path is what keeps recovery live when no
      // placement ever consults the breaker.
      DeviceCircuitBreaker& breaker = *breakers_[static_cast<size_t>(d)];
      if (!breaker.device_available()) {
        ++open_breakers;
        signals.any_breaker_open = true;
      } else if (breaker.state() == DeviceCircuitBreaker::State::kHalfOpen) {
        signals.any_breaker_half_open = true;
      }
      if (sample.heap_capacity_bytes > 0) {
        signals.heap_pressure = std::max(
            signals.heap_pressure,
            static_cast<double>(sample.heap_used_bytes) /
                static_cast<double>(sample.heap_capacity_bytes));
      }
      signals.gpu_attempts += sample.gpu_attempts;
      signals.gpu_aborts += sample.gpu_aborts;
    }
    signals.all_breakers_open = open_breakers == devices;
    brownout_->Update(signals);
  }

  /// Clears all per-run statistics (buses, allocators, caches, metrics)
  /// while keeping cache contents and learned cost models.
  void ResetRunStats() {
    for (int d = 0; d < device_count(); ++d) {
      simulator_->bus(d).ResetStats();
      simulator_->device_heap(d).ResetStats();
      simulator_->fault_injector(d).ResetStats();
      caches_[static_cast<size_t>(d)]->ResetStats();
      detectors_[static_cast<size_t>(d)]->Reset();
    }
    simulator_->ResetD2DStats();
    telemetry_->Reset();
  }

 private:
  std::unique_ptr<Simulator> simulator_;
  std::vector<std::unique_ptr<DataCache>> caches_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<LoadTracker> load_tracker_;
  std::unique_ptr<HypeScheduler> scheduler_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<FlightRecorder> flight_recorder_;  // after telemetry_
  std::vector<std::unique_ptr<ThrashingDetector>> detectors_;  // after recorder
  std::vector<std::unique_ptr<DeviceCircuitBreaker>> breakers_;
  std::unique_ptr<DeviceShardingPolicy> sharding_;  // after caches/breakers
  /// After sharding_/caches_ (their gates point here) and after telemetry_/
  /// flight_recorder_ (metrics and dumps on transitions).
  std::unique_ptr<BrownoutController> brownout_;
  std::unique_ptr<StuckQueryWatchdog> watchdog_;  // joins its thread first
  DatabasePtr database_;
  mutable std::mutex demands_mutex_;  // guards demands_
  std::map<std::vector<std::string>, PipelineDemand> demands_;
};

}  // namespace hetdb

#endif  // HETDB_ENGINE_ENGINE_CONTEXT_H_
