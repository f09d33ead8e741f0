#ifndef HETDB_COMMON_CONFIG_H_
#define HETDB_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace hetdb {

/// Modeled processing throughput (MB/s of input consumed) per operator class.
///
/// These constants calibrate the co-processor simulator. Only the *ratios*
/// between CPU throughput, device throughput, and PCIe bandwidth matter for
/// reproducing the paper's effects; see DESIGN.md §2 ("Substitutions").
/// Defaults put the device at 3–5x the CPU (the paper observes 2.5–5x hot)
/// and the bus well below CPU scan speed, so a cold-cache device run loses
/// by about 3x (paper Figure 1).
struct ThroughputTable {
  double scan_mbps = 400.0;        ///< selections, scans, filters
  double join_mbps = 150.0;        ///< hash joins (build+probe)
  double aggregate_mbps = 300.0;   ///< group-by aggregation
  double sort_mbps = 200.0;        ///< sorting / order-by
  double project_mbps = 500.0;     ///< arithmetic projections
  double materialize_mbps = 800.0; ///< gather/copy-style operators
};

/// Full engine configuration: host processor, simulated co-processor, and
/// PCIe interconnect. All sizes in bytes, all rates in MB/s.
///
/// The default database scale is 1/100 of the paper's (see DESIGN.md), and
/// all capacities below are scaled accordingly: the paper's 4 GB GTX 770
/// becomes a 40 MB simulated device.
struct SystemConfig {
  // --- Host CPU ------------------------------------------------------------
  /// Number of CPU cores (the paper's machine has 4), served shortest
  /// remaining work first by the simulator's CPU scheduler. In chopping mode
  /// this is also the CPU thread-pool size.
  int cpu_workers = 4;
  ThroughputTable cpu_throughput = {};  // defaults above

  // --- Simulated co-processor ----------------------------------------------
  /// Total device memory. Split into data cache (`device_cache_bytes`) and
  /// heap (the remainder), mirroring Section 2.1 of the paper.
  size_t device_memory_bytes = 40ull << 20;
  /// Portion of device memory reserved as the column data cache. The heap
  /// available to operators is device_memory_bytes - device_cache_bytes.
  size_t device_cache_bytes = 16ull << 20;
  /// Device worker slots used by the chopping executor *per device*; this is
  /// the upper bound on concurrently running operators on one device
  /// (Section 5.2).
  int gpu_workers = 1;
  /// Number of simulated co-processors. Each device gets its own heap
  /// allocator of `device_heap_bytes()`, data cache of `device_cache_bytes`,
  /// PCIe link, fault injector, circuit breaker, and thrashing detector —
  /// the scale-out generalization of the paper's single-GPU machine
  /// (DESIGN.md §12). The default reproduces the paper exactly.
  int device_count = 1;
  /// Device kernels run at ~2.5x the throughput of the *entire* 4-worker CPU
  /// (i.e. ~10x one core) — the hot-cache speedup the paper observes in
  /// Figure 1 and consistent with He et al. This keeps the device clearly
  /// ahead of the host, so losing device execution to aborts is genuinely
  /// expensive — the regime of the paper's heap-contention results.
  ThroughputTable gpu_throughput = {
      /*scan_mbps=*/4000.0,      /*join_mbps=*/1500.0,
      /*aggregate_mbps=*/3000.0, /*sort_mbps=*/2000.0,
      /*project_mbps=*/5000.0,   /*materialize_mbps=*/8000.0};

  // --- PCIe interconnect ---------------------------------------------------
  /// Modeled PCIe bandwidth. Every transfer is modeled as asynchronous
  /// (page-locked, streamed; Section 2.5.3), and transfers serialize on the
  /// bus. Well below CPU scan speed, as in the paper's machine (PCIe ~8 GB/s
  /// vs tens of GB/s memory bandwidth): a cold-cache device run loses to the
  /// CPU (Figure 1).
  double pcie_mbps = 100.0;
  /// Bandwidth of the dedicated device-to-device interconnect (NVLink-style)
  /// between any pair of devices. 0 disables it: device-to-device traffic
  /// then routes through the host, paying D2H on the source device's PCIe
  /// link followed by H2D on the destination's (DESIGN.md §12).
  double d2d_mbps = 0.0;

  // --- Fault tolerance -----------------------------------------------------
  // The retry limits (engine/operator_executor.h) and the jittered retry
  // backoff (Simulator::RetryBackoffMicros) are constants.

  // --- Simulation control --------------------------------------------------
  /// If false, the simulator performs all bookkeeping (allocations, byte
  /// counters, abort behaviour) but does not sleep for modeled durations.
  /// Unit tests run with this off; benchmarks run with it on.
  bool simulate_time = true;
  /// Scales every modeled duration; <1 makes benchmarks proportionally
  /// faster without changing any ratio.
  double time_scale = 1.0;

  /// Store base columns bit-packed (frame-of-reference) in the device data
  /// cache: cache entries and their transfers shrink to the columns' real
  /// compressed sizes. Models the paper's Section 6.3 observation that
  /// compression shifts the scale factor where performance breaks down
  /// (it does not remove either robustness problem).
  bool compress_device_cache = false;

  // --- Plan rewrite --------------------------------------------------------
  /// Pipeline fusion: the runner groups fusable filter -> join-probe ->
  /// aggregate/project chains into FusedPipeline nodes that evaluate the
  /// whole chain per morsel without materializing intermediates (DESIGN.md
  /// §11). Results are bit-identical either way. Off reproduces the paper's
  /// operator-at-a-time materialization, whose intermediates are what
  /// contend for the device heap (Figures 3, 12, 13).
  bool fusion = true;

  // --- Execution model -----------------------------------------------------
  /// The paper's heap handling (Section 2.5.1): a device operator allocates
  /// its heap buffers phase by phase as it runs and aborts, to restart on
  /// the CPU, when one does not fit. Figures 3, 13, 17 and 20 measure that
  /// waste; `PaperConfig` (bench/bench_util.h) sets this for every figure
  /// and serve_slo. Off, a device attempt first reserves every byte it
  /// already knows it needs (inputs, transient columns, intermediates), and
  /// an operator whose reservation the free heap cannot hold runs on the
  /// CPU before it moves a byte (a heap decline, DESIGN.md §5). For want of
  /// heap only the result buffer, sized after the kernel, can still abort.
  bool paper_mode = false;

  size_t device_heap_bytes() const {
    return device_memory_bytes > device_cache_bytes
               ? device_memory_bytes - device_cache_bytes
               : 0;
  }
};

}  // namespace hetdb

#endif  // HETDB_COMMON_CONFIG_H_
