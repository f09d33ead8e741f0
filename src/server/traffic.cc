#include "server/traffic.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/histogram.h"
#include "workload/user_sim.h"

namespace hetdb {

namespace {

constexpr const char* kShedPrefix = "shed: ";

bool IsShed(const Status& status) {
  return status.IsResourceExhausted() &&
         status.message().rfind(kShedPrefix, 0) == 0;
}

/// Outcome accumulator one tenant's submitters record into (lock-free).
struct TenantAccum {
  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> missed{0};
  std::atomic<uint64_t> failed{0};
  Histogram latency_micros;

  void RecordOutcome(const Result<TablePtr>& result,
                     const QueryStatsPtr& stats) {
    if (result.ok()) {
      completed.fetch_add(1, std::memory_order_relaxed);
      latency_micros.Record(stats->wall_micros());
    } else if (IsShed(result.status())) {
      shed.fetch_add(1, std::memory_order_relaxed);
    } else if (result.status().IsCancelled()) {
      missed.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

/// One submitted-but-unharvested open-loop query.
struct Pending {
  std::future<Result<TablePtr>> future;
  QueryStatsPtr stats;
};

SubmitOptions MakeSubmitOptions(const TenantTraffic& tenant,
                                const NamedQuery& query,
                                QueryStatsPtr stats) {
  SubmitOptions options;
  options.stats = std::move(stats);
  options.name = query.name;
  if (tenant.deadline_ms > 0) {
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(static_cast<int64_t>(
                           tenant.deadline_ms * 1000.0));
  }
  return options;
}

/// Open loop: arrivals follow a Poisson process at tenant.arrival_qps,
/// independent of completions — a slow server just accumulates backlog
/// (which is exactly what admission control is there to absorb).
void RunOpenLoopTenant(Server& server, const TenantTraffic& tenant,
                       const TrafficOptions& options, uint64_t seed,
                       TenantAccum& accum) {
  if (tenant.arrival_qps <= 0 || tenant.mix.empty()) return;
  const Database& db = *server.ctx().database();
  SessionPtr session = server.OpenSession(tenant.name);
  Rng rng(seed);
  std::vector<Pending> pending;
  const auto start = std::chrono::steady_clock::now();
  const auto end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(options.duration_s * 1e6));
  auto next_arrival = start;
  for (;;) {
    const double mean_gap_us = 1e6 / tenant.arrival_qps;
    const double u = std::max(rng.NextDouble(), 1e-12);
    next_arrival += std::chrono::microseconds(
        static_cast<int64_t>(-mean_gap_us * std::log(u)));
    if (next_arrival >= end) break;
    std::this_thread::sleep_until(next_arrival);

    const NamedQuery& query =
        tenant.mix[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(tenant.mix.size()) - 1))];
    Result<PlanNodePtr> plan = query.builder(db);
    if (!plan.ok()) {
      accum.offered.fetch_add(1, std::memory_order_relaxed);
      accum.failed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Empty stats: Server::Submit registers the plan it optimizes.
    auto stats = std::make_shared<QueryStats>();
    accum.offered.fetch_add(1, std::memory_order_relaxed);
    Pending p;
    p.stats = stats;
    p.future = session->Submit(std::move(plan).value(),
                               MakeSubmitOptions(tenant, query, stats));
    pending.push_back(std::move(p));
  }
  // Drain: everything offered resolves — completed, shed, missed, or failed.
  for (Pending& p : pending) {
    accum.RecordOutcome(p.future.get(), p.stats);
  }
}

/// Closed loop: `sessions` users per tenant, each waiting for its own query
/// before thinking and issuing the next (the paper's Section 6 protocol,
/// driven through the serving layer).
void RunClosedLoopTenant(Server& server, const TenantTraffic& tenant,
                         const TrafficOptions& options, uint64_t seed,
                         TenantAccum& accum) {
  if (tenant.sessions <= 0 || tenant.mix.empty()) return;
  const Database& db = *server.ctx().database();
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<int64_t>(options.duration_s * 1e6));

  UserLoopOptions loop;
  loop.num_users = tenant.sessions;
  loop.think_time_ms = tenant.think_time_ms;
  loop.seed = seed;
  RunUserLoops(loop, [&](int /*user*/, Rng& rng) {
    if (std::chrono::steady_clock::now() >= end) return false;
    SessionPtr session = server.OpenSession(tenant.name);
    const NamedQuery& query =
        tenant.mix[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(tenant.mix.size()) - 1))];
    Result<PlanNodePtr> plan = query.builder(db);
    if (!plan.ok()) {
      accum.offered.fetch_add(1, std::memory_order_relaxed);
      accum.failed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    auto stats = std::make_shared<QueryStats>();
    accum.offered.fetch_add(1, std::memory_order_relaxed);
    Result<TablePtr> result = session->Execute(
        std::move(plan).value(), MakeSubmitOptions(tenant, query, stats));
    accum.RecordOutcome(result, stats);
    return true;
  });
}

double JainFairness(const std::vector<double>& values) {
  double sum = 0, sum_sq = 0;
  size_t n = 0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
    n++;
  }
  if (n == 0 || sum_sq == 0) return 0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

}  // namespace

TrafficResult RunTraffic(Server& server,
                         const std::vector<TenantTraffic>& tenants,
                         const TrafficOptions& options) {
  for (const TenantTraffic& tenant : tenants) {
    TenantSpec spec;
    spec.name = tenant.name;
    spec.weight = tenant.weight;
    spec.max_queue = tenant.max_queue;
    server.RegisterTenant(spec);
  }

  std::vector<TenantAccum> accums(tenants.size());
  std::vector<std::thread> drivers;
  drivers.reserve(tenants.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < tenants.size(); ++i) {
    // Decorrelate tenant streams; RunUserLoops further offsets per user.
    const uint64_t seed = options.seed + 1000003 * (i + 1);
    drivers.emplace_back([&, i, seed] {
      if (options.mode == TrafficOptions::Mode::kOpenLoop) {
        RunOpenLoopTenant(server, tenants[i], options, seed, accums[i]);
      } else {
        RunClosedLoopTenant(server, tenants[i], options, seed, accums[i]);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TrafficResult result;
  result.duration_s = elapsed_s;
  std::vector<double> goodputs;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantAccum& accum = accums[i];
    TenantTrafficResult tr;
    tr.tenant = tenants[i].name;
    tr.offered = accum.offered.load();
    tr.completed = accum.completed.load();
    tr.shed = accum.shed.load();
    tr.missed = accum.missed.load();
    tr.failed = accum.failed.load();
    tr.goodput_qps = elapsed_s > 0 ? tr.completed / elapsed_s : 0;
    const HistogramSnapshot snap = accum.latency_micros.Snapshot();
    if (snap.count > 0) {
      tr.mean_ms = snap.mean / 1000.0;
      tr.p50_ms = static_cast<double>(snap.p50) / 1000.0;
      tr.p95_ms = static_cast<double>(snap.p95) / 1000.0;
      tr.p99_ms = static_cast<double>(snap.p99) / 1000.0;
      tr.max_ms = static_cast<double>(snap.max) / 1000.0;
    }
    result.offered += tr.offered;
    result.completed += tr.completed;
    result.shed += tr.shed;
    result.missed += tr.missed;
    result.failed += tr.failed;
    goodputs.push_back(tr.goodput_qps);
    result.tenants.push_back(std::move(tr));
  }
  result.shed_rate =
      result.offered > 0
          ? static_cast<double>(result.shed) / result.offered
          : 0;
  result.goodput_qps = elapsed_s > 0 ? result.completed / elapsed_s : 0;
  result.fairness = JainFairness(goodputs);
  return result;
}

std::string TrafficResult::ToString() const {
  std::ostringstream os;
  os << "duration=" << duration_s << "s offered=" << offered
     << " completed=" << completed << " shed=" << shed << " missed=" << missed
     << " failed=" << failed << " goodput=" << goodput_qps
     << "qps shed_rate=" << shed_rate << " fairness=" << fairness;
  for (const TenantTrafficResult& tr : tenants) {
    os << "\n  " << tr.tenant << ": offered=" << tr.offered
       << " completed=" << tr.completed << " shed=" << tr.shed
       << " missed=" << tr.missed << " failed=" << tr.failed
       << " goodput=" << tr.goodput_qps << "qps p50=" << tr.p50_ms
       << "ms p95=" << tr.p95_ms << "ms p99=" << tr.p99_ms << "ms";
  }
  return os.str();
}

std::string TrafficResult::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"duration_s\": " << duration_s << ",\n";
  os << "  \"offered\": " << offered << ",\n";
  os << "  \"completed\": " << completed << ",\n";
  os << "  \"shed\": " << shed << ",\n";
  os << "  \"missed\": " << missed << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"shed_rate\": " << shed_rate << ",\n";
  os << "  \"goodput_qps\": " << goodput_qps << ",\n";
  os << "  \"fairness\": " << fairness << ",\n";
  os << "  \"tenants\": [\n";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantTrafficResult& tr = tenants[i];
    os << "    {\"tenant\": \"" << tr.tenant << "\", \"offered\": "
       << tr.offered << ", \"completed\": " << tr.completed
       << ", \"shed\": " << tr.shed << ", \"missed\": " << tr.missed
       << ", \"failed\": " << tr.failed << ", \"goodput_qps\": "
       << tr.goodput_qps << ", \"mean_ms\": " << tr.mean_ms
       << ", \"p50_ms\": " << tr.p50_ms << ", \"p95_ms\": " << tr.p95_ms
       << ", \"p99_ms\": " << tr.p99_ms << ", \"max_ms\": " << tr.max_ms
       << "}" << (i + 1 < tenants.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace hetdb
