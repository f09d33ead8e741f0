#include "server/server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "sql/planner.h"
#include "telemetry/telemetry.h"

namespace hetdb {

namespace {

int ResolveDispatchers(const ServerOptions& options) {
  if (options.dispatchers > 0) return options.dispatchers;
  return options.admission.max_concurrency;
}

std::function<GovernorSignals()> MakeEngineSignals(EngineContext* ctx) {
  return [ctx] {
    // Admission throttles on the worst device: one thrashing or tripped
    // device is enough reason to slow intake, even if its siblings are calm.
    // Both states are ordered by severity.
    GovernorSignals signals;
    for (int d = 0; d < ctx->device_count(); ++d) {
      signals.thrash = std::max(signals.thrash, ctx->detector(d).state());
      signals.breaker = std::max(signals.breaker, ctx->breaker(d).state());
    }
    signals.brownout_level = ctx->brownout().level_int();
    return signals;
  };
}

}  // namespace

Server::Server(EngineContext* ctx, ServerOptions options)
    : ctx_(ctx),
      options_(std::move(options)),
      runner_(ctx, options_.strategy),
      hedge_runner_(ctx, Strategy::kCpuOnly),
      admission_(options_.admission, &ctx->telemetry().registry(),
                 &ctx->flight_recorder(),
                 options_.governor_follows_engine ? MakeEngineSignals(ctx)
                                                  : nullptr) {
  // The brownout controller reads admission state (queue depth, shed rate)
  // as one of its escalation signals — the serving layer is where overload
  // becomes visible first.
  ctx_->brownout().SetAdmissionProbe([this] {
    BrownoutAdmissionProbe probe;
    probe.queued = static_cast<int>(admission_.queued());
    probe.in_flight = admission_.in_flight();
    probe.offered = admission_.offered();
    probe.shed = admission_.shed_total();
    return probe;
  });
  const int dispatchers = ResolveDispatchers(options_);
  dispatchers_.reserve(dispatchers);
  for (int i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

Server::~Server() { Shutdown(); }

void Server::RegisterTenant(const TenantSpec& spec) {
  admission_.RegisterTenant(spec);
}

SessionPtr Server::OpenSession(const std::string& tenant) {
  return SessionPtr(new Session(this, tenant));
}

std::future<Result<TablePtr>> Server::Submit(const std::string& tenant,
                                             PlanNodePtr plan,
                                             SubmitOptions options) {
  // Optimize before stats registration so per-node attribution (and the
  // plan the dispatcher executes) follow the rewritten shape.
  plan = runner_.Optimize(plan, options.stats.get());
  auto query = std::make_unique<QueuedQuery>();
  query->tenant = tenant;
  query->cost = options.cost;
  query->controls.cancel = options.cancel;
  query->controls.deadline = options.deadline;
  if (options.stats != nullptr) {
    query->controls.stats = std::move(options.stats);
    RegisterPlanNodes(query->controls.stats.get(), plan);
  } else {
    query->controls.stats = MakeQueryStats(plan);
  }
  QueryStats& stats = *query->controls.stats;
  if (stats.query_id() == 0) stats.set_query_id(Telemetry::NextQueryId());
  if (!options.name.empty()) stats.set_name(options.name);
  query->plan = std::move(plan);
  std::future<Result<TablePtr>> future = query->promise.get_future();
  admission_.Offer(std::move(query));
  return future;
}

void Server::DispatcherLoop() {
  for (;;) {
    QueuedQueryPtr query = admission_.Take();
    if (query == nullptr) return;
    const auto started = std::chrono::steady_clock::now();
    // Capture what hedging classification needs before RunQuery consumes
    // the controls.
    const CancelToken cancel = query->controls.cancel;
    const QueryStatsPtr stats = query->controls.stats;
    Result<TablePtr> result =
        runner_.RunQuery(query->plan, std::move(query->controls));
    if (!result.ok()) {
      // Hedge only engine-side deaths: a watchdog kill (fired through the
      // same cancel token a client would use — WasKilled disambiguates) or
      // a device-side abort that escaped the executor's own CPU fallback.
      // Client cancels stay cancelled; deadline misses stay missed (the
      // admission layer already classified them); shed queries never reach
      // this loop.
      const uint64_t query_id = stats != nullptr ? stats->query_id() : 0;
      const bool watchdog_killed = ctx_->watchdog().WasKilled(query_id);
      const bool client_cancel = !watchdog_killed && cancel.cancelled();
      const StatusCode code = result.status().code();
      const bool device_abort = code == StatusCode::kDeviceLost ||
                                code == StatusCode::kUnavailable ||
                                code == StatusCode::kAborted;
      if (!client_cancel && (watchdog_killed || device_abort)) {
        const std::string name =
            stats != nullptr ? stats->name() : std::string();
        result = HedgeReplay(query->plan, name, query_id,
                             watchdog_killed ? "watchdog_kill"
                                             : StatusCodeToString(code));
      }
    }
    const int64_t service_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    const bool ok = result.ok();
    query->promise.set_value(std::move(result));
    admission_.OnComplete(ok, service_micros);
  }
}

Result<TablePtr> Server::HedgeReplay(const PlanNodePtr& plan,
                                     const std::string& name,
                                     uint64_t query_id,
                                     const std::string& reason) {
  hedge_attempts_.fetch_add(1, std::memory_order_relaxed);
  ctx_->telemetry().registry().GetCounter("server.hedge_attempts").Increment();
  QueryControls controls;
  controls.stats = MakeQueryStats(plan);
  controls.stats->set_name(name.empty() ? "hedge" : name + ".hedge");
  if (options_.hedge_budget_ms > 0) {
    controls.deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(static_cast<int64_t>(
                            options_.hedge_budget_ms * 1000.0));
  }
  Result<TablePtr> replay = hedge_runner_.RunQuery(plan, std::move(controls));
  if (replay.ok()) {
    hedge_successes_.fetch_add(1, std::memory_order_relaxed);
    ctx_->telemetry()
        .registry()
        .GetCounter("server.hedge_successes")
        .Increment();
  }
  ctx_->flight_recorder().RecordStateTransition(
      "server.hedge", "q" + std::to_string(query_id) + ":" + reason,
      replay.ok() ? "success" : "failed:" + replay.status().ToString());
  return replay;
}

void Server::Shutdown() {
  // Drop the admission probe first: after Shutdown the controller must not
  // call back into a half-destroyed server.
  ctx_->brownout().SetAdmissionProbe(nullptr);
  admission_.Stop();
  for (std::thread& thread : dispatchers_) {
    if (thread.joinable()) thread.join();
  }
  dispatchers_.clear();
}

// --- Session --------------------------------------------------------------

std::future<Result<TablePtr>> Session::Submit(PlanNodePtr plan,
                                              SubmitOptions options) {
  return server_->Submit(tenant_, std::move(plan), std::move(options));
}

std::future<Result<TablePtr>> Session::SubmitSql(const std::string& sql,
                                                 SubmitOptions options) {
  Result<PlanNodePtr> plan = PlanSql(sql, *server_->ctx().database());
  if (!plan.ok()) {
    std::promise<Result<TablePtr>> failed;
    failed.set_value(plan.status());
    return failed.get_future();
  }
  return Submit(std::move(plan).value(), std::move(options));
}

Result<TablePtr> Session::Execute(PlanNodePtr plan, SubmitOptions options) {
  return Submit(std::move(plan), std::move(options)).get();
}

Result<TablePtr> Session::ExecuteSql(const std::string& sql,
                                     SubmitOptions options) {
  return SubmitSql(sql, std::move(options)).get();
}

}  // namespace hetdb
