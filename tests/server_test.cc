#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/operator_executor.h"
#include "fault/fault_injector.h"
#include "server/admission.h"
#include "server/line_protocol.h"
#include "server/server.h"
#include "server/traffic.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "telemetry/query_stats.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

DatabasePtr SmallSsbDb() {
  SsbGeneratorOptions options;
  options.scale_factor = 0.1;  // 6,000 lineorder rows
  return GenerateSsbDatabase(options);
}

// --- AdmissionController unit tests (no engine) ----------------------------

QueuedQueryPtr MakeBareQuery(const std::string& tenant, double cost = 1.0) {
  auto query = std::make_unique<QueuedQuery>();
  query->tenant = tenant;
  query->cost = cost;
  query->controls.stats = std::make_shared<QueryStats>();
  return query;
}

TEST(AdmissionControllerTest, WdrrHonorsWeights) {
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.initial_concurrency = 1;
  AdmissionController admission(options);
  admission.RegisterTenant({"heavy", /*weight=*/3.0, 1024});
  admission.RegisterTenant({"light", /*weight=*/1.0, 1024});

  // Backlog both tenants before dispatching anything.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(admission.Offer(MakeBareQuery("heavy")));
    ASSERT_TRUE(admission.Offer(MakeBareQuery("light")));
  }

  // Drain one-at-a-time; over the first 8 dispatches the 3:1 weights must
  // show (WDRR quantization allows one query of slack).
  int heavy = 0, light = 0;
  std::vector<QueuedQueryPtr> taken;
  for (int i = 0; i < 8; ++i) {
    QueuedQueryPtr query = admission.Take();
    ASSERT_NE(query, nullptr);
    (query->tenant == "heavy" ? heavy : light)++;
    taken.push_back(std::move(query));
    admission.OnComplete(/*ok=*/true, /*service_micros=*/1000);
  }
  EXPECT_GE(heavy, 5) << "heavy=" << heavy << " light=" << light;
  EXPECT_GE(light, 1) << "weighted fairness must not starve the light tenant";

  admission.Stop();
  for (QueuedQueryPtr& query : taken) {
    query->promise.set_value(Status::Cancelled("test teardown"));
  }
}

TEST(AdmissionControllerTest, ShedsWhenTenantQueueFull) {
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.initial_concurrency = 1;
  AdmissionController admission(options);
  admission.RegisterTenant({"t", 1.0, /*max_queue=*/2});

  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));
  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));
  QueuedQueryPtr overflow = MakeBareQuery("t");
  QueryStatsPtr stats = overflow->controls.stats;
  std::future<Result<TablePtr>> future = overflow->promise.get_future();
  EXPECT_FALSE(admission.Offer(std::move(overflow)));

  const Result<TablePtr> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(result.status().message().rfind("shed: ", 0), 0u);
  EXPECT_TRUE(stats->shed());
  EXPECT_TRUE(stats->finished());
  EXPECT_FALSE(stats->ok());
  EXPECT_EQ(admission.shed_total(), 1u);
}

TEST(AdmissionControllerTest, ShedsUnmeetableDeadlineAtAdmission) {
  AdmissionOptions options;
  options.initial_service_micros = 50'000;  // EWMA bootstrap: 50ms/query
  AdmissionController admission(options);

  QueuedQueryPtr query = MakeBareQuery("t");
  query->controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  std::future<Result<TablePtr>> future = query->promise.get_future();
  EXPECT_FALSE(admission.Offer(std::move(query)));
  const Result<TablePtr> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());

  // A generous deadline is admitted.
  QueuedQueryPtr ok_query = MakeBareQuery("t");
  ok_query->controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  EXPECT_TRUE(admission.Offer(std::move(ok_query)));
  admission.Stop();
}

TEST(AdmissionControllerTest, EwmaFedOnlyBySuccessfulCompletions) {
  AdmissionOptions options;
  options.initial_service_micros = 1000.0;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));
  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));

  std::vector<QueuedQueryPtr> taken;
  taken.push_back(admission.Take());
  ASSERT_NE(taken.back(), nullptr);
  // A deadline-cancelled query reports service >= its whole budget; if that
  // sample fed the EWMA, the estimate could wedge above every arrival's
  // budget — and with everything shed, nothing completes to pull it back.
  admission.OnComplete(/*ok=*/false, /*service_micros=*/10'000'000);
  EXPECT_DOUBLE_EQ(admission.ewma_service_micros(), 1000.0);

  taken.push_back(admission.Take());
  ASSERT_NE(taken.back(), nullptr);
  admission.OnComplete(/*ok=*/true, /*service_micros=*/2000);
  EXPECT_GT(admission.ewma_service_micros(), 1000.0);

  admission.Stop();
  for (QueuedQueryPtr& query : taken) {
    query->promise.set_value(Status::Cancelled("test teardown"));
  }
}

TEST(AdmissionControllerTest, ShedEstimateUsesArrivingTenantsOwnQueue) {
  AdmissionOptions options;
  options.max_concurrency = 8;
  options.initial_concurrency = 8;
  options.initial_service_micros = 10'000;  // 10ms/query
  AdmissionController admission(options);
  admission.RegisterTenant({"bulk", 1.0, 1024});
  admission.RegisterTenant({"latency", 1.0, 1024});

  // No dispatcher runs, so bulk piles up a 32-deep backlog (no deadlines).
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(admission.Offer(MakeBareQuery("bulk")));
  }

  // A 40ms budget is meetable from latency's empty lane (one service time),
  // but not from behind bulk's own backlog. A global backlog estimate would
  // wrongly shed the latency tenant too — the starvation mode where
  // whichever tenant holds the backlog keeps every dispatch slot.
  QueuedQueryPtr fast = MakeBareQuery("latency");
  fast->controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
  EXPECT_TRUE(admission.Offer(std::move(fast)));

  QueuedQueryPtr slow = MakeBareQuery("bulk");
  slow->controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
  EXPECT_FALSE(admission.Offer(std::move(slow)));

  admission.Stop();
}

TEST(AdmissionControllerTest, ExpiredInQueueFlushedAsShedAtDispatch) {
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.initial_concurrency = 1;
  AdmissionController admission(options);

  QueuedQueryPtr doomed = MakeBareQuery("t");
  doomed->controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  QueryStatsPtr doomed_stats = doomed->controls.stats;
  std::future<Result<TablePtr>> doomed_future = doomed->promise.get_future();
  ASSERT_TRUE(admission.Offer(std::move(doomed)));
  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));  // live, no deadline

  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Take() must flush the expired head (shed, no slot, no deficit charge)
  // and hand out the live query behind it.
  QueuedQueryPtr got = admission.Take();
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(got->controls.has_deadline());

  const Result<TablePtr> result = doomed_future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_TRUE(doomed_stats->shed());

  admission.OnComplete(/*ok=*/true, /*service_micros=*/1000);
  admission.Stop();
  got->promise.set_value(Status::Cancelled("test teardown"));
}

TEST(AdmissionControllerTest, CancelledWhileQueuedIsCancelledNotShed) {
  AdmissionOptions options;
  AdmissionController admission(options);

  QueuedQueryPtr query = MakeBareQuery("t");
  CancelToken cancel = CancelToken::Create();
  query->controls.cancel = cancel;
  QueryStatsPtr stats = query->controls.stats;
  std::future<Result<TablePtr>> future = query->promise.get_future();
  ASSERT_TRUE(admission.Offer(std::move(query)));
  cancel.RequestCancel();

  // Take() must settle the cancelled query internally and keep blocking, so
  // probe it with a second, live query behind the cancelled one.
  ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));
  QueuedQueryPtr taken = admission.Take();
  ASSERT_NE(taken, nullptr);
  EXPECT_FALSE(taken->controls.cancel.cancelled());

  const Result<TablePtr> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_FALSE(stats->shed()) << "client cancellation is not load shedding";
  EXPECT_TRUE(stats->finished());

  admission.OnComplete(true, 1000);
  admission.Stop();
  taken->promise.set_value(Status::Cancelled("test teardown"));
}

TEST(AdmissionControllerTest, GovernorAimdFollowsInjectedSignals) {
  GovernorSignals signals;  // mutated by the test between completions
  AdmissionOptions options;
  options.min_concurrency = 1;
  options.max_concurrency = 8;
  options.initial_concurrency = 8;
  options.governor_period = 1;  // adjust on every completion
  AdmissionController admission(options, nullptr, nullptr,
                                [&signals] { return signals; });

  auto run_one = [&admission] {
    ASSERT_TRUE(admission.Offer(MakeBareQuery("t")));
    QueuedQueryPtr query = admission.Take();
    ASSERT_NE(query, nullptr);
    query->promise.set_value(Status::Cancelled("test"));
    admission.OnComplete(true, 1000);
  };

  // Thrashing halves: 8 -> 4 -> 2 -> 1 -> 1 (min-clamped).
  signals.thrash = ThrashingDetector::State::kThrashing;
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 4);
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 2);
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 1);
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 1);

  // Calm grows additively: 1 -> 2 -> 3.
  signals.thrash = ThrashingDetector::State::kCalm;
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 2);
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 3);

  // Pressure (and a half-open breaker) back off by one.
  signals.thrash = ThrashingDetector::State::kPressure;
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 2);
  signals.thrash = ThrashingDetector::State::kCalm;
  signals.breaker = DeviceCircuitBreaker::State::kHalfOpen;
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 1);

  // An open breaker halves even when the detector reads calm.
  signals.breaker = DeviceCircuitBreaker::State::kOpen;
  signals.thrash = ThrashingDetector::State::kCalm;
  for (int i = 0; i < 3; ++i) {
    signals.breaker = DeviceCircuitBreaker::State::kClosed;
    run_one();  // grow a bit first
  }
  EXPECT_EQ(admission.concurrency_limit(), 4);
  signals.breaker = DeviceCircuitBreaker::State::kOpen;
  run_one();
  EXPECT_EQ(admission.concurrency_limit(), 2);
}

TEST(AdmissionControllerTest, StopShedsBacklogAndWakesTakers) {
  AdmissionOptions options;
  AdmissionController admission(options);
  QueuedQueryPtr query = MakeBareQuery("t");
  std::future<Result<TablePtr>> future = query->promise.get_future();

  std::thread taker([&admission] {
    // First Take gets the queued query; settle and wait for shutdown.
    QueuedQueryPtr taken = admission.Take();
    if (taken != nullptr) {
      taken->promise.set_value(Status::Cancelled("test"));
      admission.OnComplete(true, 100);
      taken = admission.Take();
    }
    EXPECT_EQ(taken, nullptr);
  });
  ASSERT_TRUE(admission.Offer(std::move(query)));
  future.wait();
  admission.Stop();
  taker.join();

  // Offers after Stop are shed immediately.
  QueuedQueryPtr late = MakeBareQuery("t");
  std::future<Result<TablePtr>> late_future = late->promise.get_future();
  EXPECT_FALSE(admission.Offer(std::move(late)));
  EXPECT_TRUE(late_future.get().status().IsResourceExhausted());
}

// --- End-to-end server tests (engine + sessions) ---------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = SmallSsbDb();
    ctx_ = std::make_unique<EngineContext>(TestConfig(), db_);
  }

  DatabasePtr db_;
  std::unique_ptr<EngineContext> ctx_;
};

TEST_F(ServerTest, SessionMatchesDirectExecution) {
  constexpr const char* kSql =
      "SELECT d_year, sum(lo_revenue) AS revenue FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year";

  Server server(ctx_.get());
  SessionPtr session = server.OpenSession("parity");
  Result<TablePtr> served = session->ExecuteSql(kSql);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EngineContext direct_ctx(TestConfig(), db_);
  StrategyRunner direct(&direct_ctx, Strategy::kDataDrivenChopping);
  Result<PlanNodePtr> plan = PlanSql(kSql, *db_);
  ASSERT_TRUE(plan.ok());
  Result<TablePtr> expected = direct.RunQuery(plan.value());
  ASSERT_TRUE(expected.ok());

  EXPECT_TRUE(TablesEqual(*served.value(), *expected.value()));
}

TEST_F(ServerTest, ShedAtAdmissionTouchesNoDeviceResources) {
  ServerOptions options;
  options.admission.initial_service_micros = 1'000'000;  // 1s estimate
  Server server(ctx_.get(), options);
  SessionPtr session = server.OpenSession("slo");

  const uint64_t gpu_ops_before = ctx_->telemetry().gpu_operators();
  const uint64_t heap_allocs_before =
      ctx_->simulator().device_heap().failed_allocations();

  Result<PlanNodePtr> plan =
      PlanSql("SELECT sum(lo_revenue) AS r FROM lineorder", *db_);
  ASSERT_TRUE(plan.ok());
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  SubmitOptions submit;
  submit.stats = stats;
  // 1ms budget against a 1s estimate: unmeetable, must shed at admission.
  submit.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  Result<TablePtr> result = session->Execute(plan.value(), submit);

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(result.status().message().rfind("shed: ", 0), 0u);
  EXPECT_TRUE(stats->shed());
  EXPECT_TRUE(stats->finished());
  // Rejected before execution: no operator ran, no device activity, and all
  // node-level counters stayed untouched.
  EXPECT_EQ(ctx_->telemetry().gpu_operators(), gpu_ops_before);
  EXPECT_EQ(ctx_->simulator().device_heap().failed_allocations(),
            heap_allocs_before);
  for (const auto& node : stats->nodes()) {
    EXPECT_EQ(node->run_micros.load(), 0);
  }
  // The flight recorder kept the shed outcome for post-mortems.
  bool found_shed_record = false;
  for (const FlightRecord& record : ctx_->flight_recorder().Snapshot()) {
    for (const auto& [key, value] : record.fields) {
      if (key == "status" && value == "shed") found_shed_record = true;
    }
  }
  EXPECT_TRUE(found_shed_record);
}

TEST_F(ServerTest, QueuedQueryCancelledBeforeDispatchIsCancelled) {
  ServerOptions options;
  options.admission.max_concurrency = 1;
  options.admission.initial_concurrency = 1;
  options.dispatchers = 1;
  options.governor_follows_engine = false;
  Server server(ctx_.get(), options);
  SessionPtr session = server.OpenSession("cancel");

  Result<PlanNodePtr> plan =
      PlanSql("SELECT sum(lo_revenue) AS r FROM lineorder", *db_);
  ASSERT_TRUE(plan.ok());

  CancelToken cancel = CancelToken::Create();
  cancel.RequestCancel();  // dead on arrival: cancelled while queued
  SubmitOptions submit;
  submit.cancel = cancel;
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  submit.stats = stats;
  Result<TablePtr> result = session->Execute(plan.value(), submit);

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_FALSE(stats->shed());
  EXPECT_TRUE(stats->finished());
  for (const auto& node : stats->nodes()) {
    EXPECT_EQ(node->run_micros.load(), 0);
  }
}

// --- Hedged CPU replay ------------------------------------------------------

constexpr const char* kHedgeSql =
    "SELECT d_year, sum(lo_revenue) AS revenue FROM lineorder, date "
    "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year";

/// A GPU Only server whose device has demand-cached every column of
/// kHedgeSql, with every PCIe transfer failing transiently from then on: the
/// next run of the query moves no byte but its result copy-back, which
/// outlasts `kTransferRetryLimit` and fails the query engine-side.
class HedgeTest : public ::testing::Test {
 protected:
  void Start(SystemConfig config, double hedge_budget_ms) {
    db_ = SmallSsbDb();
    ctx_ = std::make_unique<EngineContext>(config, db_);
    ServerOptions options;
    options.strategy = Strategy::kGpuOnly;
    options.dispatchers = 1;
    options.governor_follows_engine = false;
    options.hedge_budget_ms = hedge_budget_ms;
    server_ = std::make_unique<Server>(ctx_.get(), options);
    session_ = server_->OpenSession("hedge");
    ASSERT_TRUE(session_->ExecuteSql(kHedgeSql).ok());  // warms the cache
    ctx_->simulator().fault_injector().SetSchedule(
        FaultSite::kTransfer, FaultSchedule::Always(FaultKind::kTransient));
  }

  DatabasePtr db_;
  std::unique_ptr<EngineContext> ctx_;
  std::unique_ptr<Server> server_;
  SessionPtr session_;
};

TEST_F(HedgeTest, EngineSideFailureIsReplayedOnTheCpu) {
  Start(TestConfig(), /*hedge_budget_ms=*/5000);
  Result<TablePtr> result = session_->ExecuteSql(kHedgeSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The copy-back was the only transfer, and every attempt of it failed.
  EXPECT_EQ(ctx_->simulator().fault_injector().faults_injected(
                FaultSite::kTransfer, FaultKind::kTransient),
            static_cast<uint64_t>(1 + kTransferRetryLimit));
  EXPECT_EQ(server_->hedge_attempts(), 1u);
  EXPECT_EQ(server_->hedge_successes(), 1u);

  EngineContext reference_ctx(TestConfig(), db_);
  StrategyRunner reference(&reference_ctx, Strategy::kCpuOnly);
  Result<PlanNodePtr> plan = PlanSql(kHedgeSql, *db_);
  ASSERT_TRUE(plan.ok());
  Result<TablePtr> expected = reference.RunQuery(plan.value());
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(TablesEqual(*expected.value(), *result.value()));
}

TEST_F(HedgeTest, ClientCancelIsNotReplayed) {
  // Modeled time x20 keeps the query running for milliseconds after its
  // first operator, so the cancel lands mid-query.
  SystemConfig config = TestConfig();
  config.simulate_time = true;
  config.time_scale = 20.0;
  Start(config, /*hedge_budget_ms=*/5000);
  SubmitOptions submit;
  submit.cancel = CancelToken::Create();
  submit.stats = std::make_shared<QueryStats>();
  std::future<Result<TablePtr>> future =
      session_->SubmitSql(kHedgeSql, submit);
  while (submit.stats->operators_run() == 0 &&
         future.wait_for(std::chrono::microseconds(100)) !=
             std::future_status::ready) {
  }
  submit.cancel.RequestCancel();
  Result<TablePtr> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(server_->hedge_attempts(), 0u);
}

TEST_F(HedgeTest, ReplayPastItsBudgetIsCancelled) {
  // Modeled time x20 makes the CPU replay take far longer than 2 ms; it
  // must stop at an operator boundary once its budget is spent.
  SystemConfig config = TestConfig();
  config.simulate_time = true;
  config.time_scale = 20.0;
  Start(config, /*hedge_budget_ms=*/2);
  Result<TablePtr> result = session_->ExecuteSql(kHedgeSql);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(server_->hedge_attempts(), 1u);
  EXPECT_EQ(server_->hedge_successes(), 0u);
}

TEST_F(ServerTest, ConcurrentSessionsAllComplete) {
  Server server(ctx_.get());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &ok_count, t] {
      SessionPtr session =
          server.OpenSession("tenant-" + std::to_string(t % 2));
      for (int i = 0; i < kPerThread; ++i) {
        Result<TablePtr> result = session->ExecuteSql(
            "SELECT count(lo_revenue) AS n FROM lineorder");
        if (result.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
}

TEST_F(ServerTest, TrafficDriverClosedLoopCompletesQueries) {
  Server server(ctx_.get());
  TenantTraffic tenant;
  tenant.name = "closed";
  tenant.sessions = 2;
  tenant.think_time_ms = 1;
  tenant.mix = {{"count", [](const Database& db) -> Result<PlanNodePtr> {
                   return PlanSql(
                       "SELECT count(lo_revenue) AS n FROM lineorder", db);
                 }}};
  TrafficOptions options;
  options.mode = TrafficOptions::Mode::kClosedLoop;
  options.duration_s = 0.5;
  const TrafficResult result = RunTraffic(server, {tenant}, options);
  EXPECT_GT(result.offered, 0u);
  EXPECT_EQ(result.completed, result.offered);
  EXPECT_EQ(result.shed, 0u);
  ASSERT_EQ(result.tenants.size(), 1u);
  EXPECT_GT(result.tenants[0].p50_ms, 0.0);
  EXPECT_FALSE(result.ToJson().empty());
}

TEST_F(ServerTest, TrafficDriverFusionFollowsTheContext) {
  // Both traffic loops submit the raw plan: the server's runner alone
  // decides fusion, from the context it serves.
  TenantTraffic tenant;
  tenant.name = "fusion";
  tenant.arrival_qps = 50;
  tenant.sessions = 1;
  tenant.mix = {{"by_year", [](const Database& db) {
                   return PlanSql(
                       "SELECT d_year, sum(lo_revenue) AS revenue FROM "
                       "lineorder, date WHERE lo_orderdate = d_datekey "
                       "GROUP BY d_year",
                       db);
                 }}};
  Counter& pipelines =
      GlobalKernelMetrics().GetCounter("kernel.fused_pipeline.invocations");
  for (const bool fusion : {false, true}) {
    for (const auto mode : {TrafficOptions::Mode::kOpenLoop,
                            TrafficOptions::Mode::kClosedLoop}) {
      SystemConfig config = TestConfig();
      config.fusion = fusion;
      EngineContext ctx(config, db_);
      Server server(&ctx);
      TrafficOptions options;
      options.mode = mode;
      options.duration_s = 0.2;
      const int64_t before = pipelines.value();
      EXPECT_GT(RunTraffic(server, {tenant}, options).completed, 0u);
      EXPECT_EQ(pipelines.value() > before, fusion)
          << "mode " << static_cast<int>(mode);
    }
  }
}

/// One socketpair connection served by `front_door.Serve` on its own thread;
/// the test speaks the client side line by line.
class LineProtocolClient {
 public:
  explicit LineProtocolClient(LineProtocolServer* front_door) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    fd_ = fds[1];
    serving_ = std::thread([front_door, server_fd = fds[0]] {
      front_door->Serve(server_fd);
    });
  }
  /// Closing the client end ends Serve's read loop if BYE was not sent.
  ~LineProtocolClient() {
    ::close(fd_);
    serving_.join();
  }
  LineProtocolClient(const LineProtocolClient&) = delete;
  LineProtocolClient& operator=(const LineProtocolClient&) = delete;

  int fd() const { return fd_; }

  /// The next line without its '\n', or "" at EOF.
  std::string ReadLine() {
    for (;;) {
      const size_t newline = buffered_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffered_.substr(0, newline);
        buffered_.erase(0, newline + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffered_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Send(const std::string& line) {
    ASSERT_EQ(::write(fd_, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
  }

  /// True iff the server closed the connection with nothing left to read.
  bool AtEof() {
    char byte = 0;
    return buffered_.empty() && ::read(fd_, &byte, 1) == 0;
  }

 private:
  int fd_ = -1;
  std::string buffered_;
  std::thread serving_;
};

TEST_F(ServerTest, LineProtocolOverSocketpair) {
  Server server(ctx_.get());
  LineProtocolServer front_door(&server);
  LineProtocolClient client(&front_door);

  EXPECT_EQ(client.ReadLine(), "HETDB 1 ready");

  client.Send("HELLO tenant-x\n");
  EXPECT_EQ(client.ReadLine(), "OK tenant tenant-x");

  client.Send("QUERY SELECT count(lo_revenue) AS n FROM lineorder\n");
  const std::string header = client.ReadLine();
  ASSERT_EQ(header.rfind("ROWS 1 1 1 ", 0), 0u) << header;
  const std::string row = client.ReadLine();
  EXPECT_FALSE(row.empty());
  EXPECT_EQ(client.ReadLine(), "DONE");

  client.Send("QUERY SELECT nonsense FROM nowhere\n");
  const std::string error = client.ReadLine();
  EXPECT_EQ(error.rfind("ERR ", 0), 0u) << error;

  // A literal beyond int64_t is an error reply, not the end of the server:
  // the next query on the same connection still runs.
  client.Send("QUERY SELECT count(lo_revenue) AS n FROM lineorder "
              "WHERE lo_quantity < 99999999999999999999\n");
  const std::string range_error = client.ReadLine();
  EXPECT_EQ(range_error.rfind("ERR InvalidArgument ", 0), 0u) << range_error;
  client.Send("QUERY SELECT count(lo_revenue) AS n FROM lineorder "
              "WHERE lo_quantity < 25\n");
  const std::string after = client.ReadLine();
  ASSERT_EQ(after.rfind("ROWS 1 1 1 ", 0), 0u) << after;
  EXPECT_FALSE(client.ReadLine().empty());
  EXPECT_EQ(client.ReadLine(), "DONE");

  // Statements that compute on a string column, or probe a join with one,
  // are typed errors, not the end of the server; COUNT of a string column
  // counts rows.
  for (const char* sql :
       {"SELECT sum(lo_shipmode) AS s FROM lineorder",
        "SELECT min(lo_shipmode) AS s FROM lineorder",
        "SELECT sum(lo_shipmode * 2) AS s FROM lineorder",
        "SELECT count(*) AS n FROM lineorder, date "
        "WHERE lo_shipmode = d_datekey"}) {
    client.Send(std::string("QUERY ") + sql + "\n");
    const std::string reply = client.ReadLine();
    EXPECT_EQ(reply.rfind("ERR InvalidArgument ", 0), 0u)
        << sql << ": " << reply;
  }
  client.Send("QUERY SELECT count(lo_shipmode) AS n FROM lineorder\n");
  const std::string counted = client.ReadLine();
  ASSERT_EQ(counted.rfind("ROWS 1 1 1 ", 0), 0u) << counted;
  EXPECT_EQ(client.ReadLine(),
            std::to_string(db_->GetTable("lineorder").value()->num_rows()));
  EXPECT_EQ(client.ReadLine(), "DONE");
  client.Send("QUERY SELECT count(lo_revenue) AS n FROM lineorder\n");
  const std::string still = client.ReadLine();
  ASSERT_EQ(still.rfind("ROWS 1 1 1 ", 0), 0u) << still;
  EXPECT_FALSE(client.ReadLine().empty());
  EXPECT_EQ(client.ReadLine(), "DONE");

  client.Send("BYE\n");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServerTest, LineProtocolRejectsBadDeadlines) {
  Server server(ctx_.get());
  LineProtocolServer front_door(&server);
  LineProtocolClient client(&front_door);
  EXPECT_EQ(client.ReadLine(), "HETDB 1 ready");

  client.Send("DEADLINE 250\n");
  EXPECT_EQ(client.ReadLine(), "OK deadline 250ms");
  // Non-numeric, negative and beyond-int64 budgets are refused and the
  // previous budget stays in force.
  for (const char* bad : {"abc", "-5", "99999999999999999999", "12ms", ""}) {
    client.Send(std::string("DEADLINE ") + bad + "\n");
    const std::string reply = client.ReadLine();
    EXPECT_EQ(reply.rfind("ERR InvalidArgument ", 0), 0u)
        << bad << ": " << reply;
    EXPECT_NE(reply.find("deadline stays 250ms"), std::string::npos)
        << bad << ": " << reply;
  }
  client.Send("DEADLINE 0\n");
  EXPECT_EQ(client.ReadLine(), "OK deadline 0ms");
  client.Send("DEADLINE abc\n");
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("deadline stays 0ms"), std::string::npos) << reply;

  // The connection still serves queries afterwards.
  client.Send("QUERY SELECT count(lo_revenue) AS n FROM lineorder\n");
  const std::string header = client.ReadLine();
  ASSERT_EQ(header.rfind("ROWS 1 1 1 ", 0), 0u) << header;
}

TEST_F(ServerTest, LineProtocolClosesOnOverlongLine) {
  Server server(ctx_.get());
  LineProtocolServer front_door(&server);
  LineProtocolClient client(&front_door);
  EXPECT_EQ(client.ReadLine(), "HETDB 1 ready");

  // One byte over the cap and no newline; MSG_NOSIGNAL keeps a closed peer
  // from raising SIGPIPE in the test process.
  std::thread writer([fd = client.fd()] {
    const std::string line(LineProtocolServer::kMaxLineBytes + 1, 'x');
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  });
  EXPECT_EQ(client.ReadLine(),
            "ERR InvalidArgument line longer than " +
                std::to_string(LineProtocolServer::kMaxLineBytes) + " bytes");
  EXPECT_TRUE(client.AtEof());
  writer.join();
}

TEST_F(ServerTest, LineProtocolOverTcp) {
  Server server(ctx_.get());
  LineProtocolServer front_door(&server);
  Result<uint16_t> port = front_door.Listen(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  EXPECT_GT(port.value(), 0);
  // Lifecycle check: stop with no connections must not hang or leak.
  front_door.Stop();
}

}  // namespace
}  // namespace hetdb
