// Interactive SQL shell over an SSB database — a client of the serving
// front-end: every statement goes through a Session into the admission
// controller (fair queueing, concurrency governor, SLO shedding) before the
// Data-Driven Chopping strategy executes it on the simulated co-processor.
//
//   ./build/examples/sql_shell            # interactive
//   echo "SELECT ..." | ./build/examples/sql_shell
//   ./build/examples/sql_shell --devices 2 --fusion=off
//
// Meta commands: \tables, \cache, \devices, \server, \deadline MS,
//                \trace SELECT ..., \flight [path], \quit
// Statements: SELECT ..., EXPLAIN SELECT ..., EXPLAIN ANALYZE SELECT ...

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stopwatch.h"
#include "server/line_protocol.h"
#include "server/server.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_recorder.h"

using namespace hetdb;

namespace {

void PrintValue(const Column& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt32:
      std::printf("%-18d", static_cast<const Int32Column&>(column).value(row));
      break;
    case DataType::kInt64:
      std::printf("%-18lld",
                  static_cast<long long>(
                      static_cast<const Int64Column&>(column).value(row)));
      break;
    case DataType::kDouble:
      std::printf("%-18.2f", static_cast<const DoubleColumn&>(column).value(row));
      break;
    case DataType::kString:
      std::printf("%-18s",
                  std::string(static_cast<const StringColumn&>(column).value(row))
                      .c_str());
      break;
  }
}

void PrintTable(const Table& table, size_t max_rows = 25) {
  for (const ColumnPtr& column : table.columns()) {
    std::printf("%-18s", column->name().c_str());
  }
  std::printf("\n");
  const size_t rows = std::min(max_rows, table.num_rows());
  for (size_t row = 0; row < rows; ++row) {
    for (const ColumnPtr& column : table.columns()) PrintValue(*column, row);
    std::printf("\n");
  }
  if (rows < table.num_rows()) {
    std::printf("... (%zu rows total)\n", table.num_rows());
  }
}

const std::string* FindArg(const TraceEvent& event, const char* key) {
  for (const auto& [name, value] : event.args) {
    if (name == key) return &value;
  }
  return nullptr;
}

/// EXPLAIN ANALYZE-style rendering of one query's operator spans: the plan
/// tree (reconstructed from node/parent ids) with the processor that ran
/// each operator and its wall duration, plus a transfer summary.
void PrintSpanTree(const std::vector<TraceEvent>& events) {
  // The operator spans of the most recent query in the snapshot.
  uint64_t query_id = 0;
  for (const TraceEvent& event : events) {
    if (std::string(event.category) == "operator") {
      query_id = std::max(query_id, event.query_id);
    }
  }
  std::vector<const TraceEvent*> operators;
  std::map<uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& event : events) {
    if (std::string(event.category) != "operator" ||
        event.query_id != query_id) {
      continue;
    }
    operators.push_back(&event);
    if (event.parent_id != 0) children[event.parent_id].push_back(&event);
  }
  if (operators.empty()) {
    std::printf("(no operator spans recorded)\n");
    return;
  }

  struct Printer {
    const std::map<uint64_t, std::vector<const TraceEvent*>>& children;
    void Print(const TraceEvent& event, int depth) const {
      const std::string* processor = FindArg(event, "processor");
      const std::string* retry = FindArg(event, "cpu_retry");
      std::printf("  %*s%-*s %-4s %8.2f ms%s\n", depth * 2, "",
                  std::max(2, 34 - depth * 2), event.name.c_str(),
                  processor != nullptr ? processor->c_str() : "?",
                  static_cast<double>(event.dur_micros) / 1000.0,
                  retry != nullptr ? "  [GPU abort -> CPU retry]" : "");
      auto it = children.find(event.node_id);
      if (it == children.end()) return;
      std::vector<const TraceEvent*> ordered = it->second;
      std::sort(ordered.begin(), ordered.end(),
                [](const TraceEvent* a, const TraceEvent* b) {
                  return a->ts_micros < b->ts_micros;
                });
      for (const TraceEvent* child : ordered) Print(*child, depth + 1);
    }
  };
  Printer printer{children};
  for (const TraceEvent* op : operators) {
    if (op->parent_id == 0) printer.Print(*op, 0);
  }

  int64_t transfer_micros = 0;
  int64_t queue_wait_micros = 0;
  int transfers = 0;
  for (const TraceEvent& event : events) {
    if (std::string(event.category) != "transfer") continue;
    ++transfers;
    transfer_micros += event.dur_micros;
    if (const std::string* wait = FindArg(event, "queue_wait_us")) {
      queue_wait_micros += std::atoll(wait->c_str());
    }
  }
  if (transfers > 0) {
    std::printf("  -- %d PCIe transfer(s), %.2f ms total (%.2f ms queuing)\n",
                transfers, static_cast<double>(transfer_micros) / 1000.0,
                static_cast<double>(queue_wait_micros) / 1000.0);
  }
}

/// Prints `message` and the usage line, then exits 2.
[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: sql_shell [--devices N] [--fusion=on|off]\n",
               message.c_str());
  std::exit(2);
}

/// Trims leading blanks (the argument of a meta command).
std::string Argument(const std::string& text) {
  const size_t start = text.find_first_not_of(" \t");
  return start == std::string::npos ? std::string() : text.substr(start);
}

}  // namespace

int main(int argc, char** argv) {
  SystemConfig config;
  config.device_memory_bytes = 16ull << 20;
  config.device_cache_bytes = 10ull << 20;
  config.time_scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    // Each flag takes a value, after '=' or as the next argument.
    std::string flag = argv[i];
    std::string value;
    if (const size_t equals = flag.find('='); equals != std::string::npos) {
      value = flag.substr(equals + 1);
      flag.resize(equals);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    const char* end = value.data() + value.size();
    if (flag == "--devices") {
      // At most 64: the width of the brownout controller's device mask.
      const auto [ptr, error] =
          std::from_chars(value.data(), end, config.device_count);
      if (error != std::errc() || ptr != end || config.device_count < 1 ||
          config.device_count > 64) {
        Usage("--devices '" + value + "' is not an integer in [1, 64]");
      }
    } else if (flag == "--fusion" && (value == "on" || value == "off")) {
      config.fusion = value == "on";
    } else {
      Usage("bad argument " + flag + " '" + value + "'");
    }
  }

  std::printf("HetDB SQL shell — generating SSB database (SF 1)...\n");
  SsbGeneratorOptions gen;
  gen.scale_factor = 1.0;
  DatabasePtr db = GenerateSsbDatabase(gen);
  EngineContext ctx(config, db);
  Server server(&ctx);  // Data-Driven Chopping behind admission control
  SessionPtr session = server.OpenSession("shell");

  std::printf(
      "Tables: lineorder, customer, supplier, part, date. Try:\n"
      "  SELECT d_year, sum(lo_revenue) AS revenue FROM lineorder, date\n"
      "  WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year;\n"
      "Statements: SELECT / EXPLAIN SELECT / EXPLAIN ANALYZE SELECT\n"
      "Meta: \\tables  \\cache  \\server  \\deadline MS\n"
      "      \\trace SELECT ...  \\flight [path]  \\quit\n\n");

  // Per-statement SLO budget (\deadline); 0 = none. Queries the admission
  // controller cannot serve in time are shed before touching the device.
  std::chrono::milliseconds deadline{0};
  auto submit_options = [&deadline] {
    SubmitOptions options;
    if (deadline.count() > 0) {
      options.deadline = std::chrono::steady_clock::now() + deadline;
    }
    return options;
  };

  std::string line;
  while (true) {
    std::printf("hetdb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\tables") {
      for (const TablePtr& table : db->tables()) {
        std::printf("  %s (%zu rows, %zu columns)\n", table->name().c_str(),
                    table->num_rows(), table->num_columns());
      }
      continue;
    }
    if (line == "\\server") {
      AdmissionController& admission = server.admission();
      std::printf(
          "  admission: limit=%d in_flight=%d queued=%zu\n"
          "  offered=%llu shed=%llu ewma_service=%.2fms\n"
          "  detector=%s breaker=%s\n",
          admission.concurrency_limit(), admission.in_flight(),
          admission.queued(),
          static_cast<unsigned long long>(admission.offered()),
          static_cast<unsigned long long>(admission.shed_total()),
          admission.ewma_service_micros() / 1000.0,
          ThrashingDetector::StateName(ctx.detector().state()),
          BreakerStateToString(ctx.breaker().state()));
      continue;
    }
    if (line.rfind("\\deadline", 0) == 0) {
      const std::optional<std::chrono::milliseconds> budget =
          ParseDeadline(Argument(line.substr(9)));
      if (!budget.has_value()) {
        std::printf("error: \\deadline takes whole milliseconds in [0, %lld];"
                    " deadline stays %lld ms\n",
                    static_cast<long long>(kMaxDeadlineMillis),
                    static_cast<long long>(deadline.count()));
        continue;
      }
      deadline = *budget;
      if (deadline.count() > 0) {
        std::printf("  deadline set to %lld ms\n",
                    static_cast<long long>(deadline.count()));
      } else {
        std::printf("  deadline cleared\n");
      }
      continue;
    }
    if (line == "\\cache") {
      std::printf("  device cache: %zu / %zu bytes\n", ctx.cache().used_bytes(),
                  ctx.cache().capacity_bytes());
      for (const std::string& key : ctx.cache().CachedKeys()) {
        std::printf("    %s\n", key.c_str());
      }
      continue;
    }
    if (line == "\\devices") {
      for (int d = 0; d < ctx.device_count(); ++d) {
        DeviceAllocator& heap = ctx.simulator().device_heap(d);
        std::printf(
            "  device %d: %s  heap %zu/%zu bytes  cache %zu/%zu bytes  "
            "breaker=%s detector=%s\n",
            d, ctx.sharding().IsLive(d) ? "live" : "LOST", heap.used(),
            heap.capacity(), ctx.cache(d).used_bytes(),
            ctx.cache(d).capacity_bytes(), BreakerStateToString(ctx.breaker(d).state()),
            ThrashingDetector::StateName(ctx.detector(d).state()));
      }
      continue;
    }
    if (line.rfind("\\flight", 0) == 0) {
      const std::string path = Argument(line.substr(7));
      const std::string jsonl =
          FlightRecorder::ToJsonl(ctx.flight_recorder().Snapshot());
      if (path.empty()) {
        std::printf("%s", jsonl.c_str());
        std::printf("  -- %lld record(s) in flight recorder\n",
                    static_cast<long long>(
                        ctx.flight_recorder().total_recorded()));
      } else if (ctx.flight_recorder().Dump(path)) {
        std::printf("flight recorder dumped to %s\n", path.c_str());
      } else {
        std::printf("error: cannot write %s\n", path.c_str());
      }
      continue;
    }
    if (line.rfind("\\trace", 0) == 0) {
      const std::string sql = line.substr(6);
      if (sql.find_first_not_of(" \t") == std::string::npos) {
        std::printf("usage: \\trace SELECT ...  (runs the statement and\n"
                    "prints the per-operator span tree with timings)\n");
        continue;
      }
      Result<PlanNodePtr> plan = PlanSql(sql, *db);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      TraceRecorder& recorder = TraceRecorder::Global();
      recorder.Clear();
      recorder.SetEnabled(true);
      Stopwatch watch;
      Result<TablePtr> result =
          session->Execute(plan.value(), submit_options());
      const double total_ms = watch.ElapsedMillis();
      recorder.SetEnabled(false);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      std::printf("operator trace (%.2f ms total):\n", total_ms);
      PrintSpanTree(recorder.Snapshot());
      continue;
    }

    Result<SqlStatement> parsed = ParseStatement(line);
    if (!parsed.ok()) {
      std::printf("error: %s\n", parsed.status().ToString().c_str());
      continue;
    }
    Result<PlanNodePtr> plan = PlanQuery(parsed.value().select, *db);
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      continue;
    }
    if (parsed.value().explain == ExplainMode::kPlan) {
      // The plan the server's runner executes for this statement.
      const PlanNodePtr optimized = server.runner().Optimize(plan.value());
      size_t fused_nodes = 0;
      VisitPlanPostOrder(optimized, [&fused_nodes](const PlanNodePtr& node) {
        if (node->op() == PlanOp::kFusedPipeline) ++fused_nodes;
      });
      std::printf("%s", RenderPlanTree(optimized).c_str());
      if (!ctx.config().fusion) {
        std::printf("-- fusion: off\n");
      } else {
        std::printf("-- fusion: %zu pipeline(s) fused\n", fused_nodes);
      }
      continue;
    }
    if (parsed.value().explain == ExplainMode::kAnalyze) {
      // Empty stats: the server registers the plan it runs.
      auto stats = std::make_shared<QueryStats>();
      stats->set_name(line);
      SubmitOptions options = submit_options();
      options.stats = stats;
      Result<TablePtr> result = session->Execute(plan.value(), options);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      std::printf("%s", stats->ToText().c_str());
      server.runner().RefreshDataPlacement();
      continue;
    }
    Stopwatch watch;
    Result<TablePtr> result = session->Execute(plan.value(), submit_options());
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintTable(*result.value());
    std::printf("(%.2f ms; refreshing data placement in background)\n",
                watch.ElapsedMillis());
    // Emulate the periodic Algorithm-1 job after each statement.
    server.runner().RefreshDataPlacement();
  }
  return 0;
}
