// SLO-driven serving benchmark: drives multi-tenant traffic through the
// admission-controlled serving front-end and reports tail latency, goodput,
// shed rate, and cross-tenant fairness as offered load sweeps past capacity.
//
// The point under test is *graceful degradation*: past saturation an
// unprotected system's latency grows without bound (every admitted query
// queues behind an ever-longer backlog), while the admission controller
// sheds the unmeetable fraction at the front door so the p99 of what it
// *does* admit stays flat.
//
//   ./build/bench/serve_slo                    # open-loop sweep (default)
//   ./build/bench/serve_slo --mode closed      # sessions + think time
//   ./build/bench/serve_slo --rate 30 --deadline-ms 600 --duration 10
//   ./build/bench/serve_slo --tpch             # TPC-H mixes instead of SSB
//   ./build/bench/serve_slo --split-mix        # asymmetric per-tenant mixes
//   ./build/bench/serve_slo --json out.json    # machine-readable artifact
//
// Shared flags (see bench_util.h): --quick --seed N --time-scale X --json FILE

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "server/traffic.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

using namespace hetdb;
using namespace hetdb::bench;

namespace {

struct ServeArgs {
  BenchArgs base;
  std::string mode = "open";
  double duration_s = 5.0;
  double rate_qps = 60.0;      // per tenant, at load multiplier 1.0
  double deadline_ms = 110.0;  // per-query SLO budget
  int sessions = 8;            // per tenant (closed loop)
  bool tpch = false;
  bool split_mix = false;
  std::vector<double> load_multipliers = {0.25, 1.0, 4.0};
};

ServeArgs ParseServeArgs(int argc, char** argv) {
  using Kind = FlagSpec::Kind;
  ServeArgs args;
  args.base = BenchArgs::Parse(
      argc, argv,
      {{"--mode", Kind::kText, "open|closed"},
       {"--duration", Kind::kNumber, "S"},
       {"--rate", Kind::kNumber, "QPS"},
       {"--deadline-ms", Kind::kNumber, "MS"},
       {"--sessions", Kind::kCount, "N", std::numeric_limits<int>::max()},
       {"--tpch", Kind::kSwitch, ""},
       {"--split-mix", Kind::kSwitch, ""}});
  args.mode = args.base.Text("--mode", args.mode);
  args.duration_s = args.base.Number("--duration", args.duration_s);
  args.rate_qps = args.base.Number("--rate", args.rate_qps);
  args.deadline_ms = args.base.Number("--deadline-ms", args.deadline_ms);
  args.sessions = static_cast<int>(args.base.Count("--sessions", args.sessions));
  args.tpch = args.base.Has("--tpch");
  args.split_mix = args.base.Has("--split-mix");
  if (args.base.quick) {
    args.duration_s = std::min(args.duration_s, 3.0);
  }
  return args;
}

/// --split-mix: tenant-a gets the first half of the query set (SSB Q1/Q2
/// families: selection/cheap-join heavy), tenant-b the second half (Q3/Q4
/// families: join/aggregate heavy) — an asymmetric-demand variant where the
/// tenants ask for structurally different work. The default gives both
/// tenants the identical full mix, which makes the fairness column a clean
/// WDRR check: equal weights over an equal offered distribution must yield
/// per-tenant goodput within a few percent.
std::pair<std::vector<NamedQuery>, std::vector<NamedQuery>> SplitMix(
    std::vector<NamedQuery> queries) {
  const size_t half = queries.size() / 2;
  std::vector<NamedQuery> first(queries.begin(), queries.begin() + half);
  std::vector<NamedQuery> second(queries.begin() + half, queries.end());
  return {std::move(first), std::move(second)};
}

}  // namespace

int main(int argc, char** argv) {
  const ServeArgs args = ParseServeArgs(argc, argv);
  const double sf = args.base.quick ? 0.5 : 1.0;

  Report report;
  report.Banner("serve_slo",
         std::string("SLO traffic bench: 2 tenants, ") + args.mode +
             "-loop, " + (args.tpch ? "TPC-H" : "SSB") + " SF " +
             std::to_string(sf) + ", deadline " +
             std::to_string(static_cast<int>(args.deadline_ms)) + "ms");

  DatabasePtr db;
  std::vector<NamedQuery> queries;
  if (args.tpch) {
    TpchGeneratorOptions gen;
    args.base.ApplySeed(gen);
    gen.scale_factor = sf;
    db = GenerateTpchDatabase(gen);
    queries = TpchQueries();
  } else {
    SsbGeneratorOptions gen;
    args.base.ApplySeed(gen);
    gen.scale_factor = sf;
    db = GenerateSsbDatabase(gen);
    queries = SsbQueries();
  }
  std::vector<NamedQuery> mix_a = queries;
  std::vector<NamedQuery> mix_b = std::move(queries);
  if (args.split_mix) {
    std::tie(mix_a, mix_b) = SplitMix(std::move(mix_a));
  }

  const SystemConfig config = PaperConfig(args.base);
  const uint64_t seed = args.base.seed != 0 ? args.base.seed : 42;

  report.Header({"load", "offered", "goodput[qps]", "shed_rate", "p50[ms]",
                 "p99[ms]", "fairness", "limit_end"});

  std::string json = "{\n  \"bench\": \"serve_slo\",\n  \"mode\": \"" +
                     args.mode + "\",\n  \"points\": [\n";
  bool first_point = true;

  for (double load : args.load_multipliers) {
    // Fresh engine + server per point so governor state, caches, and EWMA
    // estimates from a previous (possibly overloaded) point don't leak in.
    EngineContext ctx(config, db);
    ServerOptions server_options;
    server_options.admission.max_concurrency = 16;
    server_options.admission.initial_concurrency = 8;
    Server server(&ctx, server_options);

    // Warm the cost models and data placement exactly like the workload
    // benches do, so the measured phase sees a trained engine.
    {
      SessionPtr warm = server.OpenSession("warmup");
      for (const NamedQuery& query : mix_a) {
        warm->Execute(query.builder(*db).value());
      }
      for (const NamedQuery& query : mix_b) {
        warm->Execute(query.builder(*db).value());
      }
      server.runner().RefreshDataPlacement();
      ctx.ResetRunStats();
    }

    TenantTraffic tenant_a;
    tenant_a.name = "tenant-a";
    tenant_a.mix = mix_a;
    tenant_a.deadline_ms = args.deadline_ms;
    TenantTraffic tenant_b;
    tenant_b.name = "tenant-b";
    tenant_b.mix = mix_b;
    tenant_b.deadline_ms = args.deadline_ms;

    TrafficOptions traffic;
    traffic.duration_s = args.duration_s;
    traffic.seed = seed;
    if (args.mode == "closed") {
      traffic.mode = TrafficOptions::Mode::kClosedLoop;
      tenant_a.sessions = static_cast<int>(args.sessions * load + 0.5);
      tenant_b.sessions = tenant_a.sessions;
      tenant_a.think_time_ms = 100;
      tenant_b.think_time_ms = 100;
    } else {
      traffic.mode = TrafficOptions::Mode::kOpenLoop;
      tenant_a.arrival_qps = args.rate_qps * load;
      tenant_b.arrival_qps = tenant_a.arrival_qps;
    }

    const TrafficResult result =
        RunTraffic(server, {tenant_a, tenant_b}, traffic);

    double p50 = 0, p99 = 0;
    for (const TenantTrafficResult& tr : result.tenants) {
      p50 = std::max(p50, tr.p50_ms);
      p99 = std::max(p99, tr.p99_ms);
    }
    report.Row({load, result.offered, result.goodput_qps, result.shed_rate,
                p50, p99, result.fairness,
                static_cast<uint64_t>(server.admission().concurrency_limit())});

    if (!first_point) json += ",\n";
    first_point = false;
    json += "    {\"load_multiplier\": " + std::to_string(load) +
            ", \"result\": " + result.ToJson() + "    }";
  }
  json += "\n  ]\n}\n";

  const bool written =
      args.base.json_out.empty() || WriteFile(args.base.json_out, json);
  return written ? 0 : 1;
}
