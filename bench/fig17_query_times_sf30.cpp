// Figure 17: per-query execution times of selected SSB queries for a single
// user at scale factor 30 (working set well beyond the device cache).
// Expected shape: GPU-Only slows every query down; Critical Path matches
// CPU-Only; Data-Driven Chopping helps most on the high-selectivity queries
// (Q2.3, Q3.4, Q4.3 — small intermediate results, cheap switch-back).
//
//   ./build/bench/fig17_query_times_sf30 --time-scale 0.2 --json out.json
//
// Gate: scripts/check_bench.py --fig17 out.json (GPU Only must take at
// least 1.2x CPU Only's time on every query).

#include <cstring>

#include "bench/bench_util.h"

using namespace hetdb;
using namespace hetdb::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }
  const double sf = args.quick ? 10 : 30;
  const std::vector<std::string> query_names = {"Q1.1", "Q2.1", "Q2.3",
                                                "Q3.1", "Q3.4", "Q4.1",
                                                "Q4.3"};
  const std::vector<Strategy> strategies = {
      Strategy::kCpuOnly, Strategy::kGpuOnly, Strategy::kCriticalPath,
      Strategy::kDataDrivenChopping};

  Banner("Figure 17",
         "Selected SSB query times, single user, SF " +
             std::to_string(static_cast<int>(sf)));

  SsbGeneratorOptions gen;
  args.ApplySeed(gen);
  gen.scale_factor = sf;
  DatabasePtr db = GenerateSsbDatabase(gen);

  std::vector<NamedQuery> queries;
  for (const std::string& name : query_names) {
    Result<NamedQuery> query = SsbQueryByName(name);
    HETDB_CHECK(query.ok());
    queries.push_back(std::move(query).value());
  }

  std::vector<std::string> header = {"query"};
  for (Strategy strategy : strategies) {
    header.push_back(std::string(StrategyToString(strategy)) + "[ms]");
  }
  PrintHeader(header);

  // One workload run per strategy; per-query latencies from the driver.
  std::vector<WorkloadRunResult> results;
  for (Strategy strategy : strategies) {
    WorkloadRunOptions options;
    options.repetitions = 1;
    options.warmup_repetitions = 1;
    results.push_back(RunPoint(PaperConfig(args.time_scale), db, strategy,
                               queries, options));
  }
  std::string json = "{\n  \"bench\": \"fig17_query_times_sf30\",\n"
                     "  \"scale_factor\": " + std::to_string(sf) +
                     ",\n  \"time_scale\": " + std::to_string(args.time_scale) +
                     ",\n  \"queries\": [\n";
  for (size_t q = 0; q < query_names.size(); ++q) {
    const std::string& name = query_names[q];
    PrintCell(name);
    json += "    {\"query\": \"" + name + "\", \"latency_ms\": {";
    for (size_t i = 0; i < results.size(); ++i) {
      auto it = results[i].latency_ms_by_query.find(name);
      const double millis =
          it != results[i].latency_ms_by_query.end() ? it->second : -1.0;
      PrintCell(millis);
      json += std::string(i > 0 ? ", " : "") + "\"" +
              StrategyToString(strategies[i]) + "\": " +
              std::to_string(millis);
    }
    EndRow();
    json += q + 1 < query_names.size() ? "}},\n" : "}}\n";
  }
  json += "  ]\n}\n";

  if (!json_out.empty()) {
    FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# JSON artifact written to %s\n", json_out.c_str());
  }
  return 0;
}
