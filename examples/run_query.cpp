// run_query: execute one SSB query and print a checksum of its result.
//
// The CI fusion smoke runs the same query with --fusion=off and --fusion=on
// and diffs the stdout lines — operator fusion must be invisible in results
// (DESIGN.md §11). Informational output (timing, heap footprint) goes to
// stderr so stdout stays diff-stable.
//
// Usage:
//   run_query [--query Q2.1] [--fusion=on|off] [--sf 0.2]
//             [--strategy cpu|gpu|chopping]

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

namespace hetdb {
namespace {

// FNV-1a over the result's raw value storage, column by column.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void String(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t ChecksumTable(const Table& table) {
  Fnv1a hash;
  for (const ColumnPtr& column : table.columns()) {
    hash.String(column->name());
    switch (column->type()) {
      case DataType::kInt32: {
        const auto& values = ColumnCast<Int32Column>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(int32_t));
        break;
      }
      case DataType::kInt64: {
        const auto& values = ColumnCast<Int64Column>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(int64_t));
        break;
      }
      case DataType::kDouble: {
        const auto& values = ColumnCast<DoubleColumn>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(double));
        break;
      }
      case DataType::kString: {
        const auto& strings = ColumnCast<StringColumn>(*column);
        hash.Bytes(strings.codes().data(),
                   strings.codes().size() * sizeof(int32_t));
        for (const std::string& entry : strings.dictionary()) {
          hash.String(entry);
        }
        break;
      }
    }
  }
  return hash.value();
}

/// Prints `message` and the usage line; returns the exit code 2.
int Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: run_query [--query Q2.1] [--fusion=on|off] "
               "[--sf 0.2] [--strategy cpu|gpu|chopping]\n",
               message.c_str());
  return 2;
}

int Run(int argc, char** argv) {
  std::string query_name = "Q2.1";
  std::string strategy_name = "gpu";
  std::string fusion = "on";
  double scale_factor = 0.2;
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
    if (flag == "--query") {
      query_name = value;
    } else if (flag == "--strategy") {
      strategy_name = value;
    } else if (flag == "--fusion" && (value == "on" || value == "off")) {
      fusion = value;
    } else if (flag == "--sf") {
      const char* end = value.data() + value.size();
      const auto [ptr, error] =
          std::from_chars(value.data(), end, scale_factor);
      if (error != std::errc() || ptr != end || !std::isfinite(scale_factor) ||
          !(scale_factor > 0)) {
        return Usage("--sf '" + value + "' is not a positive number");
      }
    } else {
      return Usage("bad argument " + flag + " '" + value + "'");
    }
  }

  Strategy strategy = Strategy::kGpuOnly;
  if (strategy_name == "cpu") {
    strategy = Strategy::kCpuOnly;
  } else if (strategy_name == "gpu") {
    strategy = Strategy::kGpuOnly;
  } else if (strategy_name == "chopping") {
    strategy = Strategy::kDataDrivenChopping;
  } else {
    return Usage("unknown strategy '" + strategy_name + "'");
  }

  SsbGeneratorOptions options;
  options.scale_factor = scale_factor;
  DatabasePtr db = GenerateSsbDatabase(options);

  SystemConfig config;
  config.simulate_time = false;
  config.fusion = fusion == "on";
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, strategy);
  runner.RefreshDataPlacement();

  Result<NamedQuery> query = SsbQueryByName(query_name);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 2;
  }
  Result<PlanNodePtr> plan = query->builder(*db);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 2;
  }
  QueryStatsPtr stats = std::make_shared<QueryStats>();
  Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stderr, "# %s strategy=%s fusion=%s heap_high_water=%lld\n",
               query_name.c_str(), strategy_name.c_str(), fusion.c_str(),
               static_cast<long long>(stats->heap_high_water()));
  // stdout: stable across fusion on/off — the CI smoke diffs it.
  std::printf("%s rows=%zu cols=%zu checksum=%016llx\n", query_name.c_str(),
              result.value()->num_rows(), result.value()->num_columns(),
              static_cast<unsigned long long>(ChecksumTable(*result.value())));
  return 0;
}

}  // namespace
}  // namespace hetdb

int main(int argc, char** argv) { return hetdb::Run(argc, argv); }
