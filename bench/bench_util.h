#ifndef HETDB_BENCH_BENCH_UTIL_H_
#define HETDB_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/logging.h"
#include "common/status.h"
#include "telemetry/exporters.h"
#include "telemetry/trace_recorder.h"
#include "workload/workload.h"

namespace hetdb::bench {

/// Destination of the --trace-out flag (process-wide; written at exit).
inline std::string& TraceOutPath() {
  static std::string path;
  return path;
}

/// Enables span recording and registers an atexit hook that exports the
/// whole process's trace as Chrome trace-event JSON (open the file in
/// https://ui.perfetto.dev or chrome://tracing).
inline void EnableTraceExportAtExit(const std::string& path) {
  TraceOutPath() = path;
  TraceRecorder::Global().SetEnabled(true);
  std::atexit([] {
    const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
    const Status status = WriteChromeTrace(TraceOutPath(), events);
    if (status.ok()) {
      std::fprintf(stderr, "# wrote %zu trace events to %s\n", events.size(),
                   TraceOutPath().c_str());
    } else {
      std::fprintf(stderr, "# trace export failed: %s\n",
                   status.ToString().c_str());
    }
  });
}

/// Parses all of `text` as a positive number (finite, for floating point);
/// nullopt on an empty, non-numeric, trailing-garbage, out-of-range or
/// non-positive value.
template <typename T>
std::optional<T> ParsePositive(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (!(value > 0)) return std::nullopt;
  return value;
}

/// One command-line flag: its name (with the leading "--"), the kind of
/// value it takes, and the placeholder the usage line shows for that value.
/// A kText placeholder that lists alternatives ("on|off") also restricts
/// the value to them.
struct FlagSpec {
  enum class Kind { kSwitch, kNumber, kCount, kText };
  std::string name;
  Kind kind = Kind::kSwitch;
  std::string metavar;
  /// Largest value a kCount flag accepts.
  uint64_t max = std::numeric_limits<uint64_t>::max();
};

/// Command-line flags shared by every figure and by serve_slo:
///   --quick          shrink sweeps and repetitions (CI-friendly)
///   --full           paper-sized sweeps (slow)
///   --time-scale X   multiply all modeled durations (ratios unchanged)
///   --seed N         override every RNG seed in the run — data generators
///                    and user-session jitter streams (omitted: the baked-in
///                    defaults, SSB 42, TPC-H 1234, sessions 42)
///   --think-time MS  mean exponential per-session think time (omitted:
///                    closed loop)
///   --per-query      print the per-query resource breakdown (queue-wait vs
///                    execute time, retry/fallback counts) of every run
///   --fusion on|off  enable/disable operator fusion (DESIGN.md §11) in every
///                    engine context PaperConfig() builds
///   --trace-out FILE record spans and export a Perfetto-loadable Chrome
///                    trace-event JSON file at exit
///   --json FILE      write the program's JSON artifact
/// A program adds its own flags as FlagSpecs. A value follows its flag as
/// the next argument or after '='. Numbers must be positive. An unknown
/// flag, a missing value or a malformed one exits 2 with a usage line.
struct BenchArgs {
  bool quick = false;
  bool full = false;
  bool per_query = false;
  bool fusion = true;
  double time_scale = 1.0;
  uint64_t seed = 0;
  double think_time_ms = 0;
  std::string trace_out;
  std::string json_out;

  /// Parses argv[1..argc) against the shared flags plus `extra`, without
  /// side effects.
  static Result<BenchArgs> TryParse(int argc, const char* const* argv,
                                    const std::vector<FlagSpec>& extra = {}) {
    BenchArgs args = Unparsed(argc > 0 ? argv[0] : "bench", extra);
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const size_t equals = arg.find('=');
      const std::string name(arg.substr(0, equals));
      const FlagSpec* spec = args.Find(name);
      if (spec == nullptr) {
        return Status::InvalidArgument("unknown flag '" + std::string(arg) +
                                       "'");
      }
      std::string value;
      if (spec->kind == FlagSpec::Kind::kSwitch) {
        if (equals != std::string_view::npos) {
          return Status::InvalidArgument(name + " takes no value");
        }
      } else if (equals != std::string_view::npos) {
        value = arg.substr(equals + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument(name + " needs a value");
      }
      HETDB_RETURN_NOT_OK(Validate(*spec, value));
      args.given_[name] = value;
    }
    args.quick = args.Has("--quick");
    args.full = args.Has("--full");
    args.per_query = args.Has("--per-query");
    args.fusion = args.Text("--fusion", "on") == "on";
    args.time_scale = args.Number("--time-scale", 1.0);
    args.seed = args.Count("--seed", 0);
    args.think_time_ms = args.Number("--think-time", 0);
    args.trace_out = args.Text("--trace-out", "");
    args.json_out = args.Text("--json", "");
    return args;
  }

  /// TryParse, then applies --trace-out to the process. On a bad command
  /// line prints the error and a usage line and exits 2.
  static BenchArgs Parse(int argc, char** argv,
                         const std::vector<FlagSpec>& extra = {}) {
    Result<BenchArgs> parsed = TryParse(argc, argv, extra);
    if (!parsed.ok()) {
      Unparsed(argv[0], extra).Fail(parsed.status().message());
    }
    BenchArgs args = std::move(parsed).value();
    if (!args.trace_out.empty()) EnableTraceExportAtExit(args.trace_out);
    return args;
  }

  /// Prints `message` and the usage line, then exits 2.
  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\nusage: %s", message.c_str(),
                 program_.c_str());
    for (const FlagSpec& spec : specs_) {
      std::fprintf(stderr, " [%s%s%s]", spec.name.c_str(),
                   spec.metavar.empty() ? "" : " ", spec.metavar.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  /// Whether the command line gave `flag`.
  bool Has(const std::string& flag) const { return given_.count(flag) > 0; }

  /// Values of a program's own flags (already validated), or `fallback`.
  double Number(const std::string& flag, double fallback) const {
    return Has(flag) ? *ParsePositive<double>(given_.at(flag)) : fallback;
  }
  uint64_t Count(const std::string& flag, uint64_t fallback) const {
    return Has(flag) ? *ParsePositive<uint64_t>(given_.at(flag)) : fallback;
  }
  std::string Text(const std::string& flag, const std::string& fallback) const {
    return Has(flag) ? given_.at(flag) : fallback;
  }

  /// The parsed flags as a JSON object: each shared flag's effective value,
  /// then each other flag the command line gave.
  std::string ToJson() const;

  /// Copies the --seed override into a generator-options struct (SSB or
  /// TPC-H); 0 keeps the generator's own default so existing baselines stay
  /// bit-identical.
  template <typename GeneratorOptions>
  void ApplySeed(GeneratorOptions& gen) const {
    if (seed != 0) gen.seed = seed;
  }

  /// Folds the session knobs (--seed, --think-time) into workload options.
  void ApplySessionKnobs(WorkloadRunOptions& options) const {
    if (seed != 0) options.seed = seed;
    options.think_time_ms = think_time_ms;
  }

 private:
  using Kind = FlagSpec::Kind;

  static BenchArgs Unparsed(const char* program,
                            const std::vector<FlagSpec>& extra) {
    BenchArgs args;
    args.program_ = program;
    args.specs_ = SharedFlags();
    args.specs_.insert(args.specs_.end(), extra.begin(), extra.end());
    return args;
  }

  static std::vector<FlagSpec> SharedFlags() {
    return {{"--quick", Kind::kSwitch, ""},
            {"--full", Kind::kSwitch, ""},
            {"--time-scale", Kind::kNumber, "X"},
            {"--seed", Kind::kCount, "N"},
            {"--think-time", Kind::kNumber, "MS"},
            {"--per-query", Kind::kSwitch, ""},
            {"--fusion", Kind::kText, "on|off"},
            {"--trace-out", Kind::kText, "FILE"},
            {"--json", Kind::kText, "FILE"}};
  }

  static Status Validate(const FlagSpec& spec, const std::string& value) {
    switch (spec.kind) {
      case Kind::kSwitch:
        return Status::OK();
      case Kind::kNumber:
        if (ParsePositive<double>(value)) return Status::OK();
        return Status::InvalidArgument(spec.name + " '" + value +
                                       "' is not a positive number");
      case Kind::kCount: {
        const std::optional<uint64_t> count = ParsePositive<uint64_t>(value);
        if (count && *count <= spec.max) return Status::OK();
        return Status::InvalidArgument(
            spec.name + " '" + value + "' is not an integer in [1, " +
            std::to_string(spec.max) + "]");
      }
      case Kind::kText:
        if (value.empty()) {
          return Status::InvalidArgument(spec.name + " needs a value");
        }
        if (spec.metavar.find('|') != std::string::npos &&
            ("|" + spec.metavar + "|").find("|" + value + "|") ==
                std::string::npos) {
          return Status::InvalidArgument(spec.name + " must be one of " +
                                         spec.metavar);
        }
        return Status::OK();
    }
    return Status::OK();
  }

  const FlagSpec* Find(const std::string& name) const {
    for (const FlagSpec& spec : specs_) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  }

  std::string program_;
  std::vector<FlagSpec> specs_;
  std::map<std::string, std::string> given_;
};

/// The paper's machine of the evaluation (Section 6.1), at the
/// 1/100 data scale of DESIGN.md: the 4 GB GTX 770 becomes a 40 MB device
/// (24 MB data cache + 16 MB heap), PCIe and kernel throughputs use the
/// calibration constants of common/config.h. It runs the paper's
/// allocate-as-you-go and abort-and-restart (`paper_mode`). `args` gives
/// --time-scale and --fusion.
inline SystemConfig PaperConfig(const BenchArgs& args) {
  SystemConfig config;
  config.paper_mode = true;
  config.device_memory_bytes = 40ull << 20;
  config.device_cache_bytes = 24ull << 20;
  config.simulate_time = true;
  // Modeled durations are amplified 10x so that the *real* kernel work
  // (which executes on the host to produce correct results, is identical for
  // every strategy, and serializes on small machines) stays a minor additive
  // term rather than masking the modeled differences. A pure scale factor on
  // all durations changes no ratio between strategies.
  config.time_scale = 10.0 * args.time_scale;
  config.fusion = args.fusion;
  return config;
}

/// Writes `text` to `path`; false, after an error message, if it cannot.
inline bool WriteFile(const std::string& path, const std::string& text) {
  FILE* file = std::fopen(path.c_str(), "w");
  bool written =
      file != nullptr && std::fwrite(text.data(), 1, text.size(), file) ==
                             text.size();
  if (file != nullptr && std::fclose(file) != 0) written = false;
  std::fprintf(stderr, written ? "# wrote %s\n" : "error: cannot write %s\n",
               path.c_str());
  return written;
}

/// Formats bytes as mebibytes.
inline std::string Mib(size_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f MiB",
                static_cast<double>(bytes) / (1 << 20));
  return buffer;
}

/// A table cell: a label, a real number (shown with two decimals) or a
/// count.
using Cell = std::variant<std::string, double, uint64_t>;

/// The cell as text and as a JSON value carry the same digits.
inline std::string FormatCell(const Cell& cell) {
  if (const std::string* text = std::get_if<std::string>(&cell)) return *text;
  char buffer[64];
  if (const double* value = std::get_if<double>(&cell)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f", *value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(std::get<uint64_t>(cell)));
  }
  return buffer;
}

inline std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A cell as a JSON value: a string, or the printed digits of a number
/// (null if not finite).
inline std::string JsonCell(const Cell& cell) {
  if (const std::string* text = std::get_if<std::string>(&cell)) {
    return JsonString(*text);
  }
  const double* value = std::get_if<double>(&cell);
  return value != nullptr && !std::isfinite(*value) ? "null" : FormatCell(cell);
}

template <typename T, typename ToJson>
std::string JsonArray(const std::vector<T>& items, ToJson to_json) {
  std::string json = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    json += (i > 0 ? ", " : "") + to_json(items[i]);
  }
  return json + "]";
}

inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  HETDB_CHECK(error == std::errc());
  return std::string(buffer, end);
}

inline std::string BenchArgs::ToJson() const {
  auto flag = [](const std::string& name, const std::string& value) {
    return JsonString(name) + ": " + value;
  };
  std::string json =
      "{" + flag("quick", quick ? "true" : "false") + ", " +
      flag("full", full ? "true" : "false") + ", " +
      flag("time_scale", JsonNumber(time_scale)) + ", " +
      flag("seed", std::to_string(seed)) + ", " +
      flag("think_time_ms", JsonNumber(think_time_ms)) + ", " +
      flag("per_query", per_query ? "true" : "false") + ", " +
      flag("fusion", fusion ? "true" : "false") + ", " +
      flag("trace_out", JsonString(trace_out)) + ", " +
      flag("json", JsonString(json_out));
  for (size_t i = SharedFlags().size(); i < specs_.size(); ++i) {
    const FlagSpec& spec = specs_[i];
    if (!Has(spec.name)) continue;
    const std::string name = spec.name.substr(2);
    switch (spec.kind) {
      case Kind::kSwitch:
        json += ", " + flag(name, "true");
        break;
      case Kind::kNumber:
        json += ", " + flag(name, JsonNumber(Number(spec.name, 0)));
        break;
      case Kind::kCount:
        json += ", " + flag(name, std::to_string(Count(spec.name, 0)));
        break;
      case Kind::kText:
        json += ", " + flag(name, JsonString(Text(spec.name, "")));
        break;
    }
  }
  return json + "}";
}

/// One table of a program's output: what it shows, its column names and
/// its rows.
struct Table {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
};

/// Prints a program's tables as it produces them — banners and captions as
/// '#' lines, rows as 24-character fixed-width cells — and keeps them for
/// the JSON artifact, so the artifact holds exactly the printed rows.
class Report {
 public:
  explicit Report(FILE* out = stdout) : out_(out) {}

  /// Prints "# figure", "# description" and "#", preceded by a blank line
  /// if a table came before. Titles the tables that follow.
  void Banner(const std::string& figure, const std::string& description) {
    if (!tables_.empty()) std::fprintf(out_, "\n");
    std::fprintf(out_, "# %s\n# %s\n#\n", figure.c_str(),
                 description.c_str());
    title_ = figure;
  }

  /// Starts a table and prints its header. A caption is printed above it
  /// (after a "#" line) and becomes the table's title.
  void Header(std::vector<std::string> columns,
              const std::string& caption = "") {
    if (!caption.empty()) std::fprintf(out_, "#\n# %s\n", caption.c_str());
    for (const std::string& column : columns) {
      std::fprintf(out_, "%-24s", column.c_str());
    }
    std::fprintf(out_, "\n");
    tables_.push_back({caption.empty() ? title_ : caption, std::move(columns),
                       {}});
  }

  /// Prints one row of the current table.
  void Row(std::vector<Cell> cells) {
    HETDB_CHECK(!tables_.empty() &&
                cells.size() == tables_.back().columns.size());
    for (const Cell& cell : cells) {
      std::fprintf(out_, "%-24s", FormatCell(cell).c_str());
    }
    std::fprintf(out_, "\n");
    tables_.back().rows.push_back(std::move(cells));
  }

  /// A one-row table titled "summary", printed as one
  /// "# name=value name=value ..." line.
  void Summary(std::vector<std::pair<std::string, Cell>> fields) {
    Table table{"summary", {}, {{}}};
    std::string line = "#";
    for (auto& [name, cell] : fields) {
      line += " " + name + "=" + FormatCell(cell);
      table.columns.push_back(name);
      table.rows[0].push_back(std::move(cell));
    }
    std::fprintf(out_, "%s\n", line.c_str());
    tables_.push_back(std::move(table));
  }

  const std::vector<Table>& tables() const { return tables_; }

  /// The JSON artifact: figure name, parsed flags, the host's core count,
  /// the build type, and every table's title, columns and rows.
  std::string Json(const std::string& figure, const BenchArgs& args,
                   const std::string& build_type) const {
    std::string json = "{\n  \"figure\": " + JsonString(figure) +
                       ",\n  \"flags\": " + args.ToJson() +
                       ",\n  \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\n  \"build_type\": " + JsonString(build_type) +
                       ",\n  \"tables\": [";
    for (size_t t = 0; t < tables_.size(); ++t) {
      const Table& table = tables_[t];
      json += std::string(t > 0 ? ",\n" : "\n") + "    {\"title\": " +
              JsonString(table.title) + ",\n     \"columns\": " +
              JsonArray(table.columns, JsonString) + ",\n     \"rows\": [";
      for (size_t r = 0; r < table.rows.size(); ++r) {
        json += std::string(r > 0 ? ",\n" : "\n") + "       " +
                JsonArray(table.rows[r], JsonCell);
      }
      json += "]}";
    }
    return json + "\n  ]\n}\n";
  }

 private:
  FILE* out_;
  std::string title_;
  std::vector<Table> tables_;
};

}  // namespace hetdb::bench

#endif  // HETDB_BENCH_BENCH_UTIL_H_
