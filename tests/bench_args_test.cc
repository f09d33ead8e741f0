// Command-line parsing and table rendering shared by paper_figures and
// serve_slo (bench/bench_util.h).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace hetdb::bench {
namespace {

using Kind = FlagSpec::Kind;

Result<BenchArgs> ParseArgs(std::vector<const char*> flags,
                            const std::vector<FlagSpec>& extra = {}) {
  flags.insert(flags.begin(), "paper_figures");
  return BenchArgs::TryParse(static_cast<int>(flags.size()), flags.data(),
                             extra);
}

TEST(BenchArgsTest, DefaultsWithoutFlags) {
  Result<BenchArgs> args = ParseArgs({});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_FALSE(args->quick);
  EXPECT_TRUE(args->fusion);
  EXPECT_TRUE(PaperConfig(*args).fusion);
  EXPECT_DOUBLE_EQ(args->time_scale, 1.0);
  EXPECT_EQ(args->seed, 0u);
  EXPECT_DOUBLE_EQ(args->think_time_ms, 0.0);
  EXPECT_TRUE(args->json_out.empty());
}

TEST(BenchArgsTest, ParsesSharedFlagsInBothForms) {
  Result<BenchArgs> args =
      ParseArgs({"--quick", "--time-scale", "0.2", "--seed=7", "--think-time",
                 "1e1", "--fusion=off", "--trace-out", "t.json", "--json=f",
                 "--per-query", "--full"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_TRUE(args->quick);
  EXPECT_TRUE(args->full);
  EXPECT_TRUE(args->per_query);
  EXPECT_FALSE(args->fusion);
  EXPECT_FALSE(PaperConfig(*args).fusion);
  EXPECT_DOUBLE_EQ(args->time_scale, 0.2);
  EXPECT_DOUBLE_EQ(PaperConfig(*args).time_scale, 2.0);  // modeled time x10
  EXPECT_EQ(args->seed, 7u);
  EXPECT_DOUBLE_EQ(args->think_time_ms, 10.0);
  EXPECT_EQ(args->trace_out, "t.json");
  EXPECT_EQ(args->json_out, "f");
}

TEST(BenchArgsTest, RejectsMalformedNumbers) {
  for (const char* value :
       {"abc", "", "0", "-1", "0.2x", " 1", "+1", "1e999", "inf", "nan"}) {
    EXPECT_FALSE(ParseArgs({"--time-scale", value}).ok()) << value;
  }
  for (const char* value :
       {"1.5", "-3", "0", "7x", "99999999999999999999999", "0x10"}) {
    EXPECT_FALSE(ParseArgs({"--seed", value}).ok()) << value;
  }
  EXPECT_TRUE(ParseArgs({"--seed", "18446744073709551615"}).ok());
}

TEST(BenchArgsTest, RejectsUnknownFlagsAndMissingValues) {
  EXPECT_FALSE(ParseArgs({"--quik"}).ok());
  EXPECT_FALSE(ParseArgs({"fig02_cache_thrashing"}).ok());
  EXPECT_FALSE(ParseArgs({"--time-scale"}).ok());
  EXPECT_FALSE(ParseArgs({"--json="}).ok());
  EXPECT_FALSE(ParseArgs({"--quick=yes"}).ok());
  EXPECT_FALSE(ParseArgs({"--fusion", "maybe"}).ok());
  // A figure's own flag is unknown to every other figure.
  EXPECT_FALSE(ParseArgs({"--devices", "1,2"}).ok());
}

TEST(BenchArgsTest, AcceptsAndValidatesAProgramsOwnFlags) {
  // serve_slo's flags on top of the shared ones.
  const std::vector<FlagSpec> serve = {
      {"--mode", Kind::kText, "open|closed"},
      {"--rate", Kind::kNumber, "QPS"},
      {"--sessions", Kind::kCount, "N", 64},
      {"--tpch", Kind::kSwitch, ""}};
  Result<BenchArgs> args = ParseArgs(
      {"--quick", "--mode", "closed", "--rate=20", "--sessions", "8",
       "--tpch"},
      serve);
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_EQ(args->Text("--mode", "open"), "closed");
  EXPECT_DOUBLE_EQ(args->Number("--rate", 60), 20.0);
  EXPECT_EQ(args->Count("--sessions", 16), 8u);
  EXPECT_TRUE(args->Has("--tpch"));
  EXPECT_DOUBLE_EQ(ParseArgs({}, serve)->Number("--rate", 60), 60.0);

  EXPECT_FALSE(ParseArgs({"--mode", "half"}, serve).ok());
  EXPECT_FALSE(ParseArgs({"--rate", "fast"}, serve).ok());
  EXPECT_FALSE(ParseArgs({"--sessions", "65"}, serve).ok());
  EXPECT_FALSE(ParseArgs({"--sessions", "2.5"}, serve).ok());
}

TEST(BenchArgsTest, FlagsJsonHoldsSharedAndGivenFlags) {
  Result<BenchArgs> args =
      ParseArgs({"--time-scale", "0.2", "--devices", "1,2"},
                {{"--devices", Kind::kText, "LIST"},
                 {"--phase", Kind::kNumber, "S"}});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_EQ(args->ToJson(),
            "{\"quick\": false, \"full\": false, \"time_scale\": 0.2, "
            "\"seed\": 0, \"think_time_ms\": 0, \"per_query\": false, "
            "\"fusion\": true, \"trace_out\": \"\", \"json\": \"\", "
            "\"devices\": \"1,2\"}");
}

TEST(BenchArgsDeathTest, BadCommandLineExitsTwoWithUsage) {
  const char* argv[] = {"paper_figures", "--time-scale", "abc", nullptr};
  EXPECT_EXIT(BenchArgs::Parse(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "usage: paper_figures .*--quick");
}

TEST(ReportTest, PrintsFixedWidthRowsAndKeepsThemForJson) {
  char* text = nullptr;
  size_t size = 0;
  FILE* out = open_memstream(&text, &size);
  ASSERT_NE(out, nullptr);
  Report report(out);
  report.Banner("Figure 9", "a \"quoted\" description");
  report.Header({"users", "time[ms]"});
  report.Row({uint64_t{4}, 12.5});
  report.Banner("Figure 9(b)", "second");
  report.Header({"query", "ratio"}, "caption");
  report.Row({std::string("Q1.1"), -1.0});
  report.Summary({{"recovered", std::string("yes")}, {"stranded", uint64_t{0}}});
  std::fclose(out);
  const std::string printed(text, size);
  std::free(text);

  char expected[1024];
  std::snprintf(expected, sizeof(expected),
                "# Figure 9\n# a \"quoted\" description\n#\n"
                "%-24s%-24s\n%-24s%-24s\n"
                "\n# Figure 9(b)\n# second\n#\n#\n# caption\n"
                "%-24s%-24s\n%-24s%-24s\n"
                "# recovered=yes stranded=0\n",
                "users", "time[ms]", "4", "12.50", "query", "ratio", "Q1.1",
                "-1.00");
  EXPECT_EQ(printed, expected);

  ASSERT_EQ(report.tables().size(), 3u);
  EXPECT_EQ(report.tables()[0].title, "Figure 9");
  EXPECT_EQ(report.tables()[1].title, "caption");
  EXPECT_EQ(report.tables()[2].title, "summary");

  Result<BenchArgs> args = ParseArgs({});
  ASSERT_TRUE(args.ok());
  const std::string json = report.Json("fig09_runtime_placement", *args, "Release");
  EXPECT_NE(json.find("\"figure\": \"fig09_runtime_placement\""),
            std::string::npos);
  EXPECT_NE(json.find("\"build_type\": \"Release\""), std::string::npos);
  EXPECT_NE(json.find("\"nproc\": "), std::string::npos);
  EXPECT_NE(json.find("\"columns\": [\"users\", \"time[ms]\"],\n"
                      "     \"rows\": [\n       [4, 12.50]]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("[\"Q1.1\", -1.00]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"columns\": [\"recovered\", \"stranded\"],\n"
                      "     \"rows\": [\n       [\"yes\", 0]]"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace hetdb::bench
