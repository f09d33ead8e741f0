#include "tpch/tpch_generator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace hetdb {

namespace {

/// Orders per scale-factor unit; lineitem averages 4 rows per order.
constexpr int64_t kTpchOrdersRowsPerSf = 15000;

const char* const kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                 "MIDDLE EAST"};

struct NationInfo {
  const char* name;
  int region;
};

// Sorted by name; region indices follow TPC-H.
const NationInfo kNations[25] = {
    {"ALGERIA", 0},       {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},        {"CHINA", 2},     {"EGYPT", 4},
    {"ETHIOPIA", 0},      {"FRANCE", 3},    {"GERMANY", 3},
    {"INDIA", 2},         {"INDONESIA", 2}, {"IRAN", 4},
    {"IRAQ", 4},          {"JAPAN", 2},     {"JORDAN", 4},
    {"KENYA", 0},         {"MOROCCO", 0},   {"MOZAMBIQUE", 0},
    {"PERU", 1},          {"ROMANIA", 3},   {"RUSSIA", 3},
    {"SAUDI ARABIA", 4},  {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}, {"VIETNAM", 2},
};

const char* const kMktSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};
const char* const kOrderPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                         "4-NOT SPECIFIED", "5-LOW"};
// Third syllable of p_type (TPC-H types end in one of these).
const char* const kPartTypes3[5] = {"BRASS", "COPPER", "NICKEL", "STEEL",
                                    "TIN"};

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

/// yyyymmdd for every day 1992-01-01 .. 1998-12-31; date arithmetic is index
/// arithmetic over this calendar.
std::vector<int32_t> BuildCalendar() {
  std::vector<int32_t> days;
  for (int y = 1992; y <= 1998; ++y) {
    for (int m = 1; m <= 12; ++m) {
      for (int d = 1; d <= DaysInMonth(y, m); ++d) {
        days.push_back(y * 10000 + m * 100 + d);
      }
    }
  }
  return days;
}

}  // namespace

TpchSizes ComputeTpchSizes(const TpchGeneratorOptions& options) {
  const double sf = std::max(options.scale_factor, 0.01);
  TpchSizes sizes;
  sizes.supplier = std::max<int64_t>(10, static_cast<int64_t>(sf * 100));
  sizes.customer = std::max<int64_t>(30, static_cast<int64_t>(sf * 1500));
  sizes.part = std::max<int64_t>(40, static_cast<int64_t>(sf * 2000));
  sizes.partsupp = sizes.part * 4;
  sizes.orders =
      std::max<int64_t>(50, static_cast<int64_t>(sf * kTpchOrdersRowsPerSf));
  sizes.lineitem_max = sizes.orders * 7;
  return sizes;
}

DatabasePtr GenerateTpchDatabase(const TpchGeneratorOptions& options) {
  const TpchSizes sizes = ComputeTpchSizes(options);
  auto database = std::make_shared<Database>();
  Rng rng(options.seed);
  const std::vector<int32_t> calendar = BuildCalendar();
  const int64_t num_days = static_cast<int64_t>(calendar.size());

  std::vector<std::string> region_dict(kRegions, kRegions + 5);
  std::vector<std::string> nation_dict;
  for (const NationInfo& nation : kNations) nation_dict.push_back(nation.name);

  // --- region ------------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("region");
    std::vector<int32_t> key = {0, 1, 2, 3, 4};
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("r_regionkey", std::move(key))));
    auto name = StringColumn::FromDictionary("r_name", region_dict);
    for (int32_t i = 0; i < 5; ++i) name->AppendCode(i);
    HETDB_CHECK_OK(table->AddColumn(std::move(name)));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- nation ------------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("nation");
    std::vector<int32_t> key(25), regionkey(25);
    auto name = StringColumn::FromDictionary("n_name", nation_dict);
    for (int32_t i = 0; i < 25; ++i) {
      key[i] = i;
      regionkey[i] = kNations[i].region;
      name->AppendCode(i);
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("n_nationkey", std::move(key))));
    HETDB_CHECK_OK(table->AddColumn(std::move(name)));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("n_regionkey", std::move(regionkey))));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- supplier ----------------------------------------------------------------
  {
    const int64_t rows = sizes.supplier;
    auto table = std::make_shared<Table>("supplier");
    std::vector<int32_t> key(rows), nationkey(rows), acctbal(rows);
    for (int64_t i = 0; i < rows; ++i) {
      key[i] = static_cast<int32_t>(i + 1);
      nationkey[i] = static_cast<int32_t>(rng.Uniform(0, 24));
      acctbal[i] = static_cast<int32_t>(rng.Uniform(-99999, 999999));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("s_suppkey", std::move(key))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("s_nationkey", std::move(nationkey))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("s_acctbal", std::move(acctbal))));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- customer ----------------------------------------------------------------
  {
    const int64_t rows = sizes.customer;
    auto table = std::make_shared<Table>("customer");
    std::vector<int32_t> key(rows), nationkey(rows);
    std::vector<int32_t> segment(rows);
    for (int64_t i = 0; i < rows; ++i) {
      key[i] = static_cast<int32_t>(i + 1);
      nationkey[i] = static_cast<int32_t>(rng.Uniform(0, 24));
      segment[i] = static_cast<int32_t>(rng.Uniform(0, 4));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("c_custkey", std::move(key))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("c_nationkey", std::move(nationkey))));
    std::vector<std::string> segment_dict(kMktSegments, kMktSegments + 5);
    auto seg = StringColumn::FromDictionary("c_mktsegment", segment_dict);
    for (int64_t i = 0; i < rows; ++i) seg->AppendCode(segment[i]);
    HETDB_CHECK_OK(table->AddColumn(std::move(seg)));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- part --------------------------------------------------------------------
  {
    const int64_t rows = sizes.part;
    auto table = std::make_shared<Table>("part");
    std::vector<int32_t> key(rows), size(rows), type3(rows);
    for (int64_t i = 0; i < rows; ++i) {
      key[i] = static_cast<int32_t>(i + 1);
      size[i] = static_cast<int32_t>(rng.Uniform(1, 50));
      type3[i] = static_cast<int32_t>(rng.Uniform(0, 4));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("p_partkey", std::move(key))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("p_size", std::move(size))));
    std::vector<std::string> type_dict(kPartTypes3, kPartTypes3 + 5);
    auto type_col = StringColumn::FromDictionary("p_type3", type_dict);
    for (int64_t i = 0; i < rows; ++i) type_col->AppendCode(type3[i]);
    HETDB_CHECK_OK(table->AddColumn(std::move(type_col)));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- partsupp ----------------------------------------------------------------
  {
    const int64_t rows = sizes.partsupp;
    auto table = std::make_shared<Table>("partsupp");
    std::vector<int32_t> partkey(rows), suppkey(rows), supplycost(rows),
        availqty(rows);
    for (int64_t i = 0; i < rows; ++i) {
      partkey[i] = static_cast<int32_t>(i / 4 + 1);
      suppkey[i] = static_cast<int32_t>(rng.Uniform(1, sizes.supplier));
      supplycost[i] = static_cast<int32_t>(rng.Uniform(100, 99999));
      availqty[i] = static_cast<int32_t>(rng.Uniform(1, 9999));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("ps_partkey", std::move(partkey))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("ps_suppkey", std::move(suppkey))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("ps_supplycost", std::move(supplycost))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("ps_availqty", std::move(availqty))));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- orders + lineitem ---------------------------------------------------------
  {
    const int64_t order_rows = sizes.orders;
    auto orders = std::make_shared<Table>("orders");
    auto lineitem = std::make_shared<Table>("lineitem");

    std::vector<int32_t> o_key(order_rows), o_custkey(order_rows),
        o_orderdate(order_rows), o_shippriority(order_rows);
    std::vector<int32_t> o_priority(order_rows);

    std::vector<int32_t> l_orderkey, l_partkey, l_suppkey, l_quantity,
        l_extendedprice, l_discount, l_tax, l_shipdate, l_commitdate,
        l_receiptdate, l_shipyear;

    for (int64_t i = 0; i < order_rows; ++i) {
      o_key[i] = static_cast<int32_t>(i + 1);
      o_custkey[i] = static_cast<int32_t>(rng.Uniform(1, sizes.customer));
      const int64_t order_day = rng.Uniform(0, num_days - 122);
      o_orderdate[i] = calendar[order_day];
      o_shippriority[i] = 0;
      o_priority[i] = static_cast<int32_t>(rng.Uniform(0, 4));

      const int64_t lines = rng.Uniform(1, 7);
      for (int64_t l = 0; l < lines; ++l) {
        l_orderkey.push_back(o_key[i]);
        l_partkey.push_back(static_cast<int32_t>(rng.Uniform(1, sizes.part)));
        l_suppkey.push_back(
            static_cast<int32_t>(rng.Uniform(1, sizes.supplier)));
        const int32_t qty = static_cast<int32_t>(rng.Uniform(1, 50));
        l_quantity.push_back(qty);
        l_extendedprice.push_back(
            static_cast<int32_t>(rng.Uniform(900, 10000)) * qty);
        l_discount.push_back(static_cast<int32_t>(rng.Uniform(0, 10)));
        l_tax.push_back(static_cast<int32_t>(rng.Uniform(0, 8)));
        const int64_t ship_day =
            std::min<int64_t>(order_day + rng.Uniform(1, 121), num_days - 1);
        const int64_t commit_day =
            std::min<int64_t>(order_day + rng.Uniform(30, 90), num_days - 1);
        const int64_t receipt_day =
            std::min<int64_t>(ship_day + rng.Uniform(1, 30), num_days - 1);
        l_shipdate.push_back(calendar[ship_day]);
        l_commitdate.push_back(calendar[commit_day]);
        l_receiptdate.push_back(calendar[receipt_day]);
        l_shipyear.push_back(calendar[ship_day] / 10000);
      }
    }

    HETDB_CHECK_OK(orders->AddColumn(
        std::make_shared<Int32Column>("o_orderkey", std::move(o_key))));
    HETDB_CHECK_OK(orders->AddColumn(
        std::make_shared<Int32Column>("o_custkey", std::move(o_custkey))));
    HETDB_CHECK_OK(orders->AddColumn(
        std::make_shared<Int32Column>("o_orderdate", std::move(o_orderdate))));
    HETDB_CHECK_OK(orders->AddColumn(std::make_shared<Int32Column>(
        "o_shippriority", std::move(o_shippriority))));
    std::vector<std::string> priority_dict(kOrderPriorities,
                                           kOrderPriorities + 5);
    auto priority =
        StringColumn::FromDictionary("o_orderpriority", priority_dict);
    for (int32_t code : o_priority) priority->AppendCode(code);
    HETDB_CHECK_OK(orders->AddColumn(std::move(priority)));
    HETDB_CHECK_OK(database->AddTable(std::move(orders)));

    auto add32 = [&](const char* name, std::vector<int32_t> values) {
      HETDB_CHECK_OK(lineitem->AddColumn(
          std::make_shared<Int32Column>(name, std::move(values))));
    };
    add32("l_orderkey", std::move(l_orderkey));
    add32("l_partkey", std::move(l_partkey));
    add32("l_suppkey", std::move(l_suppkey));
    add32("l_quantity", std::move(l_quantity));
    add32("l_extendedprice", std::move(l_extendedprice));
    add32("l_discount", std::move(l_discount));
    add32("l_tax", std::move(l_tax));
    add32("l_shipdate", std::move(l_shipdate));
    add32("l_commitdate", std::move(l_commitdate));
    add32("l_receiptdate", std::move(l_receiptdate));
    add32("l_shipyear", std::move(l_shipyear));
    HETDB_CHECK_OK(database->AddTable(std::move(lineitem)));
  }

  return database;
}

}  // namespace hetdb
