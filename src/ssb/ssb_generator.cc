#include "ssb/ssb_generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace hetdb {

namespace {

/// Lineorder rows per scale-factor unit.
constexpr int64_t kSsbLineorderRowsPerSf = 60000;

// TPC-H / SSB geography: 5 regions x 5 nations x 10 cities.
const char* const kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                 "MIDDLE EAST"};

struct NationInfo {
  const char* name;
  int region;  // index into kRegions
};

const NationInfo kNations[25] = {
    {"ALGERIA", 0},        {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},         {"CHINA", 2},     {"EGYPT", 4},
    {"ETHIOPIA", 0},       {"FRANCE", 3},    {"GERMANY", 3},
    {"INDIA", 2},          {"INDONESIA", 2}, {"IRAN", 4},
    {"IRAQ", 4},           {"JAPAN", 2},     {"JORDAN", 4},
    {"KENYA", 0},          {"MOROCCO", 0},   {"MOZAMBIQUE", 0},
    {"PERU", 1},           {"ROMANIA", 3},   {"RUSSIA", 3},
    {"SAUDI ARABIA", 4},   {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1},  {"VIETNAM", 2},
};

const char* const kShipModes[7] = {"AIR",     "FOB",  "MAIL", "RAIL",
                                   "REG AIR", "SHIP", "TRUCK"};
const char* const kOrderPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                         "4-NOT SPECIFIED", "5-LOW"};
const char* const kMktSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};
const char* const kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

/// SSB city: the nation name truncated/padded to 9 characters plus one
/// digit, e.g. "UNITED KI1".
std::string CityName(int nation, int digit) {
  std::string name = kNations[nation].name;
  name.resize(9, ' ');
  name += static_cast<char>('0' + digit);
  return name;
}

std::vector<std::string> SortedUnique(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

/// Adds a dictionary-encoded string column where codes are produced by `fn`.
template <typename CodeFn>
Status AddStringColumn(Table* table, const std::string& name,
                       std::vector<std::string> sorted_dictionary, int64_t rows,
                       CodeFn fn) {
  auto column = StringColumn::FromDictionary(name, std::move(sorted_dictionary));
  column->Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) column->AppendCode(fn(i));
  return table->AddColumn(std::move(column));
}

}  // namespace

const char* const kSsbSelectionColumns[8] = {
    "lo_quantity",      "lo_discount", "lo_shippriority", "lo_extendedprice",
    "lo_ordtotalprice", "lo_revenue",  "lo_supplycost",   "lo_tax"};

SsbSizes ComputeSsbSizes(const SsbGeneratorOptions& options) {
  const double sf = std::max(options.scale_factor, 0.01);
  SsbSizes sizes;
  sizes.lineorder = static_cast<int64_t>(sf * kSsbLineorderRowsPerSf);
  // Paper-scale SSB would be customer 30k*SF and supplier 2k*SF; dividing
  // those by our 1/100 data scale would leave fewer than one supplier per
  // city, emptying the flight-3/4 query results. Dimensions are therefore
  // scaled by only 1/10 — they are small either way (the working set is
  // dominated by lineorder), and per-city cardinalities stay realistic.
  sizes.customer = std::max<int64_t>(300, static_cast<int64_t>(sf * 3000));
  sizes.supplier = std::max<int64_t>(100, static_cast<int64_t>(sf * 1000));
  const double log_sf = sf > 1 ? std::floor(std::log2(sf)) : 0;
  sizes.part = static_cast<int64_t>(2000 * (1 + log_sf));
  sizes.date = 0;
  for (int year = 1992; year <= 1998; ++year) {
    sizes.date += IsLeapYear(year) ? 366 : 365;
  }
  return sizes;
}

DatabasePtr GenerateSsbDatabase(const SsbGeneratorOptions& options) {
  const SsbSizes sizes = ComputeSsbSizes(options);
  auto database = std::make_shared<Database>();
  Rng rng(options.seed);

  // --- Dictionaries ----------------------------------------------------------
  std::vector<std::string> region_dict(kRegions, kRegions + 5);
  std::vector<std::string> nation_dict;
  for (const NationInfo& nation : kNations) nation_dict.push_back(nation.name);
  // kNations is sorted by name; region/nation dicts are order-preserving.
  std::vector<std::string> city_dict;
  for (int nation = 0; nation < 25; ++nation) {
    for (int digit = 0; digit < 10; ++digit) {
      city_dict.push_back(CityName(nation, digit));
    }
  }
  city_dict = SortedUnique(std::move(city_dict));
  HETDB_CHECK(city_dict.size() == 250);

  std::vector<std::string> mfgr_dict, category_dict, brand_dict;
  for (int m = 1; m <= 5; ++m) {
    mfgr_dict.push_back("MFGR#" + std::to_string(m));
    for (int c = 1; c <= 5; ++c) {
      category_dict.push_back("MFGR#" + std::to_string(m) + std::to_string(c));
      for (int b = 1; b <= 40; ++b) {
        brand_dict.push_back("MFGR#" + std::to_string(m) + std::to_string(c) +
                             std::to_string(b));
      }
    }
  }
  mfgr_dict = SortedUnique(std::move(mfgr_dict));
  category_dict = SortedUnique(std::move(category_dict));
  brand_dict = SortedUnique(std::move(brand_dict));

  // Map (mfgr 0..4, cat 0..4, brand 0..39) to the sorted brand code.
  auto brand_code = [&](int m, int c, int b) {
    const std::string name = "MFGR#" + std::to_string(m + 1) +
                             std::to_string(c + 1) + std::to_string(b + 1);
    auto it = std::lower_bound(brand_dict.begin(), brand_dict.end(), name);
    return static_cast<int32_t>(it - brand_dict.begin());
  };
  auto category_code = [&](int m, int c) {
    const std::string name =
        "MFGR#" + std::to_string(m + 1) + std::to_string(c + 1);
    auto it = std::lower_bound(category_dict.begin(), category_dict.end(), name);
    return static_cast<int32_t>(it - category_dict.begin());
  };

  // City index (nation * 10 + digit) -> sorted city code, and geography maps.
  std::vector<int32_t> city_code(250);
  std::vector<int32_t> city_to_nation_code(250);
  std::vector<int32_t> city_to_region_code(250);
  for (int nation = 0; nation < 25; ++nation) {
    for (int digit = 0; digit < 10; ++digit) {
      const std::string name = CityName(nation, digit);
      auto it = std::lower_bound(city_dict.begin(), city_dict.end(), name);
      const int idx = nation * 10 + digit;
      city_code[idx] = static_cast<int32_t>(it - city_dict.begin());
      city_to_nation_code[idx] = static_cast<int32_t>(nation);
      city_to_region_code[idx] =
          static_cast<int32_t>(kNations[nation].region);
    }
  }

  // --- date ------------------------------------------------------------------
  {
    auto table = std::make_shared<Table>("date");
    std::vector<int32_t> datekey, year, yearmonthnum, weeknuminyear, month;
    std::vector<int32_t> yearmonth_codes;
    std::vector<std::string> yearmonth_dict;
    for (int y = 1992; y <= 1998; ++y) {
      for (int m = 1; m <= 12; ++m) {
        yearmonth_dict.push_back(std::string(kMonthNames[m - 1]) +
                                 std::to_string(y));
      }
    }
    yearmonth_dict = SortedUnique(std::move(yearmonth_dict));
    auto yearmonth_code = [&](int y, int m) {
      const std::string name =
          std::string(kMonthNames[m - 1]) + std::to_string(y);
      auto it =
          std::lower_bound(yearmonth_dict.begin(), yearmonth_dict.end(), name);
      return static_cast<int32_t>(it - yearmonth_dict.begin());
    };
    for (int y = 1992; y <= 1998; ++y) {
      int day_of_year = 0;
      for (int m = 1; m <= 12; ++m) {
        for (int d = 1; d <= DaysInMonth(y, m); ++d) {
          ++day_of_year;
          datekey.push_back(y * 10000 + m * 100 + d);
          year.push_back(y);
          yearmonthnum.push_back(y * 100 + m);
          weeknuminyear.push_back((day_of_year - 1) / 7 + 1);
          month.push_back(m);
          yearmonth_codes.push_back(yearmonth_code(y, m));
        }
      }
    }
    HETDB_CHECK(static_cast<int64_t>(datekey.size()) == sizes.date);
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("d_datekey", std::move(datekey))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("d_year", std::move(year))));
    HETDB_CHECK_OK(table->AddColumn(std::make_shared<Int32Column>(
        "d_yearmonthnum", std::move(yearmonthnum))));
    HETDB_CHECK_OK(table->AddColumn(std::make_shared<Int32Column>(
        "d_weeknuminyear", std::move(weeknuminyear))));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("d_month", std::move(month))));
    auto ym = StringColumn::FromDictionary("d_yearmonth", yearmonth_dict);
    for (int32_t code : yearmonth_codes) ym->AppendCode(code);
    HETDB_CHECK_OK(table->AddColumn(std::move(ym)));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- customer ----------------------------------------------------------------
  {
    const int64_t rows = sizes.customer;
    auto table = std::make_shared<Table>("customer");
    std::vector<int32_t> custkey(rows);
    std::vector<int32_t> city_idx(rows);
    for (int64_t i = 0; i < rows; ++i) {
      custkey[i] = static_cast<int32_t>(i + 1);
      city_idx[i] = static_cast<int32_t>(rng.Uniform(0, 249));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("c_custkey", std::move(custkey))));
    HETDB_CHECK_OK(AddStringColumn(table.get(), "c_city", city_dict, rows,
                                   [&](int64_t i) { return city_code[city_idx[i]]; }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "c_nation", nation_dict, rows,
        [&](int64_t i) { return city_to_nation_code[city_idx[i]]; }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "c_region", region_dict, rows,
        [&](int64_t i) { return city_to_region_code[city_idx[i]]; }));
    std::vector<std::string> segment_dict(kMktSegments, kMktSegments + 5);
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "c_mktsegment", segment_dict, rows,
        [&](int64_t) { return static_cast<int32_t>(rng.Uniform(0, 4)); }));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- supplier ----------------------------------------------------------------
  {
    const int64_t rows = sizes.supplier;
    auto table = std::make_shared<Table>("supplier");
    std::vector<int32_t> suppkey(rows);
    std::vector<int32_t> city_idx(rows);
    for (int64_t i = 0; i < rows; ++i) {
      suppkey[i] = static_cast<int32_t>(i + 1);
      city_idx[i] = static_cast<int32_t>(rng.Uniform(0, 249));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("s_suppkey", std::move(suppkey))));
    HETDB_CHECK_OK(AddStringColumn(table.get(), "s_city", city_dict, rows,
                                   [&](int64_t i) { return city_code[city_idx[i]]; }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "s_nation", nation_dict, rows,
        [&](int64_t i) { return city_to_nation_code[city_idx[i]]; }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "s_region", region_dict, rows,
        [&](int64_t i) { return city_to_region_code[city_idx[i]]; }));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- part --------------------------------------------------------------------
  {
    const int64_t rows = sizes.part;
    auto table = std::make_shared<Table>("part");
    std::vector<int32_t> partkey(rows), size(rows);
    std::vector<int32_t> mfgr_idx(rows), cat_idx(rows), brand_idx(rows);
    for (int64_t i = 0; i < rows; ++i) {
      partkey[i] = static_cast<int32_t>(i + 1);
      mfgr_idx[i] = static_cast<int32_t>(rng.Uniform(0, 4));
      cat_idx[i] = static_cast<int32_t>(rng.Uniform(0, 4));
      brand_idx[i] = static_cast<int32_t>(rng.Uniform(0, 39));
      size[i] = static_cast<int32_t>(rng.Uniform(1, 50));
    }
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("p_partkey", std::move(partkey))));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "p_mfgr", mfgr_dict, rows, [&](int64_t i) {
          return static_cast<int32_t>(mfgr_idx[i]);  // mfgr dict is sorted 1..5
        }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "p_category", category_dict, rows,
        [&](int64_t i) { return category_code(mfgr_idx[i], cat_idx[i]); }));
    HETDB_CHECK_OK(AddStringColumn(
        table.get(), "p_brand1", brand_dict, rows, [&](int64_t i) {
          return brand_code(mfgr_idx[i], cat_idx[i], brand_idx[i]);
        }));
    HETDB_CHECK_OK(table->AddColumn(
        std::make_shared<Int32Column>("p_size", std::move(size))));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  // --- lineorder -----------------------------------------------------------------
  {
    const int64_t rows = sizes.lineorder;
    auto table = std::make_shared<Table>("lineorder");
    Result<TablePtr> date_table = database->GetTable("date");
    HETDB_CHECK(date_table.ok());
    const auto& datekeys = static_cast<const Int32Column&>(
                               *date_table.value()->columns()[0])
                               .values();

    std::vector<int32_t> orderkey(rows), linenumber(rows), custkey(rows),
        partkey(rows), suppkey(rows), orderdate(rows), quantity(rows),
        extendedprice(rows), ordtotalprice(rows), discount(rows),
        revenue(rows), supplycost(rows), tax(rows), commitdate(rows),
        shippriority(rows);
    std::vector<int32_t> shipmode_codes(rows);

    for (int64_t i = 0; i < rows; ++i) {
      orderkey[i] = static_cast<int32_t>(i / 7 + 1);
      linenumber[i] = static_cast<int32_t>(i % 7 + 1);
      custkey[i] = static_cast<int32_t>(rng.Uniform(1, sizes.customer));
      partkey[i] = static_cast<int32_t>(rng.Uniform(1, sizes.part));
      suppkey[i] = static_cast<int32_t>(rng.Uniform(1, sizes.supplier));
      orderdate[i] = datekeys[rng.Uniform(0, sizes.date - 1)];
      commitdate[i] = datekeys[rng.Uniform(0, sizes.date - 1)];
      quantity[i] = static_cast<int32_t>(rng.Uniform(1, 50));
      discount[i] = static_cast<int32_t>(rng.Uniform(0, 10));
      tax[i] = static_cast<int32_t>(rng.Uniform(0, 8));
      const int32_t price = static_cast<int32_t>(rng.Uniform(90000, 110000));
      extendedprice[i] = price * quantity[i] / 10;
      ordtotalprice[i] = static_cast<int32_t>(rng.Uniform(1000, 500000));
      revenue[i] = extendedprice[i] * (100 - discount[i]) / 100;
      supplycost[i] = price * 6 / 10;
      // Constant, as in TPC-H: the B.1 micro-workload predicate
      // "lo_shippriority > 0" then selects no rows, like the other seven
      // Listing-1 predicates (the workload measures scans, not results).
      shippriority[i] = 0;
      shipmode_codes[i] = static_cast<int32_t>(rng.Uniform(0, 6));
    }

    auto add32 = [&](const char* name, std::vector<int32_t> values) {
      HETDB_CHECK_OK(table->AddColumn(
          std::make_shared<Int32Column>(name, std::move(values))));
    };
    add32("lo_orderkey", std::move(orderkey));
    add32("lo_linenumber", std::move(linenumber));
    add32("lo_custkey", std::move(custkey));
    add32("lo_partkey", std::move(partkey));
    add32("lo_suppkey", std::move(suppkey));
    add32("lo_orderdate", std::move(orderdate));
    add32("lo_quantity", std::move(quantity));
    add32("lo_extendedprice", std::move(extendedprice));
    add32("lo_ordtotalprice", std::move(ordtotalprice));
    add32("lo_discount", std::move(discount));
    add32("lo_revenue", std::move(revenue));
    add32("lo_supplycost", std::move(supplycost));
    add32("lo_tax", std::move(tax));
    add32("lo_commitdate", std::move(commitdate));
    add32("lo_shippriority", std::move(shippriority));
    std::vector<std::string> shipmode_dict(kShipModes, kShipModes + 7);
    HETDB_CHECK_OK(AddStringColumn(table.get(), "lo_shipmode", shipmode_dict,
                                   rows,
                                   [&](int64_t i) { return shipmode_codes[i]; }));
    HETDB_CHECK_OK(database->AddTable(std::move(table)));
  }

  return database;
}

}  // namespace hetdb
