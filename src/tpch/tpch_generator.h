#ifndef HETDB_TPCH_TPCH_GENERATOR_H_
#define HETDB_TPCH_TPCH_GENERATOR_H_

#include <cstdint>

#include "storage/database.h"

namespace hetdb {

/// Deterministic TPC-H data generator for the query subset Q2–Q7 evaluated
/// in the paper (Appendix C.2).
///
/// Scale: as with SSB, one HetDB scale-factor unit is 1/100 of a paper scale
/// factor (SF 10 -> 600,000 lineitem rows). Simplifications, mirroring the
/// paper's own modifications ("advanced capabilities such as ... substring
/// functions are not in our scope"):
///
///  * monetary values are integer cents (exact arithmetic on all backends);
///  * `p_type3` stores the third syllable of p_type so Q2's
///    "p_type like '%BRASS'" becomes an equality predicate;
///  * `l_shipyear` materializes year(l_shipdate) for Q7's GROUP BY.
struct TpchGeneratorOptions {
  double scale_factor = 1.0;
  uint64_t seed = 1234;
};

struct TpchSizes {
  int64_t region = 5;
  int64_t nation = 25;
  int64_t supplier = 0;
  int64_t customer = 0;
  int64_t part = 0;
  int64_t partsupp = 0;
  int64_t orders = 0;
  int64_t lineitem_max = 0;  ///< upper bound; actual count is data-dependent
};
TpchSizes ComputeTpchSizes(const TpchGeneratorOptions& options);

/// Generates the eight TPC-H tables into a fresh database.
DatabasePtr GenerateTpchDatabase(const TpchGeneratorOptions& options);

}  // namespace hetdb

#endif  // HETDB_TPCH_TPCH_GENERATOR_H_
