#ifndef HETDB_SSB_SSB_GENERATOR_H_
#define HETDB_SSB_SSB_GENERATOR_H_

#include <cstdint>

#include "storage/database.h"

namespace hetdb {

/// Deterministic Star Schema Benchmark data generator (O'Neil et al.).
///
/// One HetDB scale-factor unit is 1/100 of a paper scale factor (DESIGN.md
/// §2): SF 10 generates 600,000 lineorder tuples instead of 60 million, with
/// all simulated device capacities scaled by the same factor, so the
/// working-set-to-cache ratios of the paper's experiments are preserved.
///
/// Value distributions follow the SSB specification where the benchmark
/// queries depend on them (uniform lo_discount 0..10, lo_quantity 1..50,
/// 5 regions x 5 nations x 10 cities, p_mfgr/p_category/p_brand1 hierarchy,
/// 7 calendar years 1992-1998), so every query's selectivity matches the
/// paper's workload.
struct SsbGeneratorOptions {
  double scale_factor = 1.0;
  uint64_t seed = 42;
};

/// Row counts implied by the options (used by tests and Figure 16).
struct SsbSizes {
  int64_t lineorder = 0;
  int64_t customer = 0;
  int64_t supplier = 0;
  int64_t part = 0;
  int64_t date = 0;
};
SsbSizes ComputeSsbSizes(const SsbGeneratorOptions& options);

/// Generates the five SSB tables into a fresh database.
DatabasePtr GenerateSsbDatabase(const SsbGeneratorOptions& options);

/// The eight lineorder measure columns used by the Appendix B.1 selection
/// micro-workload, in workload order.
extern const char* const kSsbSelectionColumns[8];

}  // namespace hetdb

#endif  // HETDB_SSB_SSB_GENERATOR_H_
