#ifndef DECA_WORKLOADS_WORDCOUNT_H_
#define DECA_WORKLOADS_WORDCOUNT_H_

#include <cstdint>

#include "common/field_codec.h"
#include "workloads/common.h"

namespace deca::workloads {

/// Parameters for the two-stage WordCount benchmark (paper Section 6.1).
/// Words are modelled as 64-bit ids drawn from `distinct_keys` values
/// (the paper's Hadoop RandomWriter datasets are parameterized the same
/// way: total size x unique key count); the GC behaviour under study lives
/// in the shuffle buffer's Tuple2/boxed-value objects, which are preserved
/// exactly.
struct WordCountParams {
  uint64_t total_words = 1 << 20;   // across all partitions
  uint64_t distinct_keys = 10000;
  double zipf_s = 0.0;              // 0 = uniform, >0 = skewed popularity
  Mode mode = Mode::kSpark;
  spark::SparkConfig spark;
  /// Sample live Tuple2 count + cumulative GC time during the map stage
  /// (Figure 8a), every `profile_every` processed words.
  bool profile = false;
  uint64_t profile_every = 200000;
  uint64_t seed = 99;

  /// The job-spec params blob; `spark` travels as the JobSpec's config.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = WordCountParams;
    DECA_WIRE(total_words);
    DECA_WIRE(distinct_keys);
    DECA_WIRE(zipf_s);
    DECA_WIRE(mode);
    DECA_WIRE(profile);
    DECA_WIRE(profile_every);
    DECA_WIRE(seed);
  }
};

struct WordCountResult {
  RunResult run;
  uint64_t total_count = 0;     // sum of all counts (== total_words)
  uint64_t distinct_found = 0;  // number of distinct keys observed
  uint64_t shuffle_bytes = 0;
};

WordCountResult RunWordCount(const WordCountParams& params);

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_WORDCOUNT_H_
