#ifndef DECA_WORKLOADS_LR_H_
#define DECA_WORKLOADS_LR_H_

#include <vector>

#include "analysis/global_classifier.h"
#include "common/field_codec.h"
#include "core/sudt_layout.h"
#include "spark/context.h"
#include "workloads/common.h"

namespace deca::workloads {

/// Parameters shared by the two iterative ML workloads (LR and KMeans).
struct MlParams {
  int dims = 10;
  uint64_t num_points = 100000;  // across all partitions
  int iterations = 10;
  int clusters = 10;  // KMeans only
  Mode mode = Mode::kSpark;
  spark::SparkConfig spark;
  /// Sample live LabeledPoint count + GC time once per iteration
  /// (Figure 9a).
  bool profile = false;
  uint64_t seed = 42;

  /// The job-spec params blob; `spark` travels as the JobSpec's config.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = MlParams;
    DECA_WIRE(dims);
    DECA_WIRE(num_points);
    DECA_WIRE(iterations);
    DECA_WIRE(clusters);
    DECA_WIRE(mode);
    DECA_WIRE(profile);
    DECA_WIRE(seed);
  }
};

/// The managed types, annotated-type model, classification verdict, and
/// record operations for the paper's LabeledPoint/DenseVector running
/// example. Built once per context.
class LrTypes {
 public:
  LrTypes(jvm::ClassRegistry* registry, int dims);

  uint32_t labeled_point_cls() const { return labeled_point_cls_; }
  uint32_t dense_vector_cls() const { return dense_vector_cls_; }
  const spark::RecordOps& ops() const { return ops_; }
  const core::SudtLayout& layout() const { return layout_; }
  int dims() const { return dims_; }

  /// Size-type of LabeledPoint per the global classifier over the LR
  /// stage's call graph (paper Section 3.3: SFST).
  analysis::SizeType classified() const { return classified_; }

  /// Builds one LabeledPoint object graph in `heap`; caller roots it.
  jvm::ObjRef NewLabeledPoint(jvm::Heap* heap, double label,
                              const double* features) const;

  // Cached field offsets.
  uint32_t lp_label_off() const { return lp_label_off_; }
  uint32_t lp_features_off() const { return lp_features_off_; }
  uint32_t dv_data_off() const { return dv_data_off_; }

 private:
  void BuildUdtModel();
  void BuildOps();

  int dims_;
  jvm::ClassRegistry* registry_;
  uint32_t labeled_point_cls_;
  uint32_t dense_vector_cls_;
  uint32_t lp_label_off_, lp_features_off_;
  uint32_t dv_data_off_, dv_offset_off_, dv_stride_off_, dv_length_off_;

  analysis::TypeUniverse universe_;
  const analysis::UdtType* lp_udt_ = nullptr;
  analysis::CallGraph stage_cg_;
  analysis::SizeType classified_ = analysis::SizeType::kVariable;
  core::SudtLayout layout_;
  spark::RecordOps ops_;
};

struct LrResult {
  RunResult run;
  std::vector<double> weights;  // final model, for cross-mode validation
};

/// Points are cached as sub-blocks of at most this many bytes (object
/// form), so block materialization interleaves with LRU eviction the way
/// Spark's unroll memory does.
inline constexpr uint64_t kPointSubBlockBytes = 4u << 20;

/// Generates and caches `count` points for this task's partition as
/// sub-blocks under `rdd_id`. `gen` fills the feature buffer and returns
/// the label. Used by both LR and KMeans.
void CachePoints(spark::TaskContext& tc, const LrTypes& types, int rdd_id,
                 bool deca, uint32_t page_bytes, uint64_t count,
                 const std::function<double(double* feats)>& gen);

/// Visits every cached sub-block of (rdd_id, this partition) in order,
/// streaming swapped ones back from disk. Blocks are fetched one at a time
/// — the callback must root any managed refs it holds across allocations.
void ForEachPointBlock(
    spark::TaskContext& tc, int rdd_id,
    const std::function<void(const spark::LoadedBlock&)>& fn);

/// Runs the paper's Logistic Regression benchmark (Figure 1's program):
/// cache the labeled points, then `iterations` gradient steps. Execution
/// time excludes the load stage, as in the paper (Section 6.2).
LrResult RunLogisticRegression(const MlParams& params);

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_LR_H_
