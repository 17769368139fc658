#ifndef DECA_CORE_PLANNER_H_
#define DECA_CORE_PLANNER_H_

#include <string>
#include <vector>

#include "analysis/size_type.h"

namespace deca::core {

/// The three kinds of data containers Deca manages (paper Section 4.2).
enum class ContainerKind {
  kUdfVariables,
  kCacheBlock,
  kShuffleBuffer,
};

/// How a container stores its data after planning.
enum class ContainerLayout {
  /// Plain managed objects (not decomposable, or UDF variables).
  kObjects,
  /// Objects decomposed into this container's own page group.
  kDecomposed,
  /// Pointers (SegPtrs) into the primary container's page group, with a
  /// depPages link keeping it alive (paper Figure 7a).
  kPointersToPrimary,
  /// A shared copy of the primary's page-info: both containers use the
  /// same page group, reclaimed by reference counting (paper's special
  /// case of the fully decomposable scenario).
  kSharedPageInfo,
};

/// One container in a job stage, as seen by the planner.
struct ContainerSpec {
  std::string name;
  ContainerKind kind = ContainerKind::kUdfVariables;
  /// Order in which the container is created during stage execution.
  int creation_order = 0;
  /// Size-type of the objects while held by this container (after phased
  /// refinement).
  analysis::SizeType size_type = analysis::SizeType::kVariable;
  /// True when this container holds exactly the same object set as the
  /// other containers of its group and imposes no ordering of its own.
  bool same_objects_no_ordering = false;
};

/// Planning result for one container.
struct ContainerDecision {
  ContainerLayout layout = ContainerLayout::kObjects;
  /// Index (within the group) of the owning container; -1 when this
  /// container is itself the primary or stores plain objects it owns.
  int primary_index = -1;
};

/// Applies the paper's ownership and decomposability rules (Section 4.3)
/// to a group of containers sharing the same data objects:
///   1. cached RDDs and shuffle buffers out-prioritize UDF variables;
///   2. among high-priority containers, the first created owns the data;
///   3. the primary decomposes its objects iff their size-type is SFST or
///      RFST; secondaries either share the page group, point into it, or
///      decompose their own copy (partially decomposable scenario).
class DecompositionPlanner {
 public:
  static std::vector<ContainerDecision> Plan(
      const std::vector<ContainerSpec>& group);

  /// Index of the primary container per the ownership rules.
  static int PrimaryIndex(const std::vector<ContainerSpec>& group);
};

}  // namespace deca::core

#endif  // DECA_CORE_PLANNER_H_
