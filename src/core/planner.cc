#include "core/planner.h"

#include "common/logging.h"

namespace deca::core {

using analysis::IsDecomposable;

int DecompositionPlanner::PrimaryIndex(
    const std::vector<ContainerSpec>& group) {
  DECA_CHECK(!group.empty());
  int best = -1;
  for (size_t i = 0; i < group.size(); ++i) {
    const ContainerSpec& c = group[i];
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const ContainerSpec& b = group[static_cast<size_t>(best)];
    bool c_high = c.kind != ContainerKind::kUdfVariables;
    bool b_high = b.kind != ContainerKind::kUdfVariables;
    // Rule 1: cache blocks and shuffle buffers have priority over UDF
    // variables. Rule 2: among equals, first created wins.
    if ((c_high && !b_high) ||
        (c_high == b_high && c.creation_order < b.creation_order)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<ContainerDecision> DecompositionPlanner::Plan(
    const std::vector<ContainerSpec>& group) {
  int primary = PrimaryIndex(group);
  const ContainerSpec& p = group[static_cast<size_t>(primary)];
  bool primary_decomposed = p.kind != ContainerKind::kUdfVariables &&
                            IsDecomposable(p.size_type);

  std::vector<ContainerDecision> result(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    const ContainerSpec& c = group[i];
    ContainerDecision& d = result[i];
    if (static_cast<int>(i) == primary) {
      d.layout = primary_decomposed ? ContainerLayout::kDecomposed
                                    : ContainerLayout::kObjects;
      d.primary_index = -1;
      continue;
    }
    d.primary_index = primary;
    if (c.kind == ContainerKind::kUdfVariables) {
      // UDF variables over decomposed data receive page-segment pointers;
      // over plain objects they receive references.
      d.layout = primary_decomposed ? ContainerLayout::kPointersToPrimary
                                    : ContainerLayout::kObjects;
      continue;
    }
    if (!IsDecomposable(c.size_type)) {
      d.layout = ContainerLayout::kObjects;
      continue;
    }
    if (primary_decomposed) {
      // Fully decomposable scenario (paper Figure 7a): share the page
      // group outright when contents and ordering allow, otherwise store
      // pointers plus a depPages link.
      d.layout = c.same_objects_no_ordering
                     ? ContainerLayout::kSharedPageInfo
                     : ContainerLayout::kPointersToPrimary;
    } else {
      // Partially decomposable scenario (paper Figure 7b): the primary
      // (e.g. a groupByKey shuffle buffer) keeps objects, but this
      // container decomposes its own copy since modifications need not
      // propagate back.
      d.layout = ContainerLayout::kDecomposed;
    }
  }
  return result;
}

}  // namespace deca::core
