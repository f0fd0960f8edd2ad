// The Augmented Grid (§5): a Flood-style grid whose dimensions may be
// partitioned independently (CDF(X)), removed via a functional mapping
// (F: X -> target), or partitioned conditionally (CDF(X | base)). With the
// all-independent skeleton this *is* Flood's index structure; Tsunami
// instantiates one Augmented Grid per Grid Tree region.
#ifndef TSUNAMI_CORE_AUGMENTED_GRID_H_
#define TSUNAMI_CORE_AUGMENTED_GRID_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cdf/cdf_model.h"
#include "src/cdf/conditional_cdf.h"
#include "src/common/linear_model.h"
#include "src/common/types.h"
#include "src/core/skeleton.h"
#include "src/storage/column_store.h"

namespace tsunami {

class AugmentedGrid {
 public:
  struct BuildOptions {
    /// Dimensions ordered most- to least-selective; used to pick the sort
    /// dimension (points within a cell are sorted by it and scans refine
    /// with binary search, the refinement of §6.1). Empty = dimension order.
    std::vector<int> selectivity_order;
    /// Force a specific sort dimension (-1 = choose automatically).
    int sort_dim = -1;
    /// Hard cap on the number of grid cells (lookup-table entries).
    int64_t max_cells = int64_t{1} << 22;
    /// Outlier buffer for functional mappings (§8 "Complex Correlations"):
    /// rows whose residual under a mapping falls outside the
    /// [fraction, 1-fraction] residual quantile band are moved to a
    /// separate always-scanned buffer when doing so shrinks the mapping's
    /// error band by at least 4x. 0 disables the buffer.
    double fm_outlier_fraction = 0.001;
  };

  AugmentedGrid() = default;
  AugmentedGrid(AugmentedGrid&&) = default;
  AugmentedGrid& operator=(AugmentedGrid&&) = default;
  /// Deep copy: the CDF models sit behind unique_ptrs purely to keep them
  /// polymorphic, so a clone duplicates them. The store attachment copies
  /// verbatim — a caller cloning a whole index must re-Attach the copy to
  /// its own store (the LoadFromFile / RepairedCopy pattern).
  AugmentedGrid(const AugmentedGrid& other);
  AugmentedGrid& operator=(const AugmentedGrid& other);

  /// Builds the grid over the rows `(*rows)[i]` of `data` and reorders
  /// *rows into the grid's clustered order (cells ascending; within a cell,
  /// sorted by the sort dimension). `partitions` holds the partition count
  /// per dimension; mapped dimensions are forced to 1. The skeleton must
  /// Validate().
  void Build(const Dataset& data, std::vector<uint32_t>* rows,
             const Skeleton& skeleton, std::vector<int> partitions,
             const BuildOptions& options);

  /// Points the grid at the column store holding its rows, which must be
  /// stored contiguously at [base, base + num_rows).
  void Attach(const ColumnStore* store, int64_t base);

  /// Plans the physical row ranges the query must scan — candidate cell
  /// runs after binary-search refinement, plus the outlier buffer — and
  /// appends them to `tasks` without touching row data (beyond the
  /// refinement binary searches). Counts visited runs into
  /// counters->cell_ranges. Callers batch tasks across grids/regions and
  /// submit them to the scan kernel in one go.
  void PlanRanges(const Query& query, std::vector<RangeTask>* tasks,
                  QueryResult* counters) const;

  int64_t SizeBytes() const;

  /// Persistence (§8): serializes every model and lookup table; excludes
  /// the store attachment, which the caller re-establishes via Attach().
  void Serialize(BinaryWriter* writer) const;
  bool Deserialize(BinaryReader* reader);

  int64_t num_rows() const { return num_rows_; }
  int64_t num_cells() const { return num_cells_; }
  /// Rows held in the outlier buffer instead of grid cells (§8 extension).
  int64_t num_outliers() const { return num_rows_ - grid_rows_; }
  int sort_dim() const { return sort_dim_; }
  const Skeleton& skeleton() const { return skeleton_; }
  const std::vector<int>& partitions() const { return partitions_; }

 private:
  struct DimRange {
    int lo = 0;
    int hi = -1;  // Inclusive; lo > hi means empty.
  };

  // Recursive odometer over grid_dims_[depth..]; `cell_base` accumulates
  // partition * stride for the fixed outer dimensions, `covered` tracks
  // whether every filtered outer dimension's partition is fully inside its
  // original filter. Emits one RangeTask per non-empty innermost run.
  void EnumerateRuns(const Query& query, const std::vector<DimRange>& indep,
                     const std::vector<Value>& eff_lo,
                     const std::vector<Value>& eff_hi,
                     const std::vector<bool>& has_eff,
                     const std::vector<Value>& orig_lo,
                     const std::vector<Value>& orig_hi,
                     const std::vector<bool>& has_orig, int depth,
                     int64_t cell_base, bool covered, bool mapped_covered,
                     std::vector<int>* cur_part,
                     std::vector<RangeTask>* tasks,
                     QueryResult* counters) const;

  int dims_ = 0;
  int64_t num_rows_ = 0;
  int64_t grid_rows_ = 0;  // Inlier rows placed in cells; outliers follow.
  Skeleton skeleton_;
  std::vector<int> partitions_;
  std::vector<int> grid_dims_;     // Ordered; sort dim last.
  std::vector<int64_t> strides_;   // Parallel to grid_dims_.
  int sort_dim_ = -1;
  int64_t num_cells_ = 1;

  std::vector<std::unique_ptr<EquiDepthCdf>> models_;  // Independent dims.
  std::vector<ConditionalCdf> ccdfs_;                  // Conditional dims.
  std::vector<BoundedLinearModel> fms_;                // Mapped dims.
  std::vector<std::vector<Value>> part_min_;  // Exact per-partition bounds
  std::vector<std::vector<Value>> part_max_;  // for independent dims.
  std::vector<Value> dim_min_;  // Region bounds per dimension.
  std::vector<Value> dim_max_;

  // Region-local row offsets; size num_cells_ + 1. 32-bit entries: the
  // lookup table dominates index size (§5.1), so keep it compact.
  std::vector<uint32_t> cell_start_;
  const ColumnStore* store_ = nullptr;
  int64_t base_ = 0;
};

}  // namespace tsunami

#endif  // TSUNAMI_CORE_AUGMENTED_GRID_H_
