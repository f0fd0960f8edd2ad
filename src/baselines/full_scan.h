// Trivial baseline: scan every row for every query.
#ifndef TSUNAMI_BASELINES_FULL_SCAN_H_
#define TSUNAMI_BASELINES_FULL_SCAN_H_

#include <string>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Full scan over the column store in original row order. The reference
/// implementation every other index is validated against.
class FullScanIndex : public MultiDimIndex {
 public:
  explicit FullScanIndex(const Dataset& data) : store_(data) {}

  std::string Name() const override { return "FullScan"; }
  /// One inexact range over every row.
  QueryPlan Prepare(const Query& query) const override {
    QueryPlan plan(query);
    plan.tasks.push_back(RangeTask{0, store_.size(), /*exact=*/false});
    plan.counters.cell_ranges = 1;
    return plan;
  }
  int64_t IndexSizeBytes() const override { return 0; }
  const ColumnStore& store() const override { return store_; }

 private:
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_FULL_SCAN_H_
