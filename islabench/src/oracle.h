#ifndef ISLABENCH_ORACLE_H_
#define ISLABENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "answer.h"
#include "common/result.h"
#include "storage/table.h"

namespace islabench {

enum class Agg { kAvg, kSum, kCount, kQuantile };

/// A generated statement in structured form. The benchmark renders the SQL
/// from it and answers it exactly from its own oracle; the server only ever
/// sees the rendered text. Predicates are on the aggregated `value`
/// column, grouping is on the `grp` key column.
struct StmtSpec {
  Agg agg = Agg::kAvg;
  std::string table;
  bool has_pred = false;
  char op = '>';          // '<' or '>'
  double literal = 0.0;   // exactly the double the rendered text parses to
  bool grouped = false;
  uint64_t top_k = 0;
  double q = 0.5;         // QUANTILE's q
  double precision = 0.1; // WITHIN e

  std::string Sql() const;
};

/// Rounds `x` to `digits` decimals the way the SQL text prints it and
/// returns the double that text parses back to.
double AsPrinted(double x, int digits);

/// The exact truth of one group (or of the whole table when ungrouped).
struct GroupTruth {
  double key = 0.0;
  uint64_t count = 0;
  double sum = 0.0;
  double avg() const { return count == 0 ? kNaN : sum / count; }
};

/// Exact answers over a (value, grp) table built once: per-group sorted
/// values with block prefix sums, so any `value op literal` selection
/// costs a binary search per group and quantiles a search over values.
class ExactOracle {
 public:
  /// Reads every row of `values` (and the row-aligned `keys`, nullable).
  static isla::Result<ExactOracle> Build(const isla::storage::Column& values,
                                         const isla::storage::Column* keys);

  uint64_t rows() const { return rows_; }

  /// Per-group truth of the selection (ascending key; one implicit group
  /// with key 0 when `grouped` is false or the table has no keys).
  std::vector<GroupTruth> Groups(const StmtSpec& s, bool grouped) const;

  /// The q-quantile of the selected values: the value of rank floor(q·n)
  /// (0-based, clamped) in sorted order — the sketch's own convention.
  double Quantile(const StmtSpec& s) const;

 private:
  struct Group {
    double key = 0.0;
    std::vector<double> sorted;
    std::vector<double> block_prefix;  // sum of sorted[0, 64·i)
    double PrefixSum(size_t end) const;
  };
  /// [begin, end) of the rows of `g` that satisfy the predicate.
  static std::pair<size_t, size_t> Range(const Group& g, const StmtSpec& s);

  uint64_t rows_ = 0;
  std::vector<Group> groups_;
};

/// What checking one answer found.
struct CheckResult {
  uint64_t values = 0;  // answered values that carry a reported interval
  uint64_t misses = 0;  // ... whose exact truth lies outside it
  std::string defect;   // non-empty: the answer is structurally wrong
};

/// Compares a parsed answer with the oracle: AVG against its ±half-width
/// (ungrouped ISLA engine answers: ±e), SUM as SUM/count (ungrouped ISLA:
/// SUM/M against ±e), QUANTILE's truth against [lo, hi]. COUNT values are
/// not scored: the response prints no interval for the count.
CheckResult CheckAnswer(const StmtSpec& s, const Answer& a,
                        const ExactOracle& oracle);

}  // namespace islabench

#endif  // ISLABENCH_ORACLE_H_
