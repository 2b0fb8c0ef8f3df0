#ifndef ISLABENCH_ANSWER_H_
#define ISLABENCH_ANSWER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace islabench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One answered value of a SELECT response: the single row of an ungrouped
/// answer, or one group's row. Fields the response did not print stay NaN.
struct AnswerRow {
  bool has_key = false;
  double key = 0.0;
  double value = kNaN;
  double avg_half_width = kNaN;  // "avg +/- w": the AVG CI at β
  double count = kNaN;           // "count~c"
  uint64_t n = 0;                // "n=k": matching samples (sketch rows)
  double rank_error = kNaN;      // "rank +/- r"
  double lo = kNaN;              // "value in [lo, hi]": Query(q ∓ ε)
  double hi = kNaN;
};

/// A parsed query-server response.
struct Answer {
  bool ok = false;
  std::string error;         // the text after "error: " when !ok
  std::string aggregate;     // "AVG", "SUM", "COUNT", "QUANTILE", ... ("" if
                             // the response is not a SELECT answer)
  bool grouped = false;
  uint64_t total_groups = 0;  // "top k of N group(s)" → N; else rows.size()
  uint64_t samples = 0;       // "samples=S"
  uint64_t rounds = 0;        // "rounds=R" of a streamed answer
  double precision = kNaN;    // "precision=+/-e" of an ISLA engine answer
  double confidence = kNaN;   // the "@β" of the answer's band
  std::vector<AnswerRow> rows;
};

/// Parses a final (non-PARTIAL) response payload. Fails when the payload
/// starts with neither "ok\n" nor "error: ", or when a SELECT answer does
/// not have the shape the server prints. Non-SELECT "ok" responses (DDL,
/// SET, SHOW) parse with an empty `aggregate`.
isla::Result<Answer> ParseAnswer(std::string_view payload);

/// The response with its wall-clock part (", <t> ms]" of the header line)
/// removed: what must be identical across executions of one statement.
std::string StripTiming(std::string_view payload);

}  // namespace islabench

#endif  // ISLABENCH_ANSWER_H_
