#include "answer.h"

#include <cstdlib>
#include <cstring>

#include "common/status.h"

namespace islabench {

namespace {

using isla::Status;

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t eol = text.find('\n', start);
    if (eol == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, eol - start));
    start = eol + 1;
  }
  return lines;
}

/// The number right after the first occurrence of `key` in `line`, or NaN.
double NumberAfter(std::string_view line, std::string_view key) {
  size_t at = line.find(key);
  if (at == std::string_view::npos) return kNaN;
  std::string tail(line.substr(at + key.size()));
  char* end = nullptr;
  double v = std::strtod(tail.c_str(), &end);
  return end == tail.c_str() ? kNaN : v;
}

uint64_t UintAfter(std::string_view line, std::string_view key) {
  double v = NumberAfter(line, key);
  return v == v && v >= 0.0 ? static_cast<uint64_t>(v) : 0;
}

bool IsUpperWord(std::string_view w) {
  if (w.empty()) return false;
  for (char c : w) {
    if (c < 'A' || c > 'Z') return false;
  }
  return true;
}

/// Parses "<AGG> = <value>" at the start of `text`; returns the aggregate
/// name and sets *value, or "" when the text has another shape.
std::string AggregateAndValue(std::string_view text, double* value) {
  size_t eq = text.find(" = ");
  if (eq == std::string_view::npos) return "";
  std::string_view agg = text.substr(0, eq);
  if (!IsUpperWord(agg)) return "";
  *value = NumberAfter(text, " = ");
  return std::string(agg);
}

/// Fills the band fields of `row` from an annotation ("avg +/- w @b, ..."
/// or "rank +/- r @b, value in [lo, hi], ..."). Returns the "@β" level.
double ParseAnnotation(std::string_view text, AnswerRow* row) {
  if (text.find("avg +/- ") != std::string_view::npos) {
    row->avg_half_width = NumberAfter(text, "avg +/- ");
  }
  if (text.find("rank +/- ") != std::string_view::npos) {
    row->rank_error = NumberAfter(text, "rank +/- ");
    row->lo = NumberAfter(text, "value in [");
    size_t at = text.find("value in [");
    if (at != std::string_view::npos) {
      row->hi = NumberAfter(text.substr(at), ", ");
    }
  }
  row->count = NumberAfter(text, "count~");
  row->n = UintAfter(text, ", n=");
  return NumberAfter(text, " @");
}

}  // namespace

isla::Result<Answer> ParseAnswer(std::string_view payload) {
  Answer out;
  if (payload.rfind("error: ", 0) == 0) {
    out.error = std::string(payload.substr(7));
    return out;
  }
  if (payload.rfind("ok\n", 0) != 0) {
    return Status::Corruption("response starts with neither 'ok\\n' nor "
                              "'error: ': " +
                              std::string(payload.substr(0, 40)));
  }
  out.ok = true;
  std::vector<std::string_view> lines = SplitLines(payload.substr(3));
  std::string_view head = lines.front();
  if (head.find("[method=") == std::string_view::npos) return out;  // not a SELECT
  out.samples = UintAfter(head, "samples=");
  out.rounds = UintAfter(head, "rounds=");

  const size_t groups_at = head.find(" group(s)");
  if (groups_at != std::string_view::npos &&
      head.find(" = ") == std::string_view::npos) {
    out.grouped = true;
    if (head.rfind("top ", 0) == 0) {
      out.total_groups = UintAfter(head, " of ");
    }
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string_view line = lines[i];
      if (line.rfind("  ", 0) != 0 || line.rfind("    ", 0) == 0) continue;
      line.remove_prefix(2);
      size_t eq = line.find('=');
      size_t gap = line.find("  ");
      if (eq == std::string_view::npos || gap == std::string_view::npos) {
        return Status::Corruption("bad group row: " + std::string(line));
      }
      AnswerRow row;
      row.has_key = true;
      row.key = NumberAfter(line.substr(0, gap), "=");
      std::string agg = AggregateAndValue(line.substr(gap + 2), &row.value);
      if (agg.empty()) {
        return Status::Corruption("bad group row: " + std::string(line));
      }
      out.aggregate = agg;
      size_t bracket = line.find("  [");
      if (bracket != std::string_view::npos) {
        out.confidence = ParseAnnotation(line.substr(bracket + 3), &row);
      }
      out.rows.push_back(row);
    }
    if (out.total_groups == 0) out.total_groups = out.rows.size();
    return out;
  }

  AnswerRow row;
  out.aggregate = AggregateAndValue(head, &row.value);
  if (out.aggregate.empty()) {
    return Status::Corruption("bad answer header: " + std::string(head));
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (line.rfind("  sketch0=", 0) == 0) {
      out.precision = NumberAfter(line, "precision=+/-");
      out.confidence = NumberAfter(line, " @");
    } else if (line.rfind("  avg +/- ", 0) == 0 ||
               line.rfind("  rank +/- ", 0) == 0) {
      out.confidence = ParseAnnotation(line, &row);
    }
  }
  out.rows.push_back(row);
  out.total_groups = 1;
  return out;
}

std::string StripTiming(std::string_view payload) {
  std::string out(payload);
  size_t eol = out.find('\n', payload.rfind("ok\n", 0) == 0 ? 3 : 0);
  size_t ms = out.rfind(" ms]", eol);
  if (ms == std::string::npos) return out;
  size_t comma = out.rfind(", ", ms);
  if (comma == std::string::npos) return out;
  out.erase(comma, ms + 3 - comma);
  return out;
}

}  // namespace islabench
