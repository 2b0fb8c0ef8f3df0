#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/status.h"

namespace islabench {

namespace {

using isla::Status;

constexpr size_t kPrefixStride = 64;
constexpr size_t kMaxKeys = 4096;
constexpr uint64_t kReadChunk = 1 << 16;

const char* AggName(Agg a) {
  switch (a) {
    case Agg::kAvg:
      return "AVG";
    case Agg::kSum:
      return "SUM";
    case Agg::kCount:
      return "COUNT";
    case Agg::kQuantile:
      return "QUANTILE";
  }
  return "?";
}

/// Order-preserving map of doubles onto unsigned integers (finite values).
uint64_t OrderedKey(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

double FromOrderedKey(uint64_t key) {
  uint64_t bits = (key >> 63) != 0 ? key & ~(uint64_t{1} << 63) : ~key;
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

std::string StmtSpec::Sql() const {
  char buf[64];
  std::string sql = "SELECT ";
  sql += AggName(agg);
  if (agg == Agg::kQuantile) {
    std::snprintf(buf, sizeof(buf), "(value, %.2f)", q);
    sql += buf;
  } else {
    sql += "(value)";
  }
  sql += " FROM " + table;
  if (has_pred) {
    std::snprintf(buf, sizeof(buf), " WHERE value %c %.4f", op, literal);
    sql += buf;
  }
  if (grouped) {
    sql += " GROUP BY grp";
    if (top_k > 0) sql += " TOP " + std::to_string(top_k);
  }
  std::snprintf(buf, sizeof(buf), " WITHIN %.4f", precision);
  return sql + buf;
}

double AsPrinted(double x, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
  return std::strtod(buf, nullptr);
}

// --- ExactOracle ---

double ExactOracle::Group::PrefixSum(size_t end) const {
  const size_t block = end / kPrefixStride;
  double s = block_prefix[block];
  for (size_t i = block * kPrefixStride; i < end; ++i) s += sorted[i];
  return s;
}

isla::Result<ExactOracle> ExactOracle::Build(
    const isla::storage::Column& values, const isla::storage::Column* keys) {
  if (keys != nullptr && keys->num_blocks() != values.num_blocks()) {
    return Status::InvalidArgument("key column is not row-aligned");
  }
  ExactOracle out;
  out.rows_ = values.num_rows();
  std::vector<int> slot(kMaxKeys, -1);
  std::vector<double> v, k;
  for (size_t b = 0; b < values.num_blocks(); ++b) {
    const isla::storage::Block& vb = *values.blocks()[b];
    const isla::storage::Block* kb =
        keys == nullptr ? nullptr : keys->blocks()[b].get();
    if (kb != nullptr && kb->size() != vb.size()) {
      return Status::InvalidArgument("key block is not row-aligned");
    }
    for (uint64_t start = 0; start < vb.size(); start += kReadChunk) {
      const uint64_t n = std::min<uint64_t>(kReadChunk, vb.size() - start);
      ISLA_RETURN_NOT_OK(vb.ReadRange(start, n, &v));
      if (kb != nullptr) ISLA_RETURN_NOT_OK(kb->ReadRange(start, n, &k));
      for (uint64_t i = 0; i < n; ++i) {
        double key = kb == nullptr ? 0.0 : k[i];
        if (!(key >= 0.0 && key < kMaxKeys && key == std::floor(key))) {
          return Status::InvalidArgument("oracle keys must be integers in "
                                         "[0, 4096)");
        }
        int& s = slot[static_cast<size_t>(key)];
        if (s < 0) {
          s = static_cast<int>(out.groups_.size());
          out.groups_.push_back(Group{});
          out.groups_.back().key = key;
        }
        out.groups_[static_cast<size_t>(s)].sorted.push_back(v[i]);
      }
    }
  }
  std::sort(out.groups_.begin(), out.groups_.end(),
            [](const Group& a, const Group& b) { return a.key < b.key; });
  for (Group& g : out.groups_) {
    std::sort(g.sorted.begin(), g.sorted.end());
    g.block_prefix.assign(g.sorted.size() / kPrefixStride + 1, 0.0);
    double run = 0.0;
    for (size_t i = 0; i < g.sorted.size(); ++i) {
      if (i % kPrefixStride == 0) g.block_prefix[i / kPrefixStride] = run;
      run += g.sorted[i];
    }
    if (g.sorted.size() % kPrefixStride == 0) {
      g.block_prefix.back() = run;
    }
  }
  return out;
}

std::pair<size_t, size_t> ExactOracle::Range(const Group& g,
                                             const StmtSpec& s) {
  const size_t n = g.sorted.size();
  if (!s.has_pred) return {0, n};
  if (s.op == '>') {
    return {static_cast<size_t>(std::upper_bound(g.sorted.begin(),
                                                 g.sorted.end(), s.literal) -
                                g.sorted.begin()),
            n};
  }
  return {0, static_cast<size_t>(std::lower_bound(g.sorted.begin(),
                                                  g.sorted.end(), s.literal) -
                                 g.sorted.begin())};
}

std::vector<GroupTruth> ExactOracle::Groups(const StmtSpec& s,
                                            bool grouped) const {
  std::vector<GroupTruth> out;
  GroupTruth all;
  for (const Group& g : groups_) {
    auto [b, e] = Range(g, s);
    GroupTruth t;
    t.key = g.key;
    t.count = e - b;
    t.sum = g.PrefixSum(e) - g.PrefixSum(b);
    if (grouped) {
      if (t.count > 0) out.push_back(t);
    } else {
      all.count += t.count;
      all.sum += t.sum;
    }
  }
  if (!grouped) out.push_back(all);
  return out;
}

double ExactOracle::Quantile(const StmtSpec& s) const {
  std::vector<std::pair<size_t, size_t>> ranges;
  uint64_t n = 0;
  double lo = 0.0, hi = 0.0;
  for (const Group& g : groups_) {
    ranges.push_back(Range(g, s));
    auto [b, e] = ranges.back();
    if (e == b) continue;
    lo = n == 0 ? g.sorted[b] : std::min(lo, g.sorted[b]);
    hi = n == 0 ? g.sorted[e - 1] : std::max(hi, g.sorted[e - 1]);
    n += e - b;
  }
  if (n == 0) return kNaN;
  const uint64_t rank = std::min<uint64_t>(
      n - 1, static_cast<uint64_t>(std::floor(s.q * static_cast<double>(n))));
  // Smallest x with #{selected values <= x} > rank.
  uint64_t klo = OrderedKey(lo), khi = OrderedKey(hi);
  while (klo < khi) {
    const uint64_t mid = klo + (khi - klo) / 2;
    const double x = FromOrderedKey(mid);
    uint64_t le = 0;
    for (size_t i = 0; i < groups_.size(); ++i) {
      const std::vector<double>& v = groups_[i].sorted;
      auto [b, e] = ranges[i];
      le += static_cast<uint64_t>(
          std::upper_bound(v.begin() + b, v.begin() + e, x) - (v.begin() + b));
    }
    if (le > rank) {
      khi = mid;
    } else {
      klo = mid + 1;
    }
  }
  return FromOrderedKey(klo);
}

// --- CheckAnswer ---

CheckResult CheckAnswer(const StmtSpec& s, const Answer& a,
                        const ExactOracle& oracle) {
  CheckResult r;
  if (!a.ok) return r;
  if (a.aggregate != AggName(s.agg)) {
    r.defect = "answer aggregate '" + a.aggregate + "' for " + s.Sql();
    return r;
  }
  if (a.grouped != s.grouped) {
    r.defect = "grouping mismatch for " + s.Sql();
    return r;
  }
  // Scores one AVG-shaped estimate against its reported half-width.
  auto score = [&r](double estimate, double truth, double half_width) {
    if (!(half_width >= 0.0)) return false;
    ++r.values;
    if (!(std::fabs(estimate - truth) <= half_width)) ++r.misses;
    return true;
  };
  const bool engine_path = !s.has_pred && !s.grouped && s.agg != Agg::kCount &&
                           s.agg != Agg::kQuantile;

  if (!s.grouped) {
    if (a.rows.size() != 1) {
      r.defect = "ungrouped answer without one row: " + s.Sql();
      return r;
    }
    const AnswerRow& row = a.rows.front();
    const GroupTruth t = oracle.Groups(s, false).front();
    bool scored = true;
    switch (s.agg) {
      case Agg::kQuantile: {
        const double truth = oracle.Quantile(s);
        if (!(row.lo <= row.hi)) {
          scored = false;
          break;
        }
        ++r.values;
        if (!(truth >= row.lo && truth <= row.hi)) ++r.misses;
        break;
      }
      case Agg::kAvg:
        scored = score(row.value, t.avg(),
                       engine_path ? a.precision : row.avg_half_width);
        break;
      case Agg::kSum:
        scored = engine_path
                     ? score(row.value / static_cast<double>(oracle.rows()),
                             t.avg(), a.precision)
                     : score(row.value / row.count, t.avg(),
                             row.avg_half_width);
        break;
      case Agg::kCount:
        break;
    }
    if (!scored) r.defect = "answer without its interval: " + s.Sql();
    return r;
  }

  std::map<double, GroupTruth> truth;
  for (const GroupTruth& t : oracle.Groups(s, true)) truth[t.key] = t;
  if (s.top_k > 0 && a.rows.size() > s.top_k) {
    r.defect = "more than TOP k rows: " + s.Sql();
    return r;
  }
  for (const AnswerRow& row : a.rows) {
    auto it = truth.find(row.key);
    if (it == truth.end()) {
      r.defect = "answer group absent from the selection: " + s.Sql();
      return r;
    }
    bool scored = true;
    if (s.agg == Agg::kAvg) {
      scored = score(row.value, it->second.avg(), row.avg_half_width);
    } else if (s.agg == Agg::kSum) {
      scored = score(row.value / row.count, it->second.avg(),
                     row.avg_half_width);
    }
    if (!scored) {
      r.defect = "group row without its interval: " + s.Sql();
      return r;
    }
  }
  return r;
}

}  // namespace islabench
