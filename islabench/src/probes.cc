#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/block_solver.h"
#include "core/boundaries.h"
#include "core/engine.h"
#include "core/group_by.h"
#include "core/pre_estimation.h"
#include "core/summarizer.h"
#include "distributed/coordinator.h"
#include "distributed/message.h"
#include "engine/query.h"
#include "engine/scan_scheduler.h"
#include "engine/session.h"
#include "runtime/kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "storage/block.h"
#include "util/rng.h"
#include "wire.h"

namespace islabench {

namespace {

using isla::Status;
namespace core = isla::core;
namespace kernels = isla::runtime::kernels;

/// Where the kernel probes store their results, so none is optimized away.
volatile double g_sink = 0.0;

/// The engine's Calculation-phase stream salt (core/engine.cc), so the
/// replayed phases draw the same samples as IslaEngine::AggregateAvg.
constexpr uint64_t kCalcPhaseSalt = 0xca1cULL;

double Median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median microseconds of `reps` calls of `fn`.
double TimeMedianUs(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNanos();
    fn();
    us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  return Median(us);
}

/// Which statement shapes reach which layer (the executor's routing).
bool TakesGroupedPath(const StmtSpec& s) {
  return s.has_pred || s.grouped || s.agg == Agg::kCount ||
         s.agg == Agg::kQuantile;
}

bool SchedulerEligible(const StmtSpec& s) {
  return TakesGroupedPath(s) && s.agg != Agg::kQuantile && s.top_k == 0;
}

/// Columns of the statement's table in the probe session.
struct Columns {
  const isla::storage::Column* values = nullptr;
  const isla::storage::Column* keys = nullptr;
  std::shared_ptr<const isla::storage::Table> table;  // keeps them alive
};

isla::Result<Columns> Resolve(isla::engine::Session* session,
                              const StmtSpec& s) {
  Columns c;
  ISLA_ASSIGN_OR_RETURN(c.table, session->catalog()->GetTable(s.table));
  ISLA_ASSIGN_OR_RETURN(c.values, c.table->GetColumn("value"));
  if (s.grouped) {
    ISLA_ASSIGN_OR_RETURN(c.keys, c.table->GetColumn("grp"));
  }
  return c;
}

core::IslaOptions OptionsFor(const StmtSpec& s) {
  core::IslaOptions o;
  o.precision = s.precision;
  return o;
}

core::GroupedSpec GroupedFor(const StmtSpec& s, const Columns& c) {
  core::GroupedSpec g;
  g.values = c.values;
  if (s.has_pred) {
    g.predicate = c.values;
    g.op = s.op == '>' ? core::PredicateOp::kGt : core::PredicateOp::kLt;
    g.literal = s.literal;
  }
  g.keys = c.keys;
  g.want_sketch = s.agg == Agg::kQuantile;
  if (g.want_sketch) g.summary.quantile_q = s.q;
  g.summary.top_k = s.top_k;
  return g;
}

std::vector<uint64_t> BlockSizes(const isla::storage::Column& col) {
  std::vector<uint64_t> sizes;
  for (const auto& b : col.blocks()) sizes.push_back(b->size());
  return sizes;
}

/// One sampled pass of the grouped pipeline over every block, merged in
/// block order (GroupByEngine's run_phase).
Status GroupedPass(const core::GroupedSpec& g, const core::IslaOptions& o,
                   uint64_t phase_salt, uint64_t total, bool want_sketch,
                   core::GroupedBlockPartial* merged) {
  const isla::storage::Column& values = *g.values;
  const size_t nb = values.num_blocks();
  std::vector<uint64_t> alloc =
      isla::sampling::ProportionalAllocation(BlockSizes(values), total);
  auto block_of = [](const isla::storage::Column* col, size_t j) {
    return col == nullptr ? nullptr : col->blocks()[j].get();
  };
  std::vector<core::GroupedBlockPartial> partials(nb);
  ISLA_RETURN_NOT_OK(isla::runtime::ParallelFor(
      nb, o.parallelism, [&](uint64_t j) -> Status {
        isla::Xoshiro256 rng(isla::SplitMix64::Hash(o.seed, phase_salt, j));
        return core::RunGroupedBlockPass(
            *values.blocks()[j], block_of(g.predicate, j), g.op, g.literal,
            block_of(g.keys, j), alloc[j], &rng, &partials[j], nullptr,
            want_sketch);
      }));
  for (const core::GroupedBlockPartial& p : partials) {
    ISLA_RETURN_NOT_OK(merged->Merge(p));
  }
  return Status::OK();
}

struct StatementCounts {
  std::vector<double> core_samples, core_pilot, iterations, clamped;
  std::vector<double> grouped_rows, pass_rows_per_s, sketch_rows_per_s;
};

/// Replays GroupByEngine::Aggregate phase by phase under `parent`.
Status ProbeGroupBy(const StmtSpec& s, const Columns& c, uint64_t parent,
                    uint64_t trace, Tracer* tracer, StatementCounts* counts) {
  const core::IslaOptions o = OptionsFor(s);
  const core::GroupedSpec g = GroupedFor(s, c);
  core::GroupByEngine engine(o);
  int64_t t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(core::GroupedAggregateResult whole,
                        engine.Aggregate(g));
  const uint64_t agg =
      tracer->Record("groupby.aggregate", parent, trace, t0, NowNanos());
  counts->grouped_rows.push_back(
      static_cast<double>(whole.scanned_samples + whole.pilot_samples));

  const uint64_t rows = c.values->num_rows();
  t0 = NowNanos();
  core::GroupedBlockPartial pilot_merged;
  ISLA_RETURN_NOT_OK(GroupedPass(g, o, core::kGroupPilotSalt,
                                 std::min<uint64_t>(o.sigma_pilot_size, rows),
                                 false, &pilot_merged));
  core::GroupedPilot pilot;
  pilot.pilot_samples = pilot_merged.scanned;
  pilot.all = pilot_merged.all;
  pilot.groups = std::move(pilot_merged.groups);
  tracer->Record("groupby.pilot", agg, trace, t0, NowNanos());

  t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(uint64_t scan, core::PlanGroupedScan(
                                           pilot, o, rows, g.want_sketch));
  tracer->Record("groupby.plan", agg, trace, t0, NowNanos());

  core::GroupedBlockPartial main;
  t0 = NowNanos();
  if (scan > 0) {
    ISLA_RETURN_NOT_OK(GroupedPass(g, o, core::kGroupCalcSalt, scan,
                                   g.want_sketch, &main));
  }
  int64_t t1 = NowNanos();
  tracer->Record("groupby.block_pass", agg, trace, t0, t1);
  if (scan > 0 && t1 > t0) {
    (g.want_sketch ? counts->sketch_rows_per_s : counts->pass_rows_per_s)
        .push_back(static_cast<double>(main.scanned) * 1e9 /
                   static_cast<double>(t1 - t0));
  }

  t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(core::GroupedAggregateResult result,
                        core::SummarizeGroups(main.groups, rows, main.scanned,
                                              pilot.pilot_samples, o));
  if (g.want_sketch) {
    ISLA_RETURN_NOT_OK(core::ApplyQuantileSummary(main.sketches, g.summary,
                                                  o, true, &result));
  }
  core::ApplyTopK(g.summary.top_k, &result);
  tracer->Record("groupby.summarize", agg, trace, t0, NowNanos());

  // The same main pass with (or without) per-group sketches, for the
  // block pass's throughput in both modes; not part of the span tree.
  if (scan > 0) {
    core::GroupedBlockPartial other;
    t0 = NowNanos();
    ISLA_RETURN_NOT_OK(GroupedPass(g, o, core::kGroupCalcSalt, scan,
                                   !g.want_sketch, &other));
    t1 = NowNanos();
    if (t1 > t0) {
      (g.want_sketch ? counts->pass_rows_per_s : counts->sketch_rows_per_s)
          .push_back(static_cast<double>(other.scanned) * 1e9 /
                     static_cast<double>(t1 - t0));
    }
  }
  return Status::OK();
}

/// Replays IslaEngine::AggregateAvg phase by phase under `parent`.
Status ProbeCore(const StmtSpec& s, const Columns& c, uint64_t parent,
                 uint64_t trace, Tracer* tracer, StatementCounts* counts) {
  const core::IslaOptions o = OptionsFor(s);
  const isla::storage::Column& column = *c.values;
  core::IslaEngine engine(o);
  int64_t t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(core::AggregateResult whole,
                        engine.AggregateAvg(column));
  const uint64_t agg =
      tracer->Record("core.aggregate", parent, trace, t0, NowNanos());
  counts->core_samples.push_back(static_cast<double>(whole.total_samples));
  counts->core_pilot.push_back(static_cast<double>(whole.pilot_samples));
  for (const core::BlockReport& b : whole.blocks) {
    counts->iterations.push_back(static_cast<double>(b.answer.iterations));
    counts->clamped.push_back(b.answer.clamped ? 1.0 : 0.0);
  }

  isla::Xoshiro256 rng(isla::SplitMix64::Hash(o.seed, 0));
  t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(core::PilotEstimate pilot,
                        core::RunPreEstimation(column, o, &rng));
  tracer->Record("core.pilot", agg, trace, t0, NowNanos());
  if (!(pilot.sigma > 0.0)) return Status::OK();

  const double shift = pilot.min_value > 0.0
                           ? 0.0
                           : -pilot.min_value + 3.0 * pilot.sigma + 1.0;
  const double sketch0 = pilot.sketch0 + shift;
  ISLA_ASSIGN_OR_RETURN(
      core::DataBoundaries bounds,
      core::DataBoundaries::Create(sketch0, pilot.sigma, o.p1, o.p2));
  const std::vector<uint64_t> sizes = BlockSizes(column);
  const std::vector<uint64_t> alloc =
      isla::sampling::ProportionalAllocation(sizes, pilot.target_sample_size);
  // One ParallelFor over the blocks, as the engine runs it; the wall time
  // is split between sampling and iteration by their summed block times.
  const size_t nb = column.num_blocks();
  std::vector<double> partials(nb);
  std::vector<int64_t> sampling_ns(nb), iteration_ns(nb);
  t0 = NowNanos();
  ISLA_RETURN_NOT_OK(isla::runtime::ParallelFor(
      nb, o.parallelism, [&](uint64_t j) -> Status {
        isla::Xoshiro256 block_rng(
            isla::SplitMix64::Hash(o.seed, kCalcPhaseSalt, j));
        core::BlockParams params;
        const int64_t b0 = NowNanos();
        ISLA_RETURN_NOT_OK(core::RunSamplingPhase(*column.blocks()[j], bounds,
                                                  alloc[j], shift, &block_rng,
                                                  &params));
        const int64_t b1 = NowNanos();
        ISLA_ASSIGN_OR_RETURN(core::BlockAnswer a,
                              core::RunIterationPhase(params, sketch0, o));
        sampling_ns[j] = b1 - b0;
        iteration_ns[j] = NowNanos() - b1;
        partials[j] = a.avg;
        return Status::OK();
      }));
  const int64_t t1 = NowNanos();
  double sampling = 0.0, iteration = 0.0;
  for (size_t j = 0; j < nb; ++j) {
    sampling += static_cast<double>(sampling_ns[j]);
    iteration += static_cast<double>(iteration_ns[j]);
  }
  const int64_t split =
      t0 + static_cast<int64_t>(static_cast<double>(t1 - t0) * sampling /
                                std::max(1.0, sampling + iteration));
  tracer->Record("core.sampling", agg, trace, t0, split);
  tracer->Record("core.iteration", agg, trace, split, t1);

  t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(double avg, core::SummarizePartials(partials, sizes));
  (void)avg;
  tracer->Record("core.summarize", agg, trace, t0, NowNanos());
  return Status::OK();
}

/// Runs one statement through every layer it reaches.
Status ProbeOne(const StmtSpec& s, uint64_t trace,
                isla::engine::Session* session,
                isla::engine::ScanScheduler* direct, Tracer* tracer,
                StatementCounts* counts) {
  const std::string sql = s.Sql();
  int64_t t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(std::string text, session->Execute(sql));
  const uint64_t root =
      tracer->Record("engine.session", 0, trace, t0, NowNanos());
  (void)text;

  t0 = NowNanos();
  ISLA_ASSIGN_OR_RETURN(isla::engine::QuerySpec parsed,
                        isla::engine::ParseQuery(sql));
  tracer->Record("engine.parse", root, trace, t0, NowNanos());
  (void)parsed;

  ISLA_ASSIGN_OR_RETURN(Columns c, Resolve(session, s));
  if (!TakesGroupedPath(s)) return ProbeCore(s, c, root, trace, tracer, counts);
  uint64_t parent = root;
  if (SchedulerEligible(s)) {
    // A second scheduler that has seen the same statement sequence, so its
    // cache state matches the one the session just used.
    t0 = NowNanos();
    ISLA_ASSIGN_OR_RETURN(core::GroupedAggregateResult r,
                          direct->Execute(GroupedFor(s, c), OptionsFor(s), 0));
    parent = tracer->Record("scheduler.execute", root, trace, t0, NowNanos());
    (void)r;
  }
  return ProbeGroupBy(s, c, parent, trace, tracer, counts);
}

void Put(LayerReport* report, const std::string& name, double v) {
  report->metrics[name] = v;
}

}  // namespace

// --- Tracer ---

uint64_t Tracer::Record(const std::string& name, uint64_t parent,
                        uint64_t trace, int64_t start_ns, int64_t end_ns) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool Tracer::Has(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return true;
  }
  return false;
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans_) {
    if (s.name == name) v.push_back(s.micros());
  }
  return Median(v);
}

double Tracer::MedianSelfUs(const std::string& name) const {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.micros();
  }
  std::vector<double> v;
  for (const Span& s : spans_) {
    if (s.name == name) v.push_back(s.micros() - child_us[s.id]);
  }
  return Median(v);
}

Status Tracer::WriteJsonl(const std::string& path,
                          const std::string& header) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out << header << "\n";
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return out ? Status::OK() : Status::IOError("short write " + path);
}

// --- Probes ---

Status ProbeStatements(isla::engine::Session* session,
                       const std::vector<StmtSpec>& statements,
                       const std::vector<StmtSpec>& reference,
                       LayerReport* report) {
  isla::engine::ScanScheduler session_scheduler;
  isla::engine::ScanScheduler direct;
  session->set_scheduler(&session_scheduler);
  StatementCounts own, ref;
  uint64_t trace = 0;
  for (const StmtSpec& s : statements) {
    ISLA_RETURN_NOT_OK(
        ProbeOne(s, ++trace, session, &direct, &report->tracer, &own));
  }
  for (const StmtSpec& s : reference) {
    ISLA_RETURN_NOT_OK(
        ProbeOne(s, ++trace, session, &direct, &report->reference, &ref));
  }

  // A guaranteed result-cache hit: repeats of one statement on a scheduler
  // that has already answered it.
  std::vector<const StmtSpec*> order;
  for (const StmtSpec& s : statements) order.push_back(&s);
  for (const StmtSpec& s : reference) order.push_back(&s);
  for (const StmtSpec* s : order) {
    if (!SchedulerEligible(*s)) continue;
    ISLA_ASSIGN_OR_RETURN(Columns c, Resolve(session, *s));
    isla::engine::ScanScheduler fresh;
    const core::GroupedSpec g = GroupedFor(*s, c);
    ISLA_RETURN_NOT_OK(fresh.Execute(g, OptionsFor(*s), 0).status());
    Put(report, "scheduler.result_hit_us", TimeMedianUs(5, [&] {
          (void)fresh.Execute(g, OptionsFor(*s), 0);
        }));
    break;
  }
  session->set_scheduler(nullptr);

  // Each span metric comes from the workload's own statements when they
  // reach the layer, else from the reference statements (noted).
  auto from = [&](const std::string& span) -> const Tracer& {
    return report->tracer.Has(span) ? report->tracer : report->reference;
  };
  const std::vector<std::pair<std::string, std::string>> spans = {
      {"engine.session_us", "engine.session"},
      {"engine.parse_us", "engine.parse"},
      {"scheduler.execute_us", "scheduler.execute"},
      {"groupby.aggregate_us", "groupby.aggregate"},
      {"groupby.plan_us", "groupby.plan"},
      {"groupby.summarize_us", "groupby.summarize"},
      {"core.aggregate_us", "core.aggregate"},
      {"core.pilot_us", "core.pilot"},
      {"core.sampling_us", "core.sampling"},
      {"core.iteration_us", "core.iteration"},
      {"core.summarize_us", "core.summarize"}};
  for (const auto& [metric, span] : spans) {
    Put(report, metric, from(span).MedianUs(span));
    if (!report->tracer.Has(span)) {
      report->notes.push_back(metric + " from reference statements (the "
                              "workload does not reach " + span + ")");
    }
  }
  const std::vector<std::pair<std::string, std::string>> selfs = {
      {"engine.self_us", "engine.session"},
      {"scheduler.self_us", "scheduler.execute"},
      {"groupby.self_us", "groupby.aggregate"},
      {"core.self_us", "core.aggregate"}};
  for (const auto& [metric, span] : selfs) {
    Put(report, metric, from(span).MedianSelfUs(span));
  }
  const StatementCounts& core_counts = own.core_samples.empty() ? ref : own;
  Put(report, "core.samples_per_stmt", Median(core_counts.core_samples));
  Put(report, "core.pilot_samples_per_stmt", Median(core_counts.core_pilot));
  Put(report, "core.iterations_per_block", Mean(core_counts.iterations));
  Put(report, "core.clamped_share", Mean(core_counts.clamped));
  const StatementCounts& grp = own.grouped_rows.empty() ? ref : own;
  Put(report, "groupby.rows_scanned_per_stmt", Median(grp.grouped_rows));
  Put(report, "groupby.block_pass_rows_per_s", Median(grp.pass_rows_per_s));
  Put(report, "groupby.block_pass_sketch_rows_per_s",
      Median(grp.sketch_rows_per_s));
  return Status::OK();
}

Status ProbeStorage(const isla::storage::Block& file_block,
                    const isla::storage::Block& generator_block,
                    uint64_t seed, LayerReport* report) {
  constexpr size_t kBatch = 4096;
  std::vector<double> out(kBatch);
  auto rate = [&](const isla::storage::Block& block,
                  uint64_t salt) -> isla::Result<double> {
    isla::Xoshiro256 rng(isla::SplitMix64::Hash(seed, salt));
    std::vector<uint64_t> idx(kBatch);
    std::vector<double> per_s;
    for (int rep = 0; rep < 200; ++rep) {
      for (uint64_t& i : idx) i = rng.NextBounded(block.size());
      int64_t t0 = NowNanos();
      ISLA_RETURN_NOT_OK(block.GatherAt(idx, out.data()));
      int64_t dt = std::max<int64_t>(1, NowNanos() - t0);
      per_s.push_back(static_cast<double>(kBatch) * 1e9 /
                      static_cast<double>(dt));
    }
    return Median(per_s);
  };
  ISLA_ASSIGN_OR_RETURN(double file_rate, rate(file_block, 0x51));
  ISLA_ASSIGN_OR_RETURN(double gen_rate, rate(generator_block, 0x52));
  Put(report, "storage.gather_file_rows_per_s", file_rate);
  Put(report, "storage.gather_generator_rows_per_s", gen_rate);
  return Status::OK();
}

Status ProbeRuntime(uint64_t seed, LayerReport* report) {
  std::atomic<uint64_t> sink{0};
  auto body = [&sink](uint64_t j) -> Status {
    sink.fetch_add(j, std::memory_order_relaxed);
    return Status::OK();
  };
  Put(report, "runtime.parallel_for_us", TimeMedianUs(500, [&] {
        (void)isla::runtime::ParallelFor(8, 0, body);
      }));
  std::vector<std::vector<double>> per_thread(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < per_thread.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        int64_t t0 = NowNanos();
        (void)isla::runtime::ParallelFor(8, 0, body);
        per_thread[t].push_back(static_cast<double>(NowNanos() - t0) / 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  Put(report, "runtime.parallel_for_contended_us", Median(all));

  // The kernels the sampling and grouped paths call, at the active tier.
  constexpr size_t kRows = 16384;
  isla::Xoshiro256 rng(isla::SplitMix64::Hash(seed, 0x6b));
  std::vector<double> v(kRows), keys(kRows), out_v(kRows), out_k(kRows),
      out_s(kRows), out_l(kRows);
  std::vector<uint64_t> idx(kRows);
  std::vector<uint8_t> mask(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    v[i] = 100.0 + 20.0 * (rng.NextDouble() - 0.5) * 3.4;
    keys[i] = static_cast<double>(rng.NextBounded(16));
    idx[i] = rng.NextBounded(kRows);
    mask[i] = static_cast<uint8_t>(rng.NextBounded(2));
  }
  const kernels::KernelOps& ops = kernels::Ops();
  double sink_d = 0.0;
  size_t sink_n = 0;
  const std::vector<std::pair<std::string, std::function<void()>>> ks = {
      {"eval_predicate_mask",
       [&] { ops.eval_predicate_mask(kernels::CmpOp::kGt, v.data(), kRows,
                                     100.0, mask.data()); }},
      {"compact_grouped",
       [&] { sink_n += ops.compact_grouped(v.data(), keys.data(), mask.data(),
                                           kRows, out_v.data(),
                                           out_k.data()); }},
      {"classify_regions",
       [&] {
         size_t s = 0, l = 0;
         ops.classify_regions(v.data(), kRows, 0.0, 60.0, 90.0, 110.0, 140.0,
                              out_s.data(), &s, out_l.data(), &l);
         sink_n += s + l;
       }},
      {"gather_f64",
       [&] { ops.gather_f64(v.data(), idx.data(), kRows, out_v.data()); }},
      {"min", [&] { sink_d += ops.min(v.data(), kRows); }},
      {"sum", [&] { sink_d += ops.sum(v.data(), kRows); }}};
  for (const auto& [name, fn] : ks) {
    const double us = TimeMedianUs(300, fn);
    Put(report, "kernels." + name + "_rows_per_s",
        static_cast<double>(kRows) / (std::max(us, 1e-3) * 1e-6));
  }
  g_sink = sink_d + static_cast<double>(sink_n);  // keeps the results live
  return Status::OK();
}

Status ProbeCluster(isla::distributed::Transport* failover,
                    isla::distributed::Transport* tcp,
                    isla::distributed::Transport* loopback, uint64_t seed,
                    LayerReport* report) {
  core::IslaOptions o;
  o.precision = 0.3;
  isla::distributed::Coordinator coordinator(failover, o);
  uint64_t qid = isla::SplitMix64::Hash(seed, 0xc1);
  std::vector<double> coord_us;
  for (int i = 0; i < 60; ++i) {
    int64_t t0 = NowNanos();
    ISLA_RETURN_NOT_OK(coordinator.AggregateAvg(++qid).status());
    coord_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  Put(report, "cluster.coordinator_us", Median(coord_us));

  isla::distributed::PilotRequest req;
  req.query_id = qid;
  req.sample_count = o.sigma_pilot_size / 4;
  req.seed = isla::SplitMix64::Hash(o.seed, qid);
  const std::string frame = isla::distributed::Encode(req);
  ISLA_ASSIGN_OR_RETURN(std::string over_tcp, tcp->Call(0, frame));
  ISLA_ASSIGN_OR_RETURN(std::string local, loopback->Call(0, frame));
  if (over_tcp != local) {
    return Status::Internal("TCP and loopback answers differ on one request");
  }
  Put(report, "cluster.tcp_call_us",
      TimeMedianUs(300, [&] { (void)tcp->Call(0, frame); }));
  Put(report, "cluster.loopback_call_us",
      TimeMedianUs(300, [&] { (void)loopback->Call(0, frame); }));
  return Status::OK();
}

Status ProbeNet(SqlClient* client, LayerReport* report) {
  ISLA_ASSIGN_OR_RETURN(std::string server, client->Execute("SHOW SERVER STATS"));
  auto value_of = [](const std::string& text, const std::string& key) {
    size_t at = text.find("\n" + key + " = ");
    if (at == std::string::npos) return kNaN;
    return std::strtod(text.c_str() + at + key.size() + 4, nullptr);
  };
  Put(report, "net.server_stmt_p50_us",
      value_of(server, "latency_p50_ms") * 1e3);
  Put(report, "net.server_stmt_p99_us",
      value_of(server, "latency_p99_ms") * 1e3);

  ISLA_ASSIGN_OR_RETURN(std::string stats, client->Execute("SHOW STATS"));
  const double queries = value_of(stats, "queries");
  const double batched = value_of(stats, "batched_queries");
  const double ph = value_of(stats, "pilot_cache_hits");
  const double pm = value_of(stats, "pilot_cache_misses");
  const double rh = value_of(stats, "result_cache_hits");
  const double rm = value_of(stats, "result_cache_misses");
  const double gathered = value_of(stats, "rows_gathered");
  const double requested = value_of(stats, "rows_requested");
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  Put(report, "scheduler.result_hit_rate", ratio(rh, rh + rm));
  Put(report, "scheduler.pilot_hit_rate", ratio(ph, ph + pm));
  Put(report, "scheduler.batched_share", ratio(batched, queries));
  Put(report, "scheduler.rows_gathered_per_requested",
      ratio(gathered, requested));

  std::vector<double> rtt;
  for (int i = 0; i < 300; ++i) {
    int64_t t0 = NowNanos();
    ISLA_ASSIGN_OR_RETURN(std::string r, client->Execute("SET pilot 1000"));
    rtt.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    if (r.rfind("ok\n", 0) != 0) return Status::Internal("SET failed: " + r);
  }
  Put(report, "net.noop_rtt_us", Median(rtt));
  return Status::OK();
}

void SummarizeLayers(double stmt_p50_ms, bool cluster, LayerReport* report) {
  auto& m = report->metrics;
  const double client_us = stmt_p50_ms * 1e3;
  // A cluster call's layers are the coordinator's (an idle call); a query
  // server statement's are the round trip plus the in-process session.
  const double layers =
      cluster ? m["cluster.coordinator_us"]
              : m["net.noop_rtt_us"] + m["engine.session_us"];
  m["trace.stmt_p50_us"] = client_us;
  m["trace.gap_us"] = client_us - layers;
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "layer self times (median us): net(noop rtt)=" << m["net.noop_rtt_us"]
     << " engine=" << m["engine.self_us"]
     << " parse=" << m["engine.parse_us"]
     << " scheduler=" << m["scheduler.self_us"]
     << " groupby=" << m["groupby.self_us"] << " core=" << m["core.self_us"];
  report->notes.push_back(os.str());
  os.str("");
  if (cluster) {
    os << "client call p50 " << client_us << " us = idle coordinator call "
       << m["cluster.coordinator_us"] << " (tcp request "
       << m["cluster.tcp_call_us"] << " vs loopback "
       << m["cluster.loopback_call_us"] << ") + unexplained gap "
       << m["trace.gap_us"] << " us";
  } else {
    os << "client stmt p50 " << client_us << " us = net "
       << m["net.noop_rtt_us"] << " + session " << m["engine.session_us"]
       << " + unexplained gap " << m["trace.gap_us"]
       << " us; server-side p50 " << m["net.server_stmt_p50_us"] << " us";
  }
  report->notes.push_back(os.str());
}

}  // namespace islabench
