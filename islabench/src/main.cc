// islabench — drives the ISLA query server (and a worker cluster) the way
// users do and reports end-to-end metrics, or, with --trace 1, the
// per-layer metrics of a traced run. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   islabench --workload adhoc_avg --seed 1 --seconds 10 --trace 0
//             --serverd <isla_serverd> --workdir <dir> --outdir <dir>
//
// Normally started through run.py, which builds both binaries first.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "runtime/kernels/kernels.h"
#include "wire.h"
#include "workloads.h"

namespace {

using islabench::Exec;
using islabench::LayerReport;
using islabench::LoadStats;
using islabench::Quality;
using islabench::RunConfig;

/// Set-ups per untraced run; the median is reported.
constexpr int kSetups = 5;

const char* const kEndToEnd[][2] = {
    {"stmt_p50_ms", "ms"},    {"stmt_p99_ms", "ms"},
    {"stmts_per_s", "1/s"},   {"answered_rate", "ratio"},
    {"cover_rate", "ratio"},  {"setup_s", "s"},
    {"server_rss_mb", "MiB"}};

const char* const kPerLayer[][2] = {
    {"net.noop_rtt_us", "us"},
    {"net.server_stmt_p50_us", "us"},
    {"net.server_stmt_p99_us", "us"},
    {"net.partial_frames_per_stmt", "count"},
    {"engine.parse_us", "us"},
    {"engine.session_us", "us"},
    {"engine.self_us", "us"},
    {"scheduler.execute_us", "us"},
    {"scheduler.self_us", "us"},
    {"scheduler.result_hit_us", "us"},
    {"scheduler.result_hit_rate", "ratio"},
    {"scheduler.pilot_hit_rate", "ratio"},
    {"scheduler.batched_share", "ratio"},
    {"scheduler.rows_gathered_per_requested", "ratio"},
    {"core.aggregate_us", "us"},
    {"core.self_us", "us"},
    {"core.pilot_us", "us"},
    {"core.sampling_us", "us"},
    {"core.iteration_us", "us"},
    {"core.summarize_us", "us"},
    {"core.samples_per_stmt", "count"},
    {"core.pilot_samples_per_stmt", "count"},
    {"core.iterations_per_block", "count"},
    {"core.clamped_share", "ratio"},
    {"groupby.aggregate_us", "us"},
    {"groupby.self_us", "us"},
    {"groupby.block_pass_rows_per_s", "rows/s"},
    {"groupby.block_pass_sketch_rows_per_s", "rows/s"},
    {"groupby.plan_us", "us"},
    {"groupby.summarize_us", "us"},
    {"groupby.rows_scanned_per_stmt", "count"},
    {"storage.gather_file_rows_per_s", "rows/s"},
    {"storage.gather_generator_rows_per_s", "rows/s"},
    {"runtime.parallel_for_us", "us"},
    {"runtime.parallel_for_contended_us", "us"},
    {"kernels.eval_predicate_mask_rows_per_s", "rows/s"},
    {"kernels.compact_grouped_rows_per_s", "rows/s"},
    {"kernels.classify_regions_rows_per_s", "rows/s"},
    {"kernels.gather_f64_rows_per_s", "rows/s"},
    {"kernels.min_rows_per_s", "rows/s"},
    {"kernels.sum_rows_per_s", "rows/s"},
    {"cluster.coordinator_us", "us"},
    {"cluster.tcp_call_us", "us"},
    {"cluster.loopback_call_us", "us"},
    {"cluster.retries", "count"},
    {"cluster.hedges", "count"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"trace.stmt_p50_us", "us"},
    {"trace.gap_us", "us"}};

/// Nearest-rank percentile; +inf entries (failed statements) sort last.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Client latencies in ms of the selected executions; failures are +inf.
std::vector<double> LatenciesMs(const std::vector<Exec>& execs, int traced) {
  std::vector<double> ms;
  for (const Exec& e : execs) {
    if (traced >= 0 && e.traced != (traced == 1)) continue;
    ms.push_back(e.done_ns == 0 || e.error
                     ? std::numeric_limits<double>::infinity()
                     : static_cast<double>(e.done_ns - e.due_ns) / 1e6);
  }
  return ms;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string MachineIdentity(const std::string& commit) {
  std::string id = "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                   " cpu=\"" + CpuModel() + "\" cpu_flags=\"" +
                   isla::runtime::kernels::CpuFeatureString() +
                   "\" kernels=" +
                   std::string(isla::runtime::kernels::ActiveLevelName()) +
                   " build=" ISLABENCH_BUILD_TYPE " compiler=\"" ISLABENCH_COMPILER
                   "\" commit=" + commit;
  return id;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e12 : 0.0;  // JSON has no inf/NaN
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

/// The three predictions the benchmark was written to confirm or refute.
void PrintPredictions(const std::string& workload, const LayerReport& r,
                      const Quality& q) {
  if (workload == "dashboard") {
    const double hit = r.metrics.at("scheduler.result_hit_us");
    std::printf("prediction 1 (a result-cache hit still pays the 2000 us "
                "admission window): %s; a repeated statement took %.0f us in "
                "ScanScheduler::Execute, server result-cache hit rate %.3f\n",
                hit >= 1900.0 ? "HELD" : "REFUTED", hit,
                r.metrics.at("scheduler.result_hit_rate"));
    const double grouped = r.reference.MedianUs("groupby.aggregate") / 1e3;
    const double plain = r.reference.MedianUs("core.aggregate") / 1e3;
    const bool held = grouped >= 2.75 && grouped <= 11.0 && plain >= 0.18 &&
                      plain <= 0.72;
    std::printf("prediction 2 (16-group GROUP BY at e=0.5 costs ~5.5 ms vs "
                "~0.36 ms ungrouped, within 2x): %s; measured %.3f ms vs "
                "%.3f ms\n",
                held ? "HELD" : "REFUTED", grouped, plain);
  }
  if (workload == "adhoc_avg") {
    auto it = q.per_table.find("x");
    const double miss = it == q.per_table.end() || it->second.second == 0
                            ? 0.0
                            : static_cast<double>(it->second.first) /
                                  static_cast<double>(it->second.second);
    std::printf("prediction 3 (miss rate on the exponential table well above "
                "1-beta = 0.05, i.e. > 0.10): %s; measured %.4f\n",
                miss > 0.10 ? "HELD" : "REFUTED", miss);
  }
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "islabench: %s\n", what.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: islabench --workload W --seed N --seconds S --trace 0|1 "
               "--serverd PATH --workdir DIR --outdir DIR [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string outdir = ".", commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--serverd") cfg.serverd = value;
    else if (flag == "--workdir") cfg.workdir = value;
    else if (flag == "--outdir") outdir = value;
    else if (flag == "--commit") commit = value;
    else return Usage();
  }
  if (argc % 2 == 0 || cfg.workload.empty() || cfg.serverd.empty() ||
      cfg.workdir.empty() || !(cfg.seconds > 0.0)) {
    return Usage();
  }
  cfg.workdir += "/" + cfg.workload + "-" + std::to_string(cfg.seed) + "-" +
                 std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  std::filesystem::create_directories(outdir, ec);
  // The data files go with the run, whatever happens to it.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{cfg.workdir};

  const std::string identity = MachineIdentity(commit);
  std::printf("islabench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("machine: %s\n", identity.c_str());

  // A statement to a server that vanished must fail, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);
  auto created = islabench::Workload::Create(cfg);
  if (!created.ok()) return Fail(created.status().ToString());
  islabench::Workload& w = **created;
  if (auto st = w.Prepare(); !st.ok()) return Fail("prepare: " + st.ToString());

  std::vector<double> setups;
  for (int i = 0; i < (cfg.trace ? 1 : kSetups); ++i) {
    if (i > 0) w.TearDown();
    const int64_t t0 = islabench::NowNanos();
    if (auto st = w.SetUp(); !st.ok()) return Fail("set-up: " + st.ToString());
    setups.push_back(static_cast<double>(islabench::NowNanos() - t0) / 1e9);
  }

  LoadStats stats;
  const double run_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  if (auto st = w.Run(run_s, false, &stats); !st.ok()) {
    return Fail("load: " + st.ToString());
  }
  if (cfg.trace) {
    if (auto st = w.Run(run_s, true, &stats); !st.ok()) {
      return Fail("traced load: " + st.ToString());
    }
  }
  const double rss_mb = w.ServerRssMb();

  LayerReport report;
  if (cfg.trace) {
    if (auto st = w.Probe(stats, &report); !st.ok()) {
      return Fail("probe: " + st.ToString());
    }
  }
  Quality quality;
  if (auto st = w.Verify(&quality); !st.ok()) return Fail("verify: " + st.ToString());
  w.TearDown();

  uint64_t failed = 0;
  for (const Exec& e : stats.execs) failed += (e.error || e.done_ns == 0) ? 1 : 0;
  const uint64_t attempted = stats.execs.size();
  const bool correct = quality.gate_failures.empty() && attempted > 0;
  for (size_t i = 0; i < quality.gate_failures.size() && i < 10; ++i) {
    std::printf("GATE FAILED: %s\n", quality.gate_failures[i].c_str());
  }
  for (const std::string& e : quality.error_samples) {
    std::printf("failed statement: %s\n", e.c_str());
  }
  for (const auto& [table, mv] : quality.per_table) {
    std::printf("table %s: %llu of %llu answered values outside their "
                "reported interval (miss rate %.4f)\n",
                table.c_str(), static_cast<unsigned long long>(mv.first),
                static_cast<unsigned long long>(mv.second),
                mv.second ? static_cast<double>(mv.first) / mv.second : 0.0);
  }

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    const std::vector<double> lat = LatenciesMs(stats.execs, -1);
    const double values[] = {
        Percentile(lat, 0.50),
        Percentile(lat, 0.99),
        static_cast<double>(attempted - failed) / stats.wall_seconds,
        attempted ? 1.0 - static_cast<double>(failed) / attempted : 0.0,
        quality.values ? 1.0 - static_cast<double>(quality.misses) / quality.values
                       : 1.0,
        Median(setups),
        rss_mb};
    std::printf("latency samples: %zu (p99 has %zu beyond it); set-ups: %zu\n",
                lat.size(), lat.size() / 100, setups.size());
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i][0], values[i], kEndToEnd[i][1]});
    }
  } else {
    const double p50_plain = Median(LatenciesMs(stats.execs, 0));
    const double p50_traced = Median(LatenciesMs(stats.execs, 1));
    report.metrics["bench.gen_late_p99_ms"] = Percentile(stats.gen_late_ms, 0.99);
    report.metrics["bench.trace_overhead_pct"] =
        100.0 * (p50_traced - p50_plain) / p50_plain;
    islabench::SummarizeLayers(p50_traced, cfg.workload == "cluster_avg",
                               &report);
    uint64_t trace = 1'000'000'000;
    for (const Exec& e : stats.execs) {
      if (e.traced && e.done_ns != 0) {
        report.tracer.Record("client.stmt", 0, ++trace, e.sent_ns, e.done_ns);
      }
    }
    const std::string base = outdir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + "-spans";
    std::string quoted;
    for (char c : identity) quoted += c == '"' ? std::string("\\\"") : std::string(1, c);
    const std::string header = "{\"machine\": \"" + quoted + "\"}";
    for (const auto& [tracer, path] :
         {std::pair{&report.tracer, base + ".jsonl"},
          std::pair{&report.reference, base + "-reference.jsonl"}}) {
      if (auto st = tracer->WriteJsonl(path, header); !st.ok()) {
        std::printf("trace: spans not written: %s\n", st.ToString().c_str());
      }
    }
    for (const std::string& note : report.notes) {
      std::printf("trace: %s\n", note.c_str());
    }
    PrintPredictions(cfg.workload, report, quality);
    std::printf("trace: stmt p50 untraced %.4f ms, traced %.4f ms; spans in %s.jsonl\n",
                p50_plain, p50_traced, base.c_str());
    for (const auto& [name, unit] : kPerLayer) {
      auto it = report.metrics.find(name);
      if (it == report.metrics.end() || !std::isfinite(it->second)) {
        return Fail(std::string("per-layer metric not measured: ") + name);
      }
      metrics.push_back({name, it->second, unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
