#ifndef ISLABENCH_PROBES_H_
#define ISLABENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oracle.h"

namespace isla {
namespace distributed {
class Transport;
}
namespace engine {
class Session;
}
namespace storage {
class Block;
}
}  // namespace isla

namespace islabench {

class SqlClient;

/// One timed call at a layer boundary. Spans of one statement share a
/// trace id; `parent` is the span of the enclosing layer (0 = root).
/// Child spans are separate calls into the lower layer's public entry
/// point on the identical input, so a layer's self time is its duration
/// minus the durations of its children.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Keeps spans in memory; written out when the run ends.
class Tracer {
 public:
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t trace,
                  int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  bool Has(const std::string& name) const;
  /// Median duration of the spans named `name`, µs (NaN when none).
  double MedianUs(const std::string& name) const;
  /// Median self time (duration minus child durations), µs.
  double MedianSelfUs(const std::string& name) const;
  isla::Status WriteJsonl(const std::string& path,
                          const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

/// The traced run's per-layer numbers plus the human-readable findings.
struct LayerReport {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  Tracer tracer;     // spans of the workload's own statements
  Tracer reference;  // spans of off-path reference statements
};

/// Engine, scan-scheduler, group-by and core-engine probes: each statement
/// runs through an in-process Session (with its own scan scheduler, as the
/// server wires it) and then through each lower layer's entry point.
/// `statements` are the workload's own; `reference` statements stand in
/// for layers the workload never reaches (reported as such).
isla::Status ProbeStatements(isla::engine::Session* session,
                             const std::vector<StmtSpec>& statements,
                             const std::vector<StmtSpec>& reference,
                             LayerReport* report);

/// Block::GatherAt throughput, 4096 random indices per call.
isla::Status ProbeStorage(const isla::storage::Block& file_block,
                          const isla::storage::Block& generator_block,
                          uint64_t seed, LayerReport* report);

/// ParallelFor idle and under 4 callers; the wired kernels at the active
/// tier.
isla::Status ProbeRuntime(uint64_t seed, LayerReport* report);

/// Coordinator call time; one worker request over TCP vs loopback.
/// `failover` is the FailoverTransport over `tcp`.
isla::Status ProbeCluster(isla::distributed::Transport* failover,
                          isla::distributed::Transport* tcp,
                          isla::distributed::Transport* loopback,
                          uint64_t seed, LayerReport* report);

/// Query-server probes over a live session: SHOW SERVER STATS, SHOW STATS
/// (the server's scan-scheduler counters), and the SET round trip.
isla::Status ProbeNet(SqlClient* client, LayerReport* report);

/// Per-layer self times and the gap to the client's median latency.
/// `cluster`: the statements were coordinator calls, not SQL.
void SummarizeLayers(double stmt_p50_ms, bool cluster, LayerReport* report);

}  // namespace islabench

#endif  // ISLABENCH_PROBES_H_
