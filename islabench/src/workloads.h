#ifndef ISLABENCH_WORKLOADS_H_
#define ISLABENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oracle.h"
#include "probes.h"

namespace islabench {

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serverd;  // path of the isla_serverd binary under test
  std::string workdir;  // scratch directory for data files (created)
};

/// Client-side record of one statement (or one coordinator call).
struct Exec {
  int64_t due_ns = 0;   // when it was due (closed loop: when it was sent)
  int64_t sent_ns = 0;
  int64_t done_ns = 0;  // final response; 0 when it failed or timed out
  bool error = false;   // answered "error: ", refused, or timed out
  bool traced = false;  // ran in the traced half of a traced run
};

/// What the load phases produced, for the end-to-end metrics.
struct LoadStats {
  std::vector<Exec> execs;
  double wall_seconds = 0.0;           // measured wall time, summed
  std::vector<double> gen_late_ms;     // generator lateness per send
  uint64_t partial_frames = 0;
  uint64_t selects = 0;
};

/// Answer quality and the hard correctness gates.
struct Quality {
  uint64_t values = 0;  // answered values carrying an interval
  uint64_t misses = 0;  // ... whose exact truth lies outside it
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_table;  // misses, values
  std::vector<std::string> gate_failures;
  std::vector<std::string> error_samples;  // a few failed statements
};

/// A workload: data, deployment, load and checks. main() calls
/// Prepare once, SetUp (timed; repeated, with TearDown between), Run one
/// or more times, then Verify and, in a traced run, Probe.
class Workload {
 public:
  static isla::Result<std::unique_ptr<Workload>> Create(const RunConfig& cfg);
  virtual ~Workload() = default;

  /// Writes data files and builds what the oracle needs. Not timed.
  virtual isla::Status Prepare() = 0;
  /// Starts the system under test and makes it ready to serve: the
  /// benchmark's set-up time.
  virtual isla::Status SetUp() = 0;
  virtual void TearDown() = 0;
  /// Drives the load for `seconds`, appending to `stats`.
  virtual isla::Status Run(double seconds, bool traced, LoadStats* stats) = 0;
  /// Checks every answer of the runs so far.
  virtual isla::Status Verify(Quality* quality) = 0;
  /// Peak RSS of the server-side processes, MiB.
  virtual double ServerRssMb() const = 0;
  /// The traced run's in-process layer probes (server still up).
  virtual isla::Status Probe(const LoadStats& stats, LayerReport* report) = 0;
};

}  // namespace islabench

#endif  // ISLABENCH_WORKLOADS_H_
