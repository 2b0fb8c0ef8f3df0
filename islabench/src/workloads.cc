#include "workloads.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/worker.h"
#include "engine/session.h"
#include "net/tcp_transport.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "storage/file_block.h"
#include "storage/table.h"
#include "util/rng.h"
#include "wire.h"

namespace islabench {

namespace {

using isla::Result;
using isla::Status;
using isla::SplitMix64;
using isla::Xoshiro256;

/// Sessions and load-generator threads: the machine's 4 cores.
constexpr int kSessions = 4;
/// A statement not answered within this long counts as failed.
constexpr int64_t kStatementTimeoutMs = 20000;
/// Statements the traced run replays in process, per workload.
constexpr size_t kProbeStatements = 40;
/// Rows of the reference shard used where a workload has no file table.
constexpr uint64_t kReferenceRows = 1'250'000;

/// A statement-parameter stream: per dimension, a Kronecker (Weyl)
/// sequence frac(offset + n·α) with an irrational α and a seeded offset.
/// Any run of statements covers every parameter's range evenly, so what a
/// run costs barely depends on the seed, yet no two statements repeat.
class Draws {
 public:
  explicit Draws(uint64_t seed) {
    for (int d = 0; d < kDims; ++d) {
      offset_[d] = static_cast<double>(SplitMix64::Hash(seed, d) >> 11) *
                   0x1.0p-53;
    }
  }
  /// Moves to the next statement.
  void Next() { ++n_; }
  /// This statement's draw in [0, 1) along dimension `d`.
  double U(int d) const {
    const double x = offset_[d] + static_cast<double>(n_) * kAlpha[d];
    return x - std::floor(x);
  }
  double Uniform(int d, double lo, double hi) const {
    return lo + (hi - lo) * U(d);
  }

 private:
  static constexpr int kDims = 6;
  // Fractional parts of sqrt(5)/2+1/2, sqrt 2, 3, 5, 7, 11.
  static constexpr double kAlpha[kDims] = {
      0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
      0.2360679774997898, 0.6457513110645907, 0.3166247903553998};
  double offset_[kDims] = {};
  uint64_t n_ = 0;
};

/// Writes `shards` ISLB files of `rows` rows each, drawn from `dist`.
Result<std::vector<std::string>> WriteShards(
    const std::string& dir, const std::string& prefix,
    std::shared_ptr<const isla::stats::Distribution> dist, int shards,
    uint64_t rows, uint64_t seed) {
  std::vector<std::string> paths;
  std::vector<double> values;
  for (int i = 0; i < shards; ++i) {
    isla::storage::GeneratorBlock gen(dist, rows,
                                      SplitMix64::Hash(seed, 0xda7a, i));
    ISLA_RETURN_NOT_OK(gen.ReadRange(0, rows, &values));
    std::string path = dir + "/" + prefix + std::to_string(i) + ".islb";
    ISLA_RETURN_NOT_OK(isla::storage::WriteBlockFile(path, values));
    paths.push_back(path);
  }
  return paths;
}

std::string FilesDdl(const std::string& table,
                     const std::vector<std::string>& paths) {
  std::string ddl = "CREATE TABLE " + table + " FROM FILES(";
  for (size_t i = 0; i < paths.size(); ++i) {
    ddl += (i ? ", '" : "'") + paths[i] + "'";
  }
  return ddl + ")";
}

Result<isla::storage::Column> OpenColumn(
    const std::vector<std::string>& paths) {
  isla::storage::Column col("value");
  for (const std::string& p : paths) {
    ISLA_ASSIGN_OR_RETURN(auto block, isla::storage::FileBlock::Open(p));
    ISLA_RETURN_NOT_OK(col.AppendBlock(block));
  }
  return col;
}

/// A one-shard cluster for the cluster-layer probes of workloads that do
/// not cross the wire: a worker process, its TCP transport behind
/// failover, and the same shard behind the loopback transport.
struct ReferenceCluster {
  std::unique_ptr<ServerProcess> worker;
  std::unique_ptr<isla::net::TcpTransport> tcp;
  std::unique_ptr<isla::distributed::FailoverTransport> failover;
  std::unique_ptr<isla::distributed::LoopbackTransport> loopback;
};

Result<ReferenceCluster> StartReferenceCluster(const std::string& serverd,
                                               const std::string& shard) {
  ReferenceCluster rc;
  ISLA_ASSIGN_OR_RETURN(rc.worker,
                        ServerProcess::Start({serverd, "--worker", "--shard",
                                              shard, "--worker-id", "0",
                                              "--port", "0"}));
  isla::net::TcpTransportOptions topts;
  topts.reconnect_attempts = 1;
  rc.tcp = std::make_unique<isla::net::TcpTransport>(
      std::vector<isla::net::Endpoint>{{"127.0.0.1", rc.worker->port()}},
      topts);
  rc.failover = std::make_unique<isla::distributed::FailoverTransport>(
      rc.tcp.get(), std::vector<std::vector<uint64_t>>{{0}});
  ISLA_ASSIGN_OR_RETURN(auto block, isla::storage::FileBlock::Open(shard));
  std::vector<std::unique_ptr<isla::distributed::Worker>> workers;
  workers.push_back(std::make_unique<isla::distributed::Worker>(0, block));
  rc.loopback = std::make_unique<isla::distributed::LoopbackTransport>(
      std::move(workers));
  return rc;
}

void AddFailoverCounts(const isla::distributed::FailoverCounters& c,
                       LayerReport* report) {
  report->metrics["cluster.retries"] += static_cast<double>(c.retries);
  report->metrics["cluster.hedges"] += static_cast<double>(c.hedges);
}

// ---------------------------------------------------------------------------
// Query-server workloads.

/// One statement sent to the query server and what came back.
struct Answered {
  StmtSpec spec;
  std::string ddl;  // non-empty: a data refresh instead of a SELECT
  uint32_t epoch = 0;
  std::string response;  // final frame; empty when it never came
};

/// Per-thread output of a load loop.
struct LoopOutput {
  std::vector<Exec> execs;
  std::vector<Answered> answered;
  std::vector<double> late_ms;
  uint64_t partials = 0;
  uint64_t selects = 0;
  Status status;
};

/// How a query-server workload drives its sessions.
struct LoadShape {
  /// Statements per second across all sessions; 0 runs a closed loop.
  double open_loop_rate = 0.0;
  /// Closed loop: a session's pause between a response and its next
  /// statement, as a user reading the answer. It keeps the 4 sessions
  /// from saturating the 4 cores, where every timing would track how
  /// much CPU the host happens to grant.
  double think_ms = 0.0;
  /// Closed loop: every statement samples under its own seed (SET seed).
  bool reseed_each_statement = false;
  /// Open loop: seconds between data refreshes in each session; 0 = never.
  double refresh_s = 0.0;
  /// Gate: one statement's answers are byte-identical within an epoch.
  bool identical_answers = false;
};

class SqlWorkload : public Workload {
 public:
  SqlWorkload(RunConfig cfg, LoadShape shape)
      : cfg_(std::move(cfg)), shape_(shape) {}
  ~SqlWorkload() override { TearDown(); }

  Status SetUp() override {
    TearDown();
    ISLA_ASSIGN_OR_RETURN(server_, ServerProcess::Start({cfg_.serverd}));
    for (int s = 0; s < kSessions; ++s) {
      ISLA_ASSIGN_OR_RETURN(auto client, SqlClient::Connect(server_->port()));
      clients_.push_back(std::move(client));
    }
    epochs_.assign(kSessions, 0);
    for (int s = 0; s < kSessions; ++s) {
      std::vector<std::string> stmts = SessionSetup(s, 0);
      stmts.push_back(WarmupStatement());
      for (const std::string& sql : stmts) {
        ISLA_ASSIGN_OR_RETURN(std::string r, clients_[s]->Execute(sql));
        if (r.rfind("ok\n", 0) != 0) {
          return Status::Internal("set-up statement failed: " + sql + " → " +
                                  r);
        }
      }
    }
    return Status::OK();
  }

  void TearDown() override {
    clients_.clear();
    if (server_) server_->Stop();
    server_.reset();
  }

  double ServerRssMb() const override {
    return server_ ? server_->PeakRssMb() : -1.0;
  }

  Status Run(double seconds, bool traced, LoadStats* stats) override {
    const uint64_t run = runs_++;
    if (run == 0) {
      // Untimed: bring the caches to the steady state a long-running
      // deployment would be in before the measured load starts.
      for (const std::string& sql : WarmStatements()) {
        ISLA_RETURN_NOT_OK(clients_.front()->Execute(sql).status());
      }
    }
    std::vector<LoopOutput> out(kSessions);
    std::vector<std::thread> threads;
    const int64_t start = NowNanos() + 2'000'000;  // common start, +2 ms
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        Draws draws(SplitMix64::Hash(cfg_.seed, 0x100 + s, run));
        out[s].status =
            shape_.open_loop_rate > 0.0
                ? OpenLoop(s, draws, SplitMix64::Hash(cfg_.seed, 0x180 + s, run),
                           start, end, traced, &out[s])
                : ClosedLoop(s, draws, start, end, traced, &out[s]);
      });
    }
    for (std::thread& t : threads) t.join();
    stats->wall_seconds += seconds;
    for (LoopOutput& o : out) {
      stats->execs.insert(stats->execs.end(), o.execs.begin(), o.execs.end());
      stats->gen_late_ms.insert(stats->gen_late_ms.end(), o.late_ms.begin(),
                                o.late_ms.end());
      stats->partial_frames += o.partials;
      stats->selects += o.selects;
      for (Answered& a : o.answered) answered_.push_back(std::move(a));
    }
    for (const LoopOutput& o : out) ISLA_RETURN_NOT_OK(o.status);
    return Status::OK();
  }

  Status Verify(Quality* q) override {
    // Oracles are built one epoch at a time (a table's oracle holds its
    // rows), so answers are checked in epoch order.
    std::map<uint32_t, std::vector<const Answered*>> by_epoch;
    for (const Answered& a : answered_) by_epoch[a.epoch].push_back(&a);
    std::map<std::string, std::string> identity;  // epoch|sql → bytes
    for (const auto& [epoch, list] : by_epoch) {
      std::map<std::string, ExactOracle> oracles;
      ISLA_RETURN_NOT_OK(BuildOracles(epoch, &oracles));
      for (const Answered* a : list) {
        const std::string sql = a->ddl.empty() ? a->spec.Sql() : a->ddl;
        if (a->response.empty() || a->response.rfind("error: ", 0) == 0) {
          if (q->error_samples.size() < 3) {
            q->error_samples.push_back(sql + " → " +
                                       (a->response.empty() ? "no response"
                                                            : a->response));
          }
          continue;  // counted as failed by the load loop
        }
        Result<Answer> parsed = ParseAnswer(a->response);
        if (!parsed.ok()) {
          q->gate_failures.push_back(parsed.status().ToString());
          continue;
        }
        if (!a->ddl.empty() || !parsed->ok) continue;
        auto it = oracles.find(a->spec.table);
        if (it == oracles.end()) {
          return Status::Internal("no oracle for table " + a->spec.table);
        }
        CheckResult r = CheckAnswer(a->spec, *parsed, it->second);
        if (!r.defect.empty()) q->gate_failures.push_back(r.defect);
        q->values += r.values;
        q->misses += r.misses;
        auto& t = q->per_table[a->spec.table];
        t.first += r.misses;
        t.second += r.values;
        if (shape_.identical_answers) {
          const std::string key = std::to_string(epoch) + "|" + a->spec.Sql();
          const std::string bytes = StripTiming(a->response);
          auto [slot, fresh] = identity.emplace(key, bytes);
          if (!fresh && slot->second != bytes) {
            q->gate_failures.push_back(
                "answers differ within refresh epoch " +
                std::to_string(epoch) + ": " + a->spec.Sql());
          }
        }
      }
    }
    return Status::OK();
  }

  Status Probe(const LoadStats& stats, LayerReport* report) override {
    ISLA_RETURN_NOT_OK(ProbeNet(clients_.front().get(), report));
    report->metrics["net.partial_frames_per_stmt"] =
        stats.selects ? static_cast<double>(stats.partial_frames) /
                            static_cast<double>(stats.selects)
                      : 0.0;

    isla::engine::Session session;
    for (const std::string& sql : SessionSetup(0, 0)) {
      ISLA_RETURN_NOT_OK(session.Execute(sql).status());
    }
    Draws draws(SplitMix64::Hash(cfg_.seed, 0x100, 0));
    std::vector<StmtSpec> own;
    for (size_t i = 0; i < kProbeStatements; ++i) {
      own.push_back(NextStatement(draws));
    }
    ISLA_RETURN_NOT_OK(
        ProbeStatements(&session, own, ReferenceStatements(), report));

    // Storage and cluster probes need one file shard and one generator
    // block; workloads without one use a reference.
    ISLA_ASSIGN_OR_RETURN(std::string shard, FileShard());
    ISLA_ASSIGN_OR_RETURN(auto file_block, isla::storage::FileBlock::Open(shard));
    auto gen_block = std::make_shared<isla::storage::GeneratorBlock>(
        std::make_shared<isla::stats::NormalDistribution>(100.0, 20.0),
        kReferenceRows, SplitMix64::Hash(cfg_.seed, 0x9e));
    const isla::storage::Block* own_gen = FirstGeneratorBlock(session);
    ISLA_RETURN_NOT_OK(ProbeStorage(*file_block,
                                    own_gen != nullptr ? *own_gen : *gen_block,
                                    cfg_.seed, report));
    ISLA_RETURN_NOT_OK(ProbeRuntime(cfg_.seed, report));
    ISLA_ASSIGN_OR_RETURN(ReferenceCluster rc,
                          StartReferenceCluster(cfg_.serverd, shard));
    ISLA_RETURN_NOT_OK(ProbeCluster(rc.failover.get(), rc.tcp.get(),
                                    rc.loopback.get(), cfg_.seed, report));
    AddFailoverCounts(rc.failover->failover_snapshot(), report);
    report->notes.push_back("cluster.* from a one-worker reference cluster "
                            "(the workload does not cross the wire)");
    return Status::OK();
  }

 protected:
  /// Statements each session runs at set-up for refresh epoch `epoch`.
  virtual std::vector<std::string> SessionSetup(int session,
                                                uint32_t epoch) const = 0;
  /// The next statement of a session's stream (advances `draws`).
  virtual StmtSpec NextStatement(Draws& draws) const = 0;
  /// Exact oracles, by table name, for refresh epoch `epoch`.
  virtual Status BuildOracles(uint32_t epoch,
                              std::map<std::string, ExactOracle>* out) = 0;
  /// Each session's first statement, part of set-up. The same text for
  /// every seed, so set-up time does not depend on what a seed draws.
  virtual std::string WarmupStatement() const {
    Draws fixed(0x3a3a);
    return NextStatement(fixed).Sql();
  }
  /// Statements run once, untimed, before the first measured load.
  virtual std::vector<std::string> WarmStatements() const { return {}; }
  /// Statements for layers the workload does not reach.
  virtual std::vector<StmtSpec> ReferenceStatements() const = 0;
  /// What every session sends to move to refresh epoch `epoch`.
  virtual std::vector<std::string> RefreshStatements(uint32_t) const {
    return {};
  }
  /// A file shard for the storage and cluster probes.
  virtual Result<std::string> FileShard() {
    ISLA_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                          WriteShards(dir(), "reference", Normal(), 1,
                                      kReferenceRows,
                                      SplitMix64::Hash(cfg_.seed, 0x4ef)));
    return paths.front();
  }

  /// Generator-backed first block of the session's first table, if any.
  static const isla::storage::Block* FirstGeneratorBlock(
      isla::engine::Session& session) {
    for (const std::string& name : session.catalog()->TableNames()) {
      auto table = session.catalog()->GetTable(name);
      if (!table.ok()) continue;
      auto col = (*table)->GetColumn("value");
      if (!col.ok() || (*col)->blocks().empty()) continue;
      const isla::storage::Block* b = (*col)->blocks().front().get();
      if (dynamic_cast<const isla::storage::GeneratorBlock*>(b) != nullptr) {
        return b;
      }
    }
    return nullptr;
  }

  static std::shared_ptr<const isla::stats::Distribution> Normal() {
    return std::make_shared<isla::stats::NormalDistribution>(100.0, 20.0);
  }

  /// Builds the oracle of a generator table exactly as the server does:
  /// the same DDL through an in-process session, then every row read back.
  static Status GeneratorOracle(const std::string& ddl,
                                const std::string& table,
                                std::map<std::string, ExactOracle>* out) {
    isla::engine::Session session;
    ISLA_RETURN_NOT_OK(session.Execute(ddl).status());
    ISLA_ASSIGN_OR_RETURN(auto t, session.catalog()->GetTable(table));
    ISLA_ASSIGN_OR_RETURN(const isla::storage::Column* values,
                          t->GetColumn("value"));
    ISLA_ASSIGN_OR_RETURN(const isla::storage::Column* keys,
                          t->GetColumn("grp"));
    ISLA_ASSIGN_OR_RETURN(ExactOracle o, ExactOracle::Build(*values, keys));
    out->emplace(table, std::move(o));
    return Status::OK();
  }

  const std::string& dir() const { return cfg_.workdir; }
  const RunConfig cfg_;
  const LoadShape shape_;

 private:
  Status ClosedLoop(int s, Draws& draws, int64_t start, int64_t end,
                    bool traced, LoopOutput* out) {
    SqlClient& client = *clients_[s];
    const int64_t think_ns = static_cast<int64_t>(shape_.think_ms * 1e6);
    int64_t due = start;
    uint64_t n = 0;
    while (NowNanos() < end) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      StmtSpec spec = NextStatement(draws);
      if (shape_.reseed_each_statement) {
        // As if from an independent user: the statement samples under its
        // own seed, so a run averages over many pilots instead of one.
        const uint64_t seed =
            SplitMix64::Hash(cfg_.seed, 0x5eed00 + s, ++n) >> 12;
        Result<std::string> set = client.Execute(
            "SET seed " + std::to_string(seed), nullptr, kStatementTimeoutMs);
        if (!set.ok() || set->rfind("ok\n", 0) != 0) {
          return Status::Internal("SET seed failed: " +
                                  (set.ok() ? *set : set.status().ToString()));
        }
      }
      Exec e;
      e.traced = traced;
      e.due_ns = e.sent_ns = NowNanos();
      out->late_ms.push_back(static_cast<double>(e.sent_ns - due) / 1e6);
      uint64_t partials = 0;
      Result<std::string> r =
          client.Execute(spec.Sql(), &partials, kStatementTimeoutMs);
      e.done_ns = NowNanos();
      due = e.done_ns + think_ns;
      out->partials += partials;
      ++out->selects;
      Answered a;
      a.spec = std::move(spec);
      if (r.ok()) {
        e.error = r->rfind("ok\n", 0) != 0;
        a.response = std::move(*r);
      } else {
        e.error = true;
        e.done_ns = 0;
      }
      out->execs.push_back(e);
      out->answered.push_back(std::move(a));
      if (!r.ok()) return Status::OK();  // the session is unusable now
    }
    return Status::OK();
  }

  /// Poisson arrivals at open_loop_rate / kSessions on this session, sent
  /// when due whether or not earlier statements have been answered; a
  /// refresh re-CREATEs the tables every refresh_s.
  Status OpenLoop(int s, Draws& draws, uint64_t arrival_seed, int64_t start,
                  int64_t end,
                  bool traced, LoopOutput* out) {
    SqlClient& client = *clients_[s];
    const double rate = shape_.open_loop_rate / kSessions;
    const int64_t refresh_ns =
        shape_.refresh_s > 0.0 ? static_cast<int64_t>(shape_.refresh_s * 1e9)
                               : 0;
    struct Pending {
      size_t exec = 0;
      size_t answered = 0;
    };
    std::deque<Pending> pending;
    Xoshiro256 rng(arrival_seed);
    int64_t next_arrival =
        start + static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) /
                                     rate * 1e9);
    uint32_t epoch = epochs_[s];  // a traced run calls Run twice
    // Sessions refresh in turn, a quarter period apart, as independent
    // users would; the first to reach an epoch pays its cache misses.
    int64_t next_refresh = refresh_ns > 0
                               ? start + refresh_ns * (s + 1) / kSessions
                               : INT64_MAX;
    std::string payload;
    auto receive = [&]() -> Status {
      ISLA_RETURN_NOT_OK(client.Pump());
      while (true) {
        ISLA_ASSIGN_OR_RETURN(bool have, client.Pop(&payload));
        if (!have) return Status::OK();
        if (IsPartial(payload)) {
          ++out->partials;
          continue;
        }
        if (pending.empty()) return Status::Internal("unexpected response");
        Exec& e = out->execs[pending.front().exec];
        e.done_ns = NowNanos();
        e.error = payload.rfind("ok\n", 0) != 0;
        out->answered[pending.front().answered].response = payload;
        pending.pop_front();
      }
    };
    auto send = [&](int64_t due, Answered a) -> Status {
      Exec e;
      e.traced = traced;
      e.due_ns = due;
      e.sent_ns = NowNanos();
      e.error = true;  // until its response arrives
      out->late_ms.push_back(static_cast<double>(e.sent_ns - due) / 1e6);
      const std::string sql = a.ddl.empty() ? a.spec.Sql() : a.ddl;
      pending.push_back({out->execs.size(), out->answered.size()});
      out->execs.push_back(e);
      out->answered.push_back(std::move(a));
      return client.Send(sql);
    };
    while (true) {
      const int64_t now = NowNanos();
      const int64_t due = std::min(next_arrival, next_refresh);
      if (due >= end) break;
      if (now >= due) {
        if (due == next_refresh) {
          ++epoch;
          for (std::string& ddl : RefreshStatements(epoch)) {
            Answered a;
            a.ddl = std::move(ddl);
            a.epoch = epoch;
            ISLA_RETURN_NOT_OK(send(due, std::move(a)));
          }
          next_refresh += refresh_ns;
        } else {
          Answered a;
          a.spec = NextStatement(draws);
          a.epoch = epoch;
          ++out->selects;
          next_arrival += static_cast<int64_t>(
              -std::log(1.0 - rng.NextDouble()) / rate * 1e9);
          ISLA_RETURN_NOT_OK(send(due, std::move(a)));
        }
        continue;
      }
      const int64_t wait = due - now;
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      pollfd pfd{client.fd(), POLLIN, 0};
      int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc > 0) ISLA_RETURN_NOT_OK(receive());
    }
    // Drain what is still in flight (it counts as failed past the timeout).
    const int64_t drain_end = NowNanos() + kStatementTimeoutMs * 1'000'000;
    while (!pending.empty() && NowNanos() < drain_end) {
      pollfd pfd{client.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0) ISLA_RETURN_NOT_OK(receive());
    }
    for (const Pending& p : pending) out->execs[p.exec].done_ns = 0;
    epochs_[s] = epoch;
    return Status::OK();
  }

 private:
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::unique_ptr<SqlClient>> clients_;
  std::vector<Answered> answered_;
  std::vector<uint32_t> epochs_;  // each session's refresh epoch
  uint64_t runs_ = 0;
};

/// adhoc_avg: two file-backed tables (normal and exponential, 8 ISLB
/// shards × 1.25e6 rows each); ungrouped AVG/SUM with e drawn from
/// [0.1, 0.5], each under its own sampling seed, in a closed loop of 4
/// sessions, one of them streaming.
class AdhocAvg : public SqlWorkload {
 public:
  explicit AdhocAvg(RunConfig cfg)
      : SqlWorkload(std::move(cfg), {.think_ms = 2.0,
                                     .reseed_each_statement = true}) {}

  Status Prepare() override {
    ISLA_ASSIGN_OR_RETURN(normal_, WriteShards(dir(), "n", Normal(), 8,
                                               kShardRows, cfg_.seed));
    ISLA_ASSIGN_OR_RETURN(
        expo_, WriteShards(dir(), "x",
                           std::make_shared<isla::stats::ExponentialDistribution>(
                               0.05),
                           8, kShardRows, SplitMix64::Hash(cfg_.seed, 0xe)));
    return Status::OK();
  }

 protected:
  static constexpr uint64_t kShardRows = 1'250'000;

  std::vector<std::string> SessionSetup(int session,
                                        uint32_t) const override {
    std::vector<std::string> s = {FilesDdl("n", normal_),
                                  FilesDdl("x", expo_)};
    if (session == kSessions - 1) s.push_back("SET stream 4");
    return s;
  }

  StmtSpec NextStatement(Draws& d) const override {
    d.Next();
    StmtSpec s;
    s.table = d.U(0) < 0.5 ? "n" : "x";
    s.agg = d.U(1) < 0.5 ? Agg::kAvg : Agg::kSum;
    s.precision = AsPrinted(d.Uniform(2, 0.1, 0.5), 4);
    return s;
  }

  Status BuildOracles(uint32_t,
                      std::map<std::string, ExactOracle>* out) override {
    for (const auto& [name, paths] :
         {std::pair{"n", &normal_}, std::pair{"x", &expo_}}) {
      ISLA_ASSIGN_OR_RETURN(isla::storage::Column col, OpenColumn(*paths));
      ISLA_ASSIGN_OR_RETURN(ExactOracle o, ExactOracle::Build(col, nullptr));
      out->emplace(name, std::move(o));
    }
    return Status::OK();
  }

  std::vector<StmtSpec> ReferenceStatements() const override {
    StmtSpec count;
    count.agg = Agg::kCount;
    count.table = "n";
    count.has_pred = true;
    count.literal = 100.0;
    count.precision = 0.5;
    return {count};
  }

  Result<std::string> FileShard() override { return normal_.front(); }

 private:
  std::vector<std::string> normal_, expo_;
};

/// The generator table shared by the dashboard and adhoc_grouped: 1e7
/// virtual normal rows in 8 blocks with a `grp` key column.
std::string GeneratorDdl(const std::string& table, uint64_t seed,
                         int groups) {
  return "CREATE TABLE " + table +
         " FROM NORMAL(100, 20) ROWS 1e7 BLOCKS 8 SEED " +
         std::to_string(seed) + " GROUPS " + std::to_string(groups);
}

/// dashboard: a fixed pool of 12 scheduler-eligible statements with
/// skewed popularity, an open loop at 400 statements/s over 4 sessions,
/// and a data refresh (re-CREATE with the next SEED) every 2 s in each
/// session, the sessions a quarter period apart.
class Dashboard : public SqlWorkload {
 public:
  explicit Dashboard(RunConfig cfg)
      : SqlWorkload(std::move(cfg), {.open_loop_rate = 400.0,
                                     .refresh_s = 2.0,
                                     .identical_answers = true}) {
    // The pool's statements are the same for every seed (only the data,
    // the popularity order and the arrivals change), so what a refresh
    // costs does not depend on the seed.
    Draws d(0xdb);
    const struct {
      Agg agg;
      bool pred;
      char op;
      bool grouped;
    } shapes[12] = {{Agg::kAvg, true, '>', true},   {Agg::kAvg, true, '>', true},
                    {Agg::kAvg, true, '<', true},   {Agg::kAvg, true, '>', true},
                    {Agg::kCount, true, '<', true}, {Agg::kCount, true, '>', true},
                    {Agg::kCount, true, '<', true}, {Agg::kSum, false, '>', true},
                    {Agg::kSum, true, '>', true},   {Agg::kAvg, true, '>', false},
                    {Agg::kAvg, true, '<', false},  {Agg::kCount, true, '>', false}};
    double total = 0.0;
    for (int i = 0; i < 12; ++i) {
      StmtSpec s;
      s.table = "d";
      s.agg = shapes[i].agg;
      s.has_pred = shapes[i].pred;
      s.op = shapes[i].op;
      d.Next();
      s.literal = AsPrinted(d.Uniform(0, 80.0, 120.0), 4);
      s.grouped = shapes[i].grouped;
      s.precision = AsPrinted(d.Uniform(1, 0.6, 1.2), 4);
      pool_.push_back(s);
      total += 1.0 / std::pow(i + 1.0, 1.1);  // Zipf popularity
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
    // Popularity rank is a seeded permutation of the shapes.
    Xoshiro256 rng(SplitMix64::Hash(cfg_.seed, 0xdc));
    for (size_t i = pool_.size(); i > 1; --i) {
      std::swap(pool_[i - 1], pool_[rng.NextBounded(i)]);
    }
  }

  Status Prepare() override { return Status::OK(); }

 protected:
  std::vector<std::string> SessionSetup(int, uint32_t epoch) const override {
    return {GeneratorDdl("d", DataSeed(epoch), 16)};
  }

  StmtSpec NextStatement(Draws& d) const override {
    d.Next();
    const double u = d.U(0);
    size_t i = 0;
    while (i + 1 < cumulative_.size() && cumulative_[i] < u) ++i;
    return pool_[i];
  }

  Status BuildOracles(uint32_t epoch,
                      std::map<std::string, ExactOracle>* out) override {
    return GeneratorOracle(GeneratorDdl("d", DataSeed(epoch), 16), "d", out);
  }

  std::vector<StmtSpec> ReferenceStatements() const override {
    // The two shapes the block-pass prediction compares.
    StmtSpec grouped;
    grouped.table = "d";
    grouped.grouped = true;
    grouped.precision = 0.5;
    StmtSpec plain = grouped;
    plain.grouped = false;
    return {grouped, plain, grouped, plain, grouped, plain};
  }

  std::string WarmupStatement() const override {
    return ReferenceStatements().front().Sql();
  }

  std::vector<std::string> WarmStatements() const override {
    std::vector<std::string> sql;
    for (const StmtSpec& s : pool_) sql.push_back(s.Sql());
    return sql;
  }

  std::vector<std::string> RefreshStatements(uint32_t epoch) const override {
    return {"DROP TABLE d", GeneratorDdl("d", DataSeed(epoch), 16)};
  }

 private:
  uint64_t DataSeed(uint32_t epoch) const {
    return SplitMix64::Hash(cfg_.seed, 0xd5) % 1000000 + epoch;
  }

  std::vector<StmtSpec> pool_;
  std::vector<double> cumulative_;
};

/// adhoc_grouped: 1e7 rows, 64 groups; every statement distinct (literal
/// and e drawn per statement, each under its own sampling seed): AVG/COUNT
/// GROUP BY, TOP k, and ~3% ungrouped QUANTILE ... WHERE ... WITHIN 0.05.
/// Closed loop, 4 sessions.
class AdhocGrouped : public SqlWorkload {
 public:
  explicit AdhocGrouped(RunConfig cfg)
      : SqlWorkload(std::move(cfg), {.think_ms = 20.0,
                                     .reseed_each_statement = true}) {}

  Status Prepare() override {
    return GeneratorOracle(Ddl(), "g", &oracle_);
  }

 protected:
  std::string Ddl() const {
    return GeneratorDdl("g", SplitMix64::Hash(cfg_.seed, 0x96) % 1000000, 64);
  }

  std::vector<std::string> SessionSetup(int, uint32_t) const override {
    return {Ddl()};
  }

  StmtSpec NextStatement(Draws& d) const override {
    d.Next();
    StmtSpec s;
    s.table = "g";
    s.has_pred = true;
    s.op = '>';
    s.literal = AsPrinted(d.Uniform(1, 50.0, 100.0), 4);
    const double u = d.U(0);
    if (u < 0.03) {
      s.agg = Agg::kQuantile;
      s.q = AsPrinted(d.Uniform(3, 0.1, 0.9), 2);
      s.precision = 0.05;
      return s;
    }
    s.grouped = true;
    s.agg = d.U(5) < 0.5 ? Agg::kAvg : Agg::kCount;
    s.precision = AsPrinted(d.Uniform(2, 1.5, 3.0), 4);
    if (u < 0.35) s.top_k = 3 + static_cast<uint64_t>(d.U(4) * 8.0);
    return s;
  }

  Status BuildOracles(uint32_t,
                      std::map<std::string, ExactOracle>* out) override {
    if (out->empty()) {
      for (auto& [name, o] : oracle_) out->emplace(name, std::move(o));
      oracle_.clear();
    }
    return out->empty() ? Status::Internal("oracle already consumed")
                        : Status::OK();
  }

  std::vector<StmtSpec> ReferenceStatements() const override {
    StmtSpec plain;
    plain.table = "g";
    plain.precision = 0.5;
    return {plain};
  }

 private:
  std::map<std::string, ExactOracle> oracle_;
};

// ---------------------------------------------------------------------------
// cluster_avg: 4 worker processes behind FailoverTransport over
// TcpTransport; 2 closed-loop callers of Coordinator::AggregateAvg.

class ClusterAvg : public Workload {
 public:
  explicit ClusterAvg(RunConfig cfg) : cfg_(std::move(cfg)) {}
  ~ClusterAvg() override { TearDown(); }

  Status Prepare() override {
    ISLA_ASSIGN_OR_RETURN(
        shards_,
        WriteShards(cfg_.workdir, "w",
                    std::make_shared<isla::stats::NormalDistribution>(100.0,
                                                                      20.0),
                    kWorkers, kShardRows, cfg_.seed));
    ISLA_ASSIGN_OR_RETURN(isla::storage::Column col, OpenColumn(shards_));
    ISLA_ASSIGN_OR_RETURN(ExactOracle o, ExactOracle::Build(col, nullptr));
    StmtSpec all;
    truth_ = o.Groups(all, false).front().avg();
    std::vector<std::unique_ptr<isla::distributed::Worker>> workers;
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers.push_back(std::make_unique<isla::distributed::Worker>(
          i, col.blocks()[i]));
    }
    loopback_ = std::make_unique<isla::distributed::LoopbackTransport>(
        std::move(workers));
    return Status::OK();
  }

  Status SetUp() override {
    TearDown();
    std::vector<isla::net::Endpoint> endpoints;
    for (size_t i = 0; i < shards_.size(); ++i) {
      ISLA_ASSIGN_OR_RETURN(
          auto w, ServerProcess::Start({cfg_.serverd, "--worker", "--shard",
                                        shards_[i], "--worker-id",
                                        std::to_string(i), "--port", "0"}));
      endpoints.push_back({"127.0.0.1", w->port()});
      workers_.push_back(std::move(w));
    }
    for (int c = 0; c < kCallers; ++c) {
      Caller caller;
      isla::net::TcpTransportOptions topts;
      topts.reconnect_attempts = 1;  // as isla_client wires its cluster
      caller.tcp = std::make_unique<isla::net::TcpTransport>(endpoints, topts);
      std::vector<std::vector<uint64_t>> placement;
      for (uint64_t i = 0; i < endpoints.size(); ++i) placement.push_back({i});
      caller.failover = std::make_unique<isla::distributed::FailoverTransport>(
          caller.tcp.get(), std::move(placement));
      isla::core::IslaOptions o;
      isla::distributed::Coordinator warm(caller.failover.get(), o);
      ISLA_RETURN_NOT_OK(
          warm.AggregateAvg(SplitMix64::Hash(cfg_.seed, 0xa11, c)).status());
      callers_.push_back(std::move(caller));
    }
    return Status::OK();
  }

  void TearDown() override {
    callers_.clear();
    workers_.clear();
  }

  double ServerRssMb() const override {
    double total = 0.0;
    for (const auto& w : workers_) total += std::max(0.0, w->PeakRssMb());
    return total;
  }

  Status Run(double seconds, bool traced, LoadStats* stats) override {
    const uint64_t run = runs_++;
    std::vector<std::vector<Exec>> execs(kCallers);
    std::vector<std::vector<Call>> calls(kCallers);
    std::vector<std::vector<double>> late(kCallers);
    const int64_t start = NowNanos() + 2'000'000;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        Xoshiro256 rng(SplitMix64::Hash(cfg_.seed, 0x200 + c, run));
        Draws draws(SplitMix64::Hash(cfg_.seed, 0x280 + c, run));
        while (NowNanos() < start) {
        }
        int64_t prev_done = start;
        while (NowNanos() < end) {
          Call call;
          call.query_id = rng.Next();
          draws.Next();
          call.precision = AsPrinted(draws.Uniform(0, 0.1, 0.5), 4);
          isla::core::IslaOptions o;
          o.precision = call.precision;
          isla::distributed::Coordinator coordinator(
              callers_[c].failover.get(), o);
          Exec e;
          e.traced = traced;
          e.due_ns = e.sent_ns = NowNanos();
          late[c].push_back(static_cast<double>(e.sent_ns - prev_done) / 1e6);
          auto r = coordinator.AggregateAvg(call.query_id);
          e.done_ns = NowNanos();
          prev_done = e.done_ns;
          if (r.ok()) {
            call.ok = true;
            call.result = *r;
          } else {
            e.error = true;
            e.done_ns = 0;
          }
          execs[c].push_back(e);
          calls[c].push_back(std::move(call));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    stats->wall_seconds += seconds;
    for (int c = 0; c < kCallers; ++c) {
      stats->execs.insert(stats->execs.end(), execs[c].begin(),
                          execs[c].end());
      stats->gen_late_ms.insert(stats->gen_late_ms.end(), late[c].begin(),
                                late[c].end());
      stats->selects += calls[c].size();
      for (Call& call : calls[c]) calls_.push_back(std::move(call));
    }
    return Status::OK();
  }

  Status Verify(Quality* q) override {
    // Every answer against the exact mean (±e is the answer's contract);
    // up to kMaxLoopbackChecks of them, evenly spaced, against the
    // in-process loopback cluster, bit for bit.
    const size_t stride =
        std::max<size_t>(1, (calls_.size() + kMaxLoopbackChecks - 1) /
                                kMaxLoopbackChecks);
    uint64_t checked = 0;
    for (size_t i = 0; i < calls_.size(); ++i) {
      const Call& call = calls_[i];
      if (!call.ok) continue;
      ++q->values;
      if (!(std::fabs(call.result.average - truth_) <= call.precision)) {
        ++q->misses;
      }
      if (i % stride != 0) continue;
      isla::core::IslaOptions o;
      o.precision = call.precision;
      isla::distributed::Coordinator local(loopback_.get(), o);
      ISLA_ASSIGN_OR_RETURN(isla::distributed::DistributedResult l,
                            local.AggregateAvg(call.query_id));
      ++checked;
      if (std::memcmp(&l.average, &call.result.average, sizeof(double)) != 0 ||
          std::memcmp(&l.sum, &call.result.sum, sizeof(double)) != 0 ||
          l.total_samples != call.result.total_samples ||
          l.data_size != call.result.data_size) {
        q->gate_failures.push_back(
            "TCP answer differs from loopback for query_id " +
            std::to_string(call.query_id));
      }
    }
    q->per_table["w"] = {q->misses, q->values};
    std::printf("cluster: %llu of %zu answers checked bit for bit against "
                "the loopback transport\n",
                static_cast<unsigned long long>(checked), calls_.size());
    return Status::OK();
  }

  Status Probe(const LoadStats&, LayerReport* report) override {
    // The wire, transport and failover layers: the deployment itself.
    ISLA_RETURN_NOT_OK(ProbeCluster(callers_[0].failover.get(),
                                    callers_[0].tcp.get(), loopback_.get(),
                                    cfg_.seed, report));
    for (const Caller& c : callers_) {
      AddFailoverCounts(c.failover->failover_snapshot(), report);
    }
    report->metrics["net.partial_frames_per_stmt"] = 0.0;

    // The layers a single-node statement crosses, on the same data as one
    // FILES table: a reference query server and an in-process session.
    const std::string ddl = FilesDdl("c", shards_);
    ISLA_ASSIGN_OR_RETURN(auto server, ServerProcess::Start({cfg_.serverd}));
    ISLA_ASSIGN_OR_RETURN(auto client, SqlClient::Connect(server->port()));
    ISLA_RETURN_NOT_OK(client->Execute(ddl).status());
    Draws draws(SplitMix64::Hash(cfg_.seed, 0x280, 0));
    std::vector<StmtSpec> own;
    for (int i = 0; i < 300; ++i) {
      draws.Next();
      StmtSpec s;
      s.table = "c";
      s.precision = AsPrinted(draws.Uniform(0, 0.1, 0.5), 4);
      ISLA_RETURN_NOT_OK(client->Execute(s.Sql()).status());
      if (own.size() < kProbeStatements) own.push_back(s);
    }
    ISLA_RETURN_NOT_OK(ProbeNet(client.get(), report));
    client.reset();
    server->Stop();
    report->notes.push_back("net.* from a reference query server over the "
                            "same shards as one FILES table");

    isla::engine::Session session;
    ISLA_RETURN_NOT_OK(session.Execute(ddl).status());
    StmtSpec count;
    count.agg = Agg::kCount;
    count.table = "c";
    count.has_pred = true;
    count.literal = 100.0;
    count.precision = 0.5;
    ISLA_RETURN_NOT_OK(ProbeStatements(&session, own, {count}, report));
    ISLA_ASSIGN_OR_RETURN(auto file_block,
                          isla::storage::FileBlock::Open(shards_.front()));
    isla::storage::GeneratorBlock gen(
        std::make_shared<isla::stats::NormalDistribution>(100.0, 20.0),
        kReferenceRows, SplitMix64::Hash(cfg_.seed, 0x9e));
    ISLA_RETURN_NOT_OK(ProbeStorage(*file_block, gen, cfg_.seed, report));
    return ProbeRuntime(cfg_.seed, report);
  }

 private:
  static constexpr int kWorkers = 4;
  static constexpr int kCallers = 2;
  static constexpr uint64_t kShardRows = 2'500'000;
  static constexpr size_t kMaxLoopbackChecks = 3000;

  struct Caller {
    std::unique_ptr<isla::net::TcpTransport> tcp;
    std::unique_ptr<isla::distributed::FailoverTransport> failover;
  };
  struct Call {
    uint64_t query_id = 0;
    double precision = 0.0;
    bool ok = false;
    isla::distributed::DistributedResult result;
  };

  const RunConfig cfg_;
  std::vector<std::string> shards_;
  double truth_ = 0.0;
  std::unique_ptr<isla::distributed::LoopbackTransport> loopback_;
  std::vector<std::unique_ptr<ServerProcess>> workers_;
  std::vector<Caller> callers_;
  std::vector<Call> calls_;
  uint64_t runs_ = 0;
};

}  // namespace

Result<std::unique_ptr<Workload>> Workload::Create(const RunConfig& cfg) {
  if (cfg.workload == "adhoc_avg") return std::unique_ptr<Workload>(new AdhocAvg(cfg));
  if (cfg.workload == "dashboard") return std::unique_ptr<Workload>(new Dashboard(cfg));
  if (cfg.workload == "adhoc_grouped") {
    return std::unique_ptr<Workload>(new AdhocGrouped(cfg));
  }
  if (cfg.workload == "cluster_avg") return std::unique_ptr<Workload>(new ClusterAvg(cfg));
  return Status::InvalidArgument("unknown workload '" + cfg.workload + "'");
}

}  // namespace islabench
