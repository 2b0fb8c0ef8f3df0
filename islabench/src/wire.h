#ifndef ISLABENCH_WIRE_H_
#define ISLABENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace islabench {

using isla::Result;
using isla::Status;

/// Monotonic clock in nanoseconds.
int64_t NowNanos();

/// A framed TCP client of the query server: one frame per statement out,
/// one or more frames per statement back (PARTIAL frames, then the final
/// "ok\n..." / "error: ..." response). Reads are non-blocking and buffered
/// so one thread can interleave sends and receives (the open loop).
class SqlClient {
 public:
  static Result<std::unique_ptr<SqlClient>> Connect(uint16_t port);
  ~SqlClient();
  SqlClient(const SqlClient&) = delete;
  SqlClient& operator=(const SqlClient&) = delete;

  int fd() const { return fd_; }

  /// Sends one statement frame (blocks until the kernel took every byte).
  Status Send(std::string_view statement);

  /// Reads every byte the socket has ready without blocking. Fails on EOF
  /// or a socket error.
  Status Pump();

  /// Moves the next complete frame's payload into `payload`. Returns false
  /// when no whole frame is buffered; fails on a corrupt frame.
  Result<bool> Pop(std::string* payload);

  /// Waits up to `timeout_ms` for the next frame.
  Result<std::string> Next(int64_t timeout_ms);

  /// Sends `statement` and returns its final response, counting the
  /// PARTIAL frames that preceded it into `*partials` (nullable).
  Result<std::string> Execute(std::string_view statement,
                              uint64_t* partials = nullptr,
                              int64_t timeout_ms = 30000);

 private:
  explicit SqlClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string in_;
  size_t in_pos_ = 0;
};

/// True when `payload` is a PARTIAL progress frame rather than a final
/// response.
bool IsPartial(std::string_view payload);

/// A daemon child process (`isla_serverd`), started with its stdin and
/// stdout on pipes. The daemon runs until its stdin closes, so dropping the
/// pipe — also when this process dies — stops it.
class ServerProcess {
 public:
  /// Starts `argv` and waits for its "listening on 127.0.0.1:<port>" line.
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::vector<std::string>& argv, int64_t timeout_ms = 30000);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set (VmHWM) in MiB, or a negative value when unknown.
  double PeakRssMb() const;
  /// Closes stdin and waits for exit (SIGKILL after a grace period).
  void Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace islabench

#endif  // ISLABENCH_WIRE_H_
