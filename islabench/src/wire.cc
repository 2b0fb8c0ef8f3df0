#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "net/frame.h"
#include "net/partial.h"

extern char** environ;

namespace islabench {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

int64_t NowMillis() { return NowNanos() / 1'000'000; }

/// Waits for `events` on `fd` until `deadline_ms` (absolute, NowMillis).
Status WaitFd(int fd, short events, int64_t deadline_ms, const char* what) {
  while (true) {
    int64_t left = deadline_ms - NowMillis();
    if (left <= 0) return Status::IOTimeout(std::string(what) + " timed out");
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left, 1000)));
    if (rc > 0) return Status::OK();
    if (rc < 0 && errno != EINTR) return Errno(what);
  }
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsPartial(std::string_view payload) {
  return isla::net::IsPartialFrame(payload);
}

// --- SqlClient ---

Result<std::unique_ptr<SqlClient>> SqlClient::Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    Status st = Errno("connect");
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  std::unique_ptr<SqlClient> client(new SqlClient(fd));
  // The server greets every admitted session before its first statement
  // (a refused one gets an error frame instead).
  ISLA_ASSIGN_OR_RETURN(std::string greeting, client->Next(30000));
  if (greeting.rfind("ok\n", 0) != 0) {
    return Status::IOError("session refused: " + greeting);
  }
  return client;
}

SqlClient::~SqlClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status SqlClient::Send(std::string_view statement) {
  const std::string frame = isla::net::EncodeFrame(statement);
  size_t off = 0;
  const int64_t deadline = NowMillis() + 30000;
  while (off < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ISLA_RETURN_NOT_OK(WaitFd(fd_, POLLOUT, deadline, "send"));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Errno("send");
    }
  }
  return Status::OK();
}

Status SqlClient::Pump() {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno != EINTR) return Errno("recv");
  }
}

Result<bool> SqlClient::Pop(std::string* payload) {
  const size_t avail = in_.size() - in_pos_;
  if (avail < isla::net::kFrameHeaderBytes) return false;
  ISLA_ASSIGN_OR_RETURN(isla::net::FrameHeader header,
                        isla::net::DecodeFrameHeader(in_.data() + in_pos_));
  if (avail < isla::net::kFrameHeaderBytes + header.payload_length) {
    return false;
  }
  std::string_view body(in_.data() + in_pos_ + isla::net::kFrameHeaderBytes,
                        header.payload_length);
  ISLA_RETURN_NOT_OK(isla::net::VerifyFramePayload(header, body));
  payload->assign(body);
  in_pos_ += isla::net::kFrameHeaderBytes + header.payload_length;
  if (in_pos_ == in_.size()) {
    in_.clear();
    in_pos_ = 0;
  } else if (in_pos_ > (1u << 20)) {
    in_.erase(0, in_pos_);
    in_pos_ = 0;
  }
  return true;
}

Result<std::string> SqlClient::Next(int64_t timeout_ms) {
  const int64_t deadline = NowMillis() + timeout_ms;
  std::string payload;
  while (true) {
    ISLA_ASSIGN_OR_RETURN(bool have, Pop(&payload));
    if (have) return payload;
    ISLA_RETURN_NOT_OK(WaitFd(fd_, POLLIN, deadline, "response"));
    ISLA_RETURN_NOT_OK(Pump());
  }
}

Result<std::string> SqlClient::Execute(std::string_view statement,
                                       uint64_t* partials,
                                       int64_t timeout_ms) {
  ISLA_RETURN_NOT_OK(Send(statement));
  while (true) {
    ISLA_ASSIGN_OR_RETURN(std::string payload, Next(timeout_ms));
    if (!IsPartial(payload)) return payload;
    if (partials != nullptr) ++*partials;
  }
}

// --- ServerProcess ---

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::vector<std::string>& argv, int64_t timeout_ms) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) < 0) return Errno("pipe");
  if (::pipe2(out_pipe, O_CLOEXEC) < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return Errno("pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  int rc = ::posix_spawn(&proc->pid_, args[0], &actions, nullptr, args.data(),
                         environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  proc->stdin_fd_ = in_pipe[1];
  proc->stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    proc->pid_ = -1;
    return Status::IOError(std::string("spawn ") + argv[0] + ": " +
                           std::strerror(rc));
  }
  // Read the daemon's output up to its listening line.
  const int64_t deadline = NowMillis() + timeout_ms;
  std::string text;
  const std::string marker = "listening on 127.0.0.1:";
  while (true) {
    size_t at = text.find(marker);
    if (at != std::string::npos) {
      size_t eol = text.find('\n', at);
      if (eol != std::string::npos) {
        proc->port_ = static_cast<uint16_t>(
            std::strtoul(text.c_str() + at + marker.size(), nullptr, 10));
        if (proc->port_ == 0) return Status::IOError("bad listening line");
        return proc;
      }
    }
    ISLA_RETURN_NOT_OK(
        WaitFd(proc->stdout_fd_, POLLIN, deadline, "server start"));
    char buf[4096];
    ssize_t n = ::read(proc->stdout_fd_, buf, sizeof(buf));
    if (n == 0) {
      return Status::IOError(std::string(argv[0]) +
                             " exited before listening: " + text);
    }
    if (n < 0 && errno != EINTR) return Errno("read server banner");
    if (n > 0) text.append(buf, static_cast<size_t>(n));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ < 0) return -1.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return -1.0;
}

void ServerProcess::Stop() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ > 0) {
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {  // 5 s grace
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace islabench
