// Transport and process control for the benchmark: a blocking keep-alive
// HTTP/1.1 connection over loopback, the aqua_serve child process, and
// /stats snapshots.
#ifndef AQUA_PERFBENCH_LOAD_H_
#define AQUA_PERFBENCH_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// steady_clock nanoseconds (CLOCK_MONOTONIC).
std::int64_t NowNs();

/// One client connection.  Requests are pre-rendered wire bytes; responses
/// are framed by Content-Length.  Send and read are separate so a caller
/// can pipeline: send a burst, then read as many responses.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view wire);
  /// Reads the next response.  Returns its status code, or 0 on a socket
  /// error, timeout or malformed framing.  `*body` views the connection's
  /// buffer and is valid until the next call.
  int Read(std::string_view* body);
  /// Send + Read.
  int RoundTrip(std::string_view wire, std::string_view* body);

 private:
  bool Fill();

  int fd_ = -1;
  std::string buf_;
  std::size_t start_ = 0;
  std::size_t end_ = 0;
};

/// The server under test, started with `--port 0` and otherwise its
/// default flags.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks and execs `binary`, waits for its "listening on" line.  The
  /// server's stderr goes to `log_path`.
  bool Start(const std::string& binary, const std::string& log_path,
             std::string* error);
  std::uint16_t port() const { return port_; }
  bool running() const { return pid_ > 0; }

  /// VmHWM of the server from /proc/<pid>/status, in MB; -1 if unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then waits up to `timeout_s`.  Returns the exit code, or -1
  /// if the server died by a signal or had to be killed.
  int Stop(double timeout_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The /stats counters the benchmark reads.
struct StatsSnapshot {
  bool ok = false;
  std::int64_t inserts = 0;
  std::int64_t epoch = 0;
  std::int64_t requests = 0;
  std::int64_t syscalls = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Summed over synopses.
  std::int64_t refreshes = 0;
};

StatsSnapshot ReadStats(Conn& conn);

/// Renders a GET request's wire bytes.
std::string GetWire(std::string_view target, bool no_cache);
/// Renders a POST /ingest request carrying `body`.
std::string PostWire(std::string_view path, std::string_view body);

}  // namespace perfbench

#endif  // AQUA_PERFBENCH_LOAD_H_
