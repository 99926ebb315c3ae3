#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "json_lite.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Conn::Conn(std::uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops answering fails the run instead of hanging it.
  timeval timeout = {10, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    return;
  }
  buf_.resize(1 << 16);
}

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

bool Conn::Send(std::string_view wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = write(fd_, wire.data() + off, wire.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Conn::Fill() {
  if (start_ == end_) {
    start_ = end_ = 0;
  } else if (end_ == buf_.size()) {
    if (start_ > 0) {
      std::memmove(buf_.data(), buf_.data() + start_, end_ - start_);
      end_ -= start_;
      start_ = 0;
    } else {
      buf_.resize(buf_.size() * 2);
    }
  }
  while (true) {
    const ssize_t n = read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    end_ += static_cast<std::size_t>(n);
    return true;
  }
}

int Conn::Read(std::string_view* body) {
  if (fd_ < 0) return 0;
  std::size_t head_end = std::string_view::npos;
  while (true) {
    const std::string_view have(buf_.data() + start_, end_ - start_);
    head_end = have.find("\r\n\r\n");
    if (head_end != std::string_view::npos) break;
    if (!Fill()) return 0;
  }
  const std::string_view head(buf_.data() + start_, head_end);
  int status = 0;
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return 0;
  std::from_chars(head.data() + 9, head.data() + 12, status);
  std::size_t length = 0;
  bool has_length = false;
  for (std::size_t at = head.find("\r\n"); at != std::string_view::npos;) {
    const std::size_t line_start = at + 2;
    const std::size_t eol = head.find("\r\n", line_start);
    const std::string_view line =
        head.substr(line_start, eol == std::string_view::npos
                                    ? std::string_view::npos
                                    : eol - line_start);
    constexpr std::string_view kKey = "content-length:";
    if (line.size() > kKey.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kKey.size(); ++i) {
        const char c = line[i];
        const char lower = (c >= 'A' && c <= 'Z') ? c - 'A' + 'a' : c;
        if (lower != kKey[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t p = kKey.size();
        while (p < line.size() && line[p] == ' ') ++p;
        const auto [ptr, ec] =
            std::from_chars(line.data() + p, line.data() + line.size(),
                            length);
        has_length = ec == std::errc();
      }
    }
    at = eol;
  }
  if (!has_length) return 0;
  const std::size_t body_offset = head_end + 4;
  while (end_ - start_ < body_offset + length) {
    if (end_ == buf_.size() && start_ == 0 &&
        buf_.size() < body_offset + length) {
      buf_.resize(body_offset + length);
    }
    if (!Fill()) return 0;
  }
  *body = std::string_view(buf_.data() + start_ + body_offset, length);
  start_ += body_offset + length;
  return status;
}

int Conn::RoundTrip(std::string_view wire, std::string_view* body) {
  if (!Send(wire)) return 0;
  return Read(body);
}

ServerProcess::~ServerProcess() {
  // Early exits still stop the server with SIGTERM first.
  if (pid_ > 0) Stop(5.0);
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

bool ServerProcess::Start(const std::string& binary,
                          const std::string& log_path, std::string* error) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    close(log_fd);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it crashes.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    char* const argv[] = {const_cast<char*>(binary.c_str()),
                          const_cast<char*>("--port"),
                          const_cast<char*>("0"), nullptr};
    execv(binary.c_str(), argv);
    _exit(127);
  }
  close(log_fd);
  close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // "aqua_serve listening on ADDR:PORT"
  std::string line;
  const std::int64_t deadline = NowNs() + 30'000'000'000LL;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd = {stdout_fd_, POLLIN, 0};
    const int wait_ms =
        static_cast<int>(std::max<std::int64_t>(0, deadline - NowNs()) /
                         1'000'000);
    if (poll(&pfd, 1, wait_ms) <= 0) {
      *error = "server did not report its port";
      return false;
    }
    char buf[256];
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "server exited before listening";
      return false;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.rfind(':', line.find('\n'));
  unsigned port = 0;
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos ||
      std::from_chars(line.data() + colon + 1, line.data() + line.size(), port)
              .ec != std::errc() ||
      port == 0 || port > 65535) {
    *error = "unexpected server banner: " + line;
    return false;
  }
  port_ = static_cast<std::uint16_t>(port);
  return true;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = -1;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return -1;
}

int ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  while (true) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

StatsSnapshot ReadStats(Conn& conn) {
  StatsSnapshot s;
  std::string_view body;
  if (conn.RoundTrip(GetWire("/stats", false), &body) != 200) return s;
  Json doc;
  if (!ParseJson(body, &doc)) return s;
  const Json* http = doc.Get("http");
  const Json* io = http != nullptr ? http->Get("io") : nullptr;
  const Json* synopses = doc.Get("synopses");
  if (http == nullptr || io == nullptr || synopses == nullptr) return s;
  s.inserts = static_cast<std::int64_t>(doc.Num("inserts"));
  s.epoch = static_cast<std::int64_t>(doc.Num("epoch"));
  s.requests = static_cast<std::int64_t>(http->Num("requests"));
  s.cache_hits = static_cast<std::int64_t>(http->Num("cache_hits"));
  s.cache_misses = static_cast<std::int64_t>(http->Num("cache_misses"));
  s.syscalls = static_cast<std::int64_t>(io->Num("syscalls"));
  for (const Json& syn : synopses->items) {
    const Json* cache = syn.Get("cache");
    if (cache == nullptr) continue;
    s.refreshes += static_cast<std::int64_t>(cache->Num("refreshes"));
  }
  s.ok = true;
  return s;
}

std::string GetWire(std::string_view target, bool no_cache) {
  std::string wire = "GET ";
  wire.append(target);
  wire.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (no_cache) wire.append("Cache-Control: no-cache\r\n");
  wire.append("\r\n");
  return wire;
}

std::string PostWire(std::string_view path, std::string_view body) {
  std::string wire = "POST ";
  wire.append(path);
  wire.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/json\r\nContent-Length: ");
  wire.append(std::to_string(body.size()));
  wire.append("\r\n\r\n");
  wire.append(body);
  return wire;
}

}  // namespace perfbench
