#include "wire.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace fleetbench {

using namespace pipeopt;
using Clock = std::chrono::steady_clock;

Conn::Conn(std::uint16_t port, std::chrono::milliseconds timeout) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect to port " + std::to_string(port) + ": " + why);
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  reader_ = util::FdLineReader(fd_);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::send(std::string_view line) {
  return util::write_line(fd_, std::string(line));
}

bool Conn::read_line(std::string& line) {
  return reader_.next_line(line) && reader_.last_terminated();
}

std::string_view line_type(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"type\":\"";
  if (line.substr(0, kPrefix.size()) != kPrefix) return {};
  const std::size_t end = line.find('"', kPrefix.size());
  if (end == std::string_view::npos) return {};
  return line.substr(kPrefix.size(), end - kPrefix.size());
}

bool exchange(Conn& conn, std::string_view line, bool pareto,
              std::vector<std::string>& response) {
  response.clear();
  if (!conn.send(line)) return false;
  for (;;) {
    std::string reply;
    if (!conn.read_line(reply)) return false;
    const bool more = pareto && line_type(reply) == "result";
    response.push_back(std::move(reply));
    if (!more) return true;
  }
}

std::string field(const io::JsonFields& fields, std::string_view key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

io::JsonFields ask(Conn& conn, std::string_view type) {
  std::vector<std::string> response;
  const std::string line = "{\"type\":\"" + std::string(type) + "\"}";
  if (!exchange(conn, line, false, response)) {
    throw std::runtime_error(std::string(type) + " request got no answer");
  }
  return io::parse_flat_json(response.front());
}

ProcSample sample_process(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), {});
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) throw std::runtime_error("no " + base + "/stat");
  // Fields after the command name: state is field 3; utime and stime are
  // fields 14 and 15, i.e. the 12th and 13th after the state.
  std::istringstream rest(text.substr(paren + 2));
  std::string token;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> token; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(token.c_str(), nullptr);
  }
  ProcSample sample;
  sample.cpu_seconds = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream status(base + "/status");
  for (std::string row; std::getline(status, row);) {
    if (row.rfind("VmHWM:", 0) == 0) {
      sample.hwm_mb = std::strtod(row.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return sample;
}

HostTicks sample_host() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostTicks ticks;
  double value = 0.0;
  for (int i = 0; i < 8 && stat >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

namespace {

/// Children of every thread of `pid` (/proc/<pid>/task/<tid>/children).
std::vector<pid_t> children_of(pid_t pid) {
  std::vector<pid_t> children;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return children;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/children");
    for (long child; in >> child;) children.push_back(static_cast<pid_t>(child));
  }
  ::closedir(dir);
  return children;
}

/// True while `pid` exists and is not a zombie.
bool alive(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), {});
  const std::size_t paren = text.rfind(')');
  return paren != std::string::npos && paren + 2 < text.size() &&
         text[paren + 2] != 'Z';
}

}  // namespace

Fleet::Fleet(const std::string& cli, std::size_t shards,
             std::size_t cache_entries, const std::string& log_path,
             const std::vector<std::string>& extra_args) {
  const auto launched = Clock::now();
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const std::string spawn = std::to_string(shards);
  const std::string entries = std::to_string(cache_entries);
  std::vector<const char*> argv = {cli.c_str(), "route", "--spawn", spawn.c_str(),
                                   "--jobs", "1", "--cache-entries",
                                   entries.c_str()};
  for (const std::string& arg : extra_args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  if (log_fd >= 0) ::posix_spawn_file_actions_adddup2(&actions, log_fd, STDERR_FILENO);
  // Unlike fork, posix_spawn does not copy this process's page tables, so
  // the launch time does not grow with the workload this process holds.
  const int spawned = ::posix_spawn(&router_pid_, cli.c_str(), &actions, nullptr,
                                    const_cast<char* const*>(argv.data()), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (log_fd >= 0) ::close(log_fd);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(out[0]);
    router_pid_ = -1;
    throw std::runtime_error("cannot launch " + cli + ": " + std::strerror(spawned));
  }
  stdout_fd_ = out[0];

  // "pipeopt-router listening on H:P over N shards" announces the port.
  const auto give_up = launched + std::chrono::seconds(30);
  std::string text;
  constexpr std::string_view kMarker = "pipeopt-router listening on ";
  for (;;) {
    const std::size_t at = text.find(kMarker);
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::string address =
          text.substr(at + kMarker.size(), eol - at - kMarker.size());
      const std::size_t colon = address.find(':');
      port_ = static_cast<std::uint16_t>(std::atoi(address.c_str() + colon + 1));
      break;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - Clock::now());
    char chunk[4096];
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("fleet did not announce its port (see " + log_path + ")");
    }
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      stop();
      throw std::runtime_error("fleet exited before listening (see " + log_path + ")");
    }
    text.append(chunk, static_cast<std::size_t>(n));
  }

  try {
    Conn conn(port_, std::chrono::seconds(10));
    if (field(ask(conn, "health"), "pid") != std::to_string(router_pid_)) {
      throw std::runtime_error("health pid is not the launched router");
    }
    while (field(ask(conn, "stats"), "shards_up") != spawn) {
      if (Clock::now() > give_up) throw std::runtime_error("shards never came up");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    setup_s_ = std::chrono::duration<double>(Clock::now() - launched).count();
    shard_pids_ = children_of(router_pid_);
    if (shard_pids_.size() != shards) {
      throw std::runtime_error("router has " + std::to_string(shard_pids_.size()) +
                               " children, expected " + spawn);
    }
  } catch (...) {
    stop();
    throw;
  }
}

Fleet::~Fleet() { stop(); }

bool Fleet::stop() {
  if (router_pid_ <= 0) return true;
  if (shard_pids_.empty()) shard_pids_ = children_of(router_pid_);
  ::kill(router_pid_, SIGTERM);
  bool clean = false;
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(router_pid_, &status, WNOHANG);
    if (done == router_pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (Clock::now() > give_up) {
      ::kill(router_pid_, SIGKILL);
      for (const pid_t shard : shard_pids_) ::kill(shard, SIGKILL);
      ::waitpid(router_pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  router_pid_ = -1;
  // The router reaps its shards while draining; after a SIGKILL they are
  // reparented and reaped by init. Either way, wait until they are gone.
  const auto shards_gone = Clock::now() + std::chrono::seconds(5);
  for (const pid_t shard : shard_pids_) {
    while (alive(shard)) {
      if (Clock::now() > shards_gone + std::chrono::seconds(5)) break;
      if (Clock::now() > shards_gone) {
        ::kill(shard, SIGKILL);
        clean = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return clean;
}

}  // namespace fleetbench
