#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "service/client.h"

extern char** environ;

namespace rfid::bench {

namespace {

constexpr double kStartTimeoutUs = 60e6;
constexpr double kStopTimeoutUs = 60e6;

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

ServiceProcess::ServiceProcess(const Options& options) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  // Close-on-exec, so no other child inherits these ends; the dup2 below
  // gives the service its own stdin and stdout without the flag.
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2() failed");
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("pipe2() failed");
  }
  std::vector<std::string> args = {"rfidmon_bench", "--serve", "--workload",
                                   options.workload};
  if (options.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
  const int rc = ::posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(to_child[0]);
  ::close(from_child[1]);
  stdin_fd_ = to_child[1];
  int out = from_child[0];
  if (rc != 0) {
    pid_ = -1;
    close_fd(out);
    close_fd(stdin_fd_);
    throw std::runtime_error("could not start the service process");
  }

  // The child prints "<service port> <http port>" once it listens.
  std::string line;
  const double deadline = now_us() + kStartTimeoutUs;
  while (line.find('\n') == std::string::npos && now_us() < deadline) {
    pollfd pfd{out, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[64];
    const ssize_t n = ::read(out, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  close_fd(out);
  unsigned svc = 0;
  unsigned http = 0;
  if (std::sscanf(line.c_str(), "%u %u", &svc, &http) != 2) {
    (void)stop();
    throw std::runtime_error("service process did not report its ports");
  }
  port_ = static_cast<std::uint16_t>(svc);
  http_port_ = static_cast<std::uint16_t>(http);
}

ServiceProcess::~ServiceProcess() { (void)stop(); }

int ServiceProcess::stop() {
  if (pid_ < 0) return exit_status_;
  // EOF on its stdin asks the service to drain and exit.
  close_fd(stdin_fd_);
  int status = 0;
  const double deadline = now_us() + kStopTimeoutUs;
  for (;;) {
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_) break;
    if (got < 0) {
      status = -1;
      break;
    }
    if (now_us() > deadline) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  return exit_status_;
}

double ServiceProcess::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServiceProcess::peak_rss_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

Scrape ServiceProcess::scrape() const {
  Scrape scrape;
  std::istringstream body(service::http_get(http_port_, "/metrics"));
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape.values[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return scrape;
}

// ------------------------------------------------------------- scrape ----

namespace {

/// True when an exposition key is a series of `family`: its bare name or
/// its name followed by a label block.
bool in_family(const std::string& key, std::string_view family) {
  return key.compare(0, family.size(), family) == 0 &&
         (key.size() == family.size() || key[family.size()] == '{');
}

}  // namespace

double Scrape::total(std::string_view family) const {
  return labeled(family, "");
}

double Scrape::labeled(std::string_view family, std::string_view label) const {
  double sum = 0.0;
  for (const auto& [key, value] : values) {
    if (in_family(key, family) && key.find(label) != std::string::npos) {
      sum += value;
    }
  }
  return sum;
}

std::vector<std::pair<double, double>> Scrape::buckets(
    std::string_view family) const {
  // Cumulative bucket counts by upper edge, summed over label sets.
  std::map<double, double> cumulative;
  const std::string prefix = std::string(family) + "_bucket{";
  for (const auto& [key, value] : values) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t le = key.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string edge = key.substr(le + 4, key.find('"', le + 4) - le - 4);
    const double upper =
        edge == "+Inf" ? 1e300 : std::strtod(edge.c_str(), nullptr);
    cumulative[upper] += value;
  }
  return {cumulative.begin(), cumulative.end()};
}

}  // namespace rfid::bench
