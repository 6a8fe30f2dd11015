#include "perfbench/harness.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/common/log.h"
#include "src/netlist/generators.h"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    const auto number = [&]() { return std::stoull(value()); };
    if (flag == "--mode") a.mode = value();
    else if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = number();
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--short") a.short_mode = true;
    else if (flag == "--lib") a.lib_path = value();
    else if (flag == "--work-root") a.work_root = value();
    else if (flag == "--golden") a.golden = value();
    else if (flag == "--work-dir") a.work_dir = value();
    else if (flag == "--worker-id") a.worker_id = static_cast<std::uint32_t>(number());
    else if (flag == "--workers") a.workers = static_cast<std::uint32_t>(number());
    else if (flag == "--policy") a.policy = value();
    else if (flag == "--lo") a.lo = number();
    else if (flag == "--hi") a.hi = number();
    else if (flag == "--residue") {
      a.residue = static_cast<std::uint32_t>(number());
      a.residue_set = true;
    } else {
      throw std::runtime_error("unknown argument: " + flag);
    }
  }
  if (a.mode != "prepare" && a.workload != "unique_socs" &&
      a.workload != "tiled_sharded" && a.workload != "tiled_warm" &&
      a.workload != "sta_queries") {
    throw std::runtime_error("unknown workload: '" + a.workload + "'");
  }
  if (a.lib_path.empty()) throw std::runtime_error("--lib is required");
  return a;
}

std::uint64_t Stream::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Stream::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

void Tally::fail(const std::string& why, std::uint64_t n) {
  failed += n;
  if (reasons.size() < 16) reasons.push_back(why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double seconds_per_call(const std::function<void()>& fn, std::size_t rounds,
                        std::size_t calls) {
  std::vector<double> per_call;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    per_call.push_back(s / static_cast<double>(calls));
  }
  return median(per_call);
}

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0); }

std::size_t reap_leaked_children() {
  const pid_t self = ::getpid();
  std::vector<pid_t> children;
  if (DIR* d = ::opendir("/proc")) {
    while (const dirent* e = ::readdir(d)) {
      const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
      if (pid <= 0) continue;
      std::ifstream stat("/proc/" + std::string(e->d_name) + "/stat");
      std::string line;
      if (!std::getline(stat, line)) continue;
      // Fields after the parenthesised command: state, ppid, ...
      const std::size_t close = line.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream rest(line.substr(close + 1));
      char state = 0;
      long ppid = 0;
      if (rest >> state >> ppid && ppid == self) children.push_back(pid);
    }
    ::closedir(d);
  }
  for (pid_t pid : children) ::kill(pid, SIGKILL);
  for (pid_t pid : children) ::waitpid(pid, nullptr, 0);
  return children.size();
}

void reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return;
  const ssize_t n = ::write(fd, "5", 1);
  (void)n;
  ::close(fd);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {
double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}
}  // namespace

double cpu_seconds_self() { return cpu_seconds(RUSAGE_SELF); }
double cpu_seconds_children() { return cpu_seconds(RUSAGE_CHILDREN); }

std::string run_child(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> cargv;
    for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child " + argv[0] + " failed (status " +
                             std::to_string(status) + ")");
  }
  return out;
}

std::string format_ws(double ws) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", ws);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool is_sharded_workload(const std::string& w) {
  return w == "tiled_sharded" || w == "tiled_warm";
}

poc::Netlist workload_netlist(const Args& args) {
  // The designs are fixed per workload: the seed varies the ACLV stream,
  // the query mix and the probe samples, not the amount of work.
  if (args.workload == "unique_socs") {
    return args.short_mode ? poc::make_random_logic(12, 16, 0xABCD02)
                           : poc::make_benchmark("rand200");
  }
  if (args.workload == "sta_queries") {
    return poc::make_tiled(args.short_mode ? 30 : 2000);  // ~10.7k gates
  }
  return poc::make_tiled(args.short_mode ? 6 : 120);
}

poc::FlowOptions workload_options(const Args& args, double clock_period) {
  poc::FlowOptions o;
  o.seed = input_seed(args.seed);
  if (clock_period > 0.0) o.sta.clock_period = clock_period;
  if (args.workload == "unique_socs") {
    o.imaging.mode = poc::ImagingMode::kSocs;
    o.threads = 4;
  } else if (args.workload == "sta_queries") {
    o.threads = 1;
  } else {
    o.threads = 2;  // per shard worker
  }
  return o;
}

const poc::StdCellLibrary& library(const Args& args) {
  static const poc::StdCellLibrary lib = [&] {
    poc::set_log_level(poc::LogLevel::kWarn);
    return poc::StdCellLibrary::load_or_characterize(args.lib_path);
  }();
  return lib;
}

}  // namespace perfbench
