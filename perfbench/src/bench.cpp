#include "bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "mult/adders.h"
#include "mult/multipliers.h"

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ---- tracer ----------------------------------------------------------------

namespace {
thread_local std::uint32_t t_current_span = 0;
thread_local std::vector<std::uint32_t> t_parent_stack;
}  // namespace

std::uint32_t tracer::open() {
  std::uint32_t id = 0;
  {
    std::scoped_lock lock(mutex_);
    id = next_id_++;
  }
  t_parent_stack.push_back(t_current_span);
  t_current_span = id;
  return id;
}

void tracer::close(std::uint32_t id, const char* name, std::int64_t start_ns,
                   std::uint64_t request) {
  const std::int64_t end_ns = now_ns();
  const std::uint32_t parent =
      t_parent_stack.empty() ? 0 : t_parent_stack.back();
  if (!t_parent_stack.empty()) t_parent_stack.pop_back();
  t_current_span = parent;
  std::scoped_lock lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
}

std::vector<double> tracer::durations_ns(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  std::scoped_lock lock(mutex_);
  for (const span& s : spans_) {
    if (wanted == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<tracer::layer_time> tracer::self_times() const {
  std::scoped_lock lock(mutex_);
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, layer_time> layers;
  for (const span& s : spans_) {
    std::string layer(s.name);
    if (const auto dot = layer.rfind('.'); dot != std::string::npos) {
      layer.resize(dot);
    }
    layer_time& t = layers[layer];
    t.layer = layer;
    ++t.spans;
    const std::int64_t total = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        total - (it == child_ns.end() ? 0 : std::min(it->second, total));
    t.total_ms += static_cast<double>(total) / 1e6;
    t.self_ms += static_cast<double>(self) / 1e6;
  }
  std::vector<layer_time> out;
  for (auto& [name, t] : layers) out.push_back(t);
  return out;
}

bool tracer::write_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "name,start_ns,end_ns,id,parent,request\n";
  std::scoped_lock lock(mutex_);
  for (const span& s : spans_) {
    os << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id
       << ',' << s.parent << ',' << s.request << '\n';
  }
  return static_cast<bool>(os);
}

// ---- process accounting ----------------------------------------------------

namespace {
double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}
}  // namespace

double children_cpu_seconds() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return timeval_seconds(children.ru_utime) +
         timeval_seconds(children.ru_stime);
}

double cpu_seconds_self_and_children() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return timeval_seconds(self.ru_utime) + timeval_seconds(self.ru_stime) +
         children_cpu_seconds();
}

namespace {

std::string comm_of(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/comm");
  std::string name;
  std::getline(is, name);
  return name;
}

/// VmHWM of `pid` in MiB; 0 when the process is gone.
double vm_hwm_mb(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Children of every thread of `pid`.
std::vector<int> children_of(int pid) {
  std::vector<int> out;
  std::error_code ec;
  const std::string task = "/proc/" + std::to_string(pid) + "/task";
  // Non-throwing iteration: the process may exit while we read.
  for (std::filesystem::directory_iterator it(task, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::ifstream is(it->path() / "children");
    for (int child = 0; is >> child;) out.push_back(child);
  }
  return out;
}

}  // namespace

rss_sampler::rss_sampler(int root, bool include_root)
    : root_(root),
      include_root_(include_root),
      own_name_(comm_of(::getpid())),
      thread_([this] {
        while (!stop_.load()) {
          sample();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }) {}

rss_sampler::~rss_sampler() {
  stop_ = true;
  thread_.join();
}

double rss_sampler::peak_mb() {
  sample();
  std::scoped_lock lock(mutex_);
  return peak_mb_;
}

void rss_sampler::sample() {
  double peak = include_root_ ? vm_hwm_mb(root_) : 0.0;
  std::vector<int> frontier = children_of(root_);
  while (!frontier.empty()) {
    const int pid = frontier.back();
    frontier.pop_back();
    if (comm_of(pid) != own_name_) peak = std::max(peak, vm_hwm_mb(pid));
    for (const int child : children_of(pid)) frontier.push_back(child);
  }
  std::scoped_lock lock(mutex_);
  peak_mb_ = std::max(peak_mb_, peak);
}

daemon_process& daemon_process::operator=(daemon_process&& other) noexcept {
  if (this != &other) {
    kill_and_reap();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

std::optional<daemon_process> daemon_process::spawn(
    const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (::posix_spawn(&pid, args[0], nullptr, nullptr, args.data(), environ) !=
      0) {
    return std::nullopt;
  }
  daemon_process proc;
  proc.pid_ = pid;
  return proc;
}

double daemon_process::cpu_seconds() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream is("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime is field 14.
  const auto close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::vector<std::string> f;
  for (std::string token; fields >> token;) f.push_back(token);
  // f[0] is field 3 (state); utime..cstime are fields 14..17.
  if (f.size() < 15) return 0.0;
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (std::size_t i = 11; i <= 14; ++i) total += std::stod(f[i]);
  return total / ticks;
}

bool daemon_process::stop(std::chrono::milliseconds grace) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const auto deadline = bench_clock::now() + grace;
  int status = 0;
  while (bench_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_and_reap();
  return false;
}

bool daemon_process::wait() {
  if (pid_ <= 0) return false;
  int status = 0;
  pid_t r = -1;
  while ((r = ::waitpid(pid_, &status, 0)) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void daemon_process::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

// ---- filesystem ------------------------------------------------------------

void fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// ---- seeded inputs ---------------------------------------------------------

axc::rng seeded_rng(std::uint64_t seed, std::uint64_t tag) {
  return axc::rng(mix64(seed * 0x9e3779b97f4a7c15ULL ^ tag));
}

std::size_t pick(axc::rng& gen, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(gen.between(static_cast<std::int64_t>(lo),
                                              static_cast<std::int64_t>(hi)));
}

axc::core::sweep_spec mult8_sweep_spec(const options& opt,
                                       std::uint64_t variant) {
  axc::core::sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 8;
  spec.options.distribution = axc::dist::pmf::half_normal(256, 64.0);
  spec.options.iterations = opt.smoke ? 60 : 1200;
  spec.options.rng_seed = mix64(opt.seed * 0x100 + variant);
  spec.plan.targets = axc::core::default_wmed_targets();
  if (opt.smoke) spec.plan.targets.resize(4);
  spec.plan.runs_per_target = 1;
  spec.seed = axc::mult::unsigned_multiplier(8);
  return spec;
}

axc::core::sweep_spec small_spec(axc::rng& gen, spec_shape shape,
                                 std::size_t iterations,
                                 std::uint64_t rng_seed) {
  axc::core::sweep_spec spec;
  const bool adder = std::string_view(shape.component) == "adder";
  const std::size_t n = std::size_t{1} << shape.width;
  spec.component = shape.component;
  spec.options.width = shape.width;
  spec.options.is_signed = shape.is_signed;
  const double sigma =
      static_cast<double>(n) / static_cast<double>(pick(gen, 2, 8));
  spec.options.distribution =
      shape.is_signed ? axc::dist::pmf::signed_normal(n, 0.0, sigma / 2.0)
                      : axc::dist::pmf::half_normal(n, sigma);
  spec.options.iterations = iterations;
  spec.options.extra_columns = 16;
  spec.options.rng_seed = rng_seed;
  static constexpr double kTargets[] = {0.0005, 0.002, 0.005, 0.01,
                                        0.02,   0.05};
  const std::size_t count = pick(gen, 2, 3);
  const std::size_t first = pick(gen, 0, std::size(kTargets) - count);
  for (std::size_t k = 0; k < count; ++k) {
    spec.plan.targets.push_back(kTargets[first + k]);
  }
  spec.plan.runs_per_target = 1;
  spec.seed = adder ? axc::mult::ripple_adder(shape.width)
              : shape.is_signed ? axc::mult::signed_multiplier(shape.width)
                                : axc::mult::unsigned_multiplier(shape.width);
  return spec;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string metrics_json(const std::vector<metric>& metrics) {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out += (i ? ", \"" : "\"") + json_escape(metrics[i].name) +
           "\": {\"value\": " + number + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
