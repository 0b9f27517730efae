// Shared plumbing of the end-to-end benchmark: options, result assembly,
// span tracing, process accounting and the seeded spec generators.
//
// The benchmark drives the real runtime (core::run_sweep spawning
// axc_worker processes, an axc_serve daemon over a Unix socket) and only
// ever calls API that survives the planned removal of the lambda-batch
// engine, the lambda-thread path and the legacy approximate()/sweep()
// wrappers: it never sets `threads`, `batch_candidates` or `incremental`,
// and never calls evolver::run_incremental, evaluate_children /
// evaluate_batch or the legacy wrappers.  See README.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_runner.h"
#include "support/rng.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(bench_clock::time_point a,
                                            bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// The minimal shape the smoke check uses to prove every metric is
  /// produced; BENCHMARK.json runs the full size.
  bool smoke{false};
  /// Directory holding the built axc_worker / axc_serve binaries.
  std::string bin_dir;
  /// Scratch root for stores, work dirs and sockets (relative paths keep
  /// socket names short).
  std::string run_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;

  [[nodiscard]] std::string worker_binary() const {
    return bin_dir + "/axc_worker";
  }
  [[nodiscard]] std::string serve_binary() const {
    return bin_dir + "/axc_serve";
  }
};

/// One named measurement with its unit.
struct metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one benchmark invocation produces.  The result line carries
/// `end_to_end` without tracing and `per_layer` with it; `report` holds the
/// workload-specific views printed on the human-readable report line.
struct outcome {
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  std::vector<metric> report;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  ///< first few failure descriptions

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one attempted operation; `ok == false` records a failure.
  void count(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& samples);

// ---- Tracing ---------------------------------------------------------------

/// In-memory span recorder.  Spans carry (name, start, end, parent span,
/// request id); a thread-local stack supplies the parent.  Disabled
/// tracers record nothing and cost one branch per span.
class tracer {
 public:
  struct span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    std::uint64_t request;
  };

  explicit tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and makes it the calling thread's current parent.
  [[nodiscard]] std::uint32_t open();
  /// Closes span `id`, restoring `parent` as the thread's current span.
  void close(std::uint32_t id, const char* name, std::int64_t start_ns,
             std::uint64_t request);

  /// Durations (ns) of every recorded span named `name`.
  [[nodiscard]] std::vector<double> durations_ns(const char* name) const;

  /// Per-layer self time (span duration minus the part its children
  /// cover); the layer of "core.result_store.get" is "core.result_store".
  struct layer_time {
    std::string layer;
    std::size_t spans{0};
    double total_ms{0.0};
    double self_ms{0.0};
  };
  [[nodiscard]] std::vector<layer_time> self_times() const;

  /// Writes every span as CSV (name,start_ns,end_ns,id,parent,request).
  bool write_csv(const std::string& path) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               bench_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<span> spans_;
  std::uint32_t next_id_{1};
};

/// RAII span around one call into a layer.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::uint64_t request = 0)
      : tracer_(t), name_(name), request_(request) {
    if (tracer_.enabled()) {
      id_ = tracer_.open();
      start_ns_ = tracer::now_ns();
    }
  }
  ~scoped_span() {
    if (tracer_.enabled()) tracer_.close(id_, name_, start_ns_, request_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer& tracer_;
  const char* name_;
  std::uint64_t request_;
  std::uint32_t id_{0};
  std::int64_t start_ns_{0};
};

// ---- Process accounting ----------------------------------------------------

/// CPU seconds of every reaped descendant.
[[nodiscard]] double children_cpu_seconds();
/// CPU seconds of this process plus every reaped descendant.
[[nodiscard]] double cpu_seconds_self_and_children();

/// Peak RSS of a process tree, sampled from /proc every 50 ms on a
/// background thread.  It reads VmHWM, which a process starts afresh at
/// exec; the ru_maxrss of a reaped child would instead include the parent
/// memory its fork copied, here the benchmark's own.  For the same reason
/// it skips children caught between fork and exec (still named like this
/// process).
class rss_sampler {
 public:
  /// Samples every descendant of `root`, and `root` itself when
  /// `include_root`.
  rss_sampler(int root, bool include_root);
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;
  ~rss_sampler();

  /// Largest VmHWM seen so far, in MiB, after one more sample.
  [[nodiscard]] double peak_mb();

 private:
  void sample();

  int root_;
  bool include_root_;
  std::string own_name_;  ///< this process's /proc comm
  std::mutex mutex_;
  double peak_mb_{0.0};  ///< guarded by mutex_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A daemon child we own directly (so its pid is known for /proc reads).
/// The destructor SIGKILLs and reaps a child that is still running.
class daemon_process {
 public:
  daemon_process() = default;
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;
  daemon_process(daemon_process&& other) noexcept : pid_(other.pid_) {
    other.pid_ = -1;
  }
  daemon_process& operator=(daemon_process&& other) noexcept;
  ~daemon_process() { kill_and_reap(); }

  /// posix_spawn of argv[0] with the given arguments and this process's
  /// environment.
  [[nodiscard]] static std::optional<daemon_process> spawn(
      const std::vector<std::string>& argv);

  /// utime + stime + cutime + cstime of the child, in seconds (reaped
  /// grandchildren included), from /proc.
  [[nodiscard]] double cpu_seconds() const;
  [[nodiscard]] int pid() const { return pid_; }
  /// SIGTERM, then wait up to `grace`; SIGKILL after it.  True when the
  /// child exited with status 0 on its own.
  bool stop(std::chrono::milliseconds grace);
  /// Waits for the child to exit on its own; true when it exited with
  /// status 0.
  bool wait();

 private:
  void kill_and_reap();
  int pid_{-1};
};

// ---- Filesystem ------------------------------------------------------------

/// Removes and recreates `path` (parents included).
void fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

// ---- Seeded inputs ---------------------------------------------------------

/// Stateless 64-bit mixer (one splitmix64 step).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  return axc::splitmix64(x);
}

/// Deterministic stream derived from (benchmark seed, purpose tag).
[[nodiscard]] axc::rng seeded_rng(std::uint64_t seed, std::uint64_t tag);

/// The paper-scale sweep: 8-bit unsigned multiplier, half-normal D
/// (sigma = 64) over the 14 default WMED targets.  `variant` picks one of
/// the seed's search seeds; a run rotates over several so its figures
/// average over search trajectories instead of following one.
[[nodiscard]] axc::core::sweep_spec mult8_sweep_spec(const options& opt,
                                                     std::uint64_t variant);

/// Uniform integer in [lo, hi].
[[nodiscard]] std::size_t pick(axc::rng& gen, std::size_t lo, std::size_t hi);

/// Component class and operand width of a small spec.
struct spec_shape {
  const char* component;
  unsigned width;
  bool is_signed;
};

/// Shapes the serve workloads assign by popularity rank (hits) and by
/// arrival index (misses).  Request cost grows with the spec text, which
/// the shape sets, so a fixed rotation keeps the size mix identical across
/// seeds while the seed draws everything else.
inline constexpr spec_shape kHitShapes[] = {
    {"mult", 8, false}, {"adder", 4, false}, {"mult", 6, true},
    {"mult", 4, false}, {"adder", 6, false}, {"mult", 5, true},
    {"mult", 7, false}, {"adder", 8, false}, {"mult", 8, true},
    {"adder", 5, false}, {"mult", 6, false}, {"adder", 7, false}};
inline constexpr spec_shape kMissShapes[] = {
    {"mult", 4, false}, {"adder", 5, false}, {"mult", 5, true},
    {"adder", 4, false}, {"mult", 6, false}, {"mult", 4, true},
    {"adder", 6, false}, {"mult", 5, false}};

/// A small sweep spec of the given shape: a seeded distribution, 2-3
/// targets and `iterations` generations.  `rng_seed` makes the store key
/// distinct.
[[nodiscard]] axc::core::sweep_spec small_spec(axc::rng& gen,
                                               spec_shape shape,
                                               std::size_t iterations,
                                               std::uint64_t rng_seed);

/// Compact single-line JSON object of metrics: {"name": {"value": v,
/// "unit": "u"}, ...}.
[[nodiscard]] std::string metrics_json(const std::vector<metric>& metrics);
[[nodiscard]] std::string json_escape(const std::string& text);

// ---- Workloads (each fills `out` and returns) ------------------------------

void run_sweep_workload(const options& opt, tracer& trace, outcome& out,
                        bool crash_recover);
void run_serve_hit_workload(const options& opt, tracer& trace, outcome& out);
void run_serve_miss_workload(const options& opt, tracer& trace,
                             outcome& out);

}  // namespace perfbench
