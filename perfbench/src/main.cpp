// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <sweep-mult8|serve-hit|serve-miss|recover>
//             --seed N --seconds S --trace 0|1 --bin-dir D --run-dir D
//             [--size full|smoke] [--trace-out FILE]
//             [--git-sha SHA] [--source-digest HEX]
//   perfbench --cache-build SPEC_FILE OUT_FILE
//
// Prints a `{"context": ...}` line, a `{"report": ...}` line with the
// workload-specific figures, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.  Child processes inherit a
// stdout redirected to /dev/null so the result line stays last.
//
// The --cache-build form builds the evaluator cache of one sweep spec and
// writes the build's seconds to OUT_FILE.  The sweep workloads exec it for
// every set-up sample, so each build runs in a fresh process with the
// default allocator, as in an axc_worker.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "bench.h"
#include "layers.h"
#include "metrics/scan_kernels.h"
#include "support/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#define PERFBENCH_CXX_FLAGS "unknown"
#define PERFBENCH_COMPILER "unknown"
#define PERFBENCH_NATIVE 0
#endif

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <sweep-mult8|serve-hit|serve-miss|recover>\n"
    "                 --seed N --seconds S --trace 0|1 --bin-dir D\n"
    "                 --run-dir D [--size full|smoke] [--trace-out FILE]\n"
    "                 [--git-sha SHA] [--source-digest HEX]\n";

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--cache-build") {
    return perfbench::cache_build_main(argv[2], argv[3]);
  }
  perfbench::options opt;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
      have_trace = true;
    } else if (arg == "--size" && has_value) {
      const std::string size = argv[++i];
      if (size != "full" && size != "smoke") {
        std::fputs(kUsage, stderr);
        return 2;
      }
      opt.smoke = size == "smoke";
    } else if (arg == "--bin-dir" && has_value) {
      opt.bin_dir = argv[++i];
    } else if (arg == "--run-dir" && has_value) {
      opt.run_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_path = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (arg == "--source-digest" && has_value) {
      source_digest = argv[++i];
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  const bool known = opt.workload == "sweep-mult8" ||
                     opt.workload == "serve-hit" ||
                     opt.workload == "serve-miss" || opt.workload == "recover";
  if (!known || !have_trace || opt.bin_dir.empty() || opt.run_dir.empty() ||
      opt.seconds <= 0.0) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  // Keep worker chatter off the result stream.
  const int result_fd = ::dup(STDOUT_FILENO);
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (result_fd < 0 || devnull < 0 || ::dup2(devnull, STDOUT_FILENO) < 0) {
    std::perror("perfbench: redirecting stdout");
    return 1;
  }
  ::close(devnull);
  std::FILE* result = ::fdopen(result_fd, "w");
  if (result == nullptr) return 1;

  const std::string simd_level = axc::simd::level_name(
      axc::metrics::resolve_scan_level(axc::simd::level::automatic));
  std::fprintf(
      result,
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"size\": \"%s\", \"nproc\": %u, \"cpu_model\": "
      "\"%s\", \"simd_level\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"native\": %d, "
      "\"git_sha\": \"%s\", \"source_digest\": \"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.smoke ? "smoke" : "full",
      std::thread::hardware_concurrency(),
      perfbench::json_escape(cpu_model()).c_str(), simd_level.c_str(),
      PERFBENCH_BUILD_TYPE, perfbench::json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_NATIVE,
      perfbench::json_escape(git_sha).c_str(),
      perfbench::json_escape(source_digest).c_str());
  std::fflush(result);

  perfbench::fresh_dir(opt.run_dir);
  perfbench::tracer trace(opt.trace);
  perfbench::outcome out;
  if (opt.workload == "sweep-mult8") {
    perfbench::run_sweep_workload(opt, trace, out, /*crash_recover=*/false);
  } else if (opt.workload == "recover") {
    perfbench::run_sweep_workload(opt, trace, out, /*crash_recover=*/true);
  } else if (opt.workload == "serve-hit") {
    perfbench::run_serve_hit_workload(opt, trace, out);
  } else {
    perfbench::run_serve_miss_workload(opt, trace, out);
  }
  perfbench::remove_tree(opt.run_dir);

  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  out.note("error_rate", error_rate, "ratio");
  // In the traced run the end-to-end figures were measured with spans on;
  // their difference from an untraced run is the tracing overhead.
  if (opt.trace) {
    for (const perfbench::metric& m : out.end_to_end) {
      out.note("traced." + m.name, m.value, m.unit);
    }
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + perfbench::json_escape(out.failures[i]) +
                "\"";
  }
  failures += "]";
  std::fprintf(result, "{\"report\": %s, \"failures\": %s}\n",
               perfbench::metrics_json(out.report).c_str(), failures.c_str());

  if (opt.trace) {
    std::string layers = "{";
    bool first = true;
    for (const auto& t : trace.self_times()) {
      char row[256];
      std::snprintf(row, sizeof row,
                    "%s\"%s\": {\"spans\": %zu, \"total_ms\": %.3f, "
                    "\"self_ms\": %.3f}",
                    first ? "" : ", ", t.layer.c_str(), t.spans, t.total_ms,
                    t.self_ms);
      layers += row;
      first = false;
    }
    std::fprintf(result, "{\"layer_self_time\": %s}\n", (layers + "}").c_str());
    if (!opt.trace_path.empty() && !trace.write_csv(opt.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_path.c_str());
    }
  }

  std::fprintf(result,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": %s}\n",
               out.failed == 0 && out.attempted > 0 ? "true" : "false",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               perfbench::metrics_json(opt.trace ? out.per_layer
                                                 : out.end_to_end)
                   .c_str());
  std::fclose(result);
  return 0;
}
