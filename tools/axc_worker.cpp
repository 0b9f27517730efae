// Shard worker: one process, one sweep_spec, one durable checkpoint.
//
//   axc_worker --spec <file> --checkpoint <file> [--autosave-generations N]
//
// The whole lifecycle is resume-or-create: if the checkpoint exists, holds
// this spec's plan and is (even partially) readable, the session restores
// every salvaged job and run() executes only the remainder; otherwise the
// sweep starts fresh.
// Progress is persisted through the session's own autosave (atomic
// save_file after every completed job, plus every N generation ticks), so
// the coordinator can SIGKILL this process at any instant and relaunch it
// without losing completed work — which is exactly what the supervision
// tests do.
//
// Deterministic fault injection is armed from the AXC_FAULT environment
// variable (see support/fault.h):
//   worker-sleep-start=MS        sleep before doing anything (stall tests)
//   worker-crash-generation@K    _Exit(42) at the K-th generation tick
// plus the session-save-* points inside save_file itself.
//
// Exit codes: 0 shard complete; 2 bad usage/spec; 3 final save failed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/search_session.h"
#include "core/shard_runner.h"
#include "support/fault.h"

namespace {

constexpr const char* kUsage =
    "usage: axc_worker --spec <file> --checkpoint <file> "
    "[--autosave-generations N]\n";

constexpr std::string_view kFaultSleepStart = "worker-sleep-start";
constexpr std::string_view kFaultCrashGeneration = "worker-crash-generation";

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string checkpoint_path;
  std::size_t autosave_generations = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--autosave-generations" && i + 1 < argc) {
      autosave_generations = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (spec_path.empty() || checkpoint_path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  axc::fault::configure_from_env();
  if (const auto ms = axc::fault::fire(kFaultSleepStart)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
  }

  const auto spec = axc::core::sweep_spec::read_file(spec_path);
  if (!spec) {
    std::fprintf(stderr, "axc_worker: unreadable spec %s\n",
                 spec_path.c_str());
    return 2;
  }
  const axc::core::component_handle component = spec->make_component();
  if (!component) {
    std::fprintf(stderr, "axc_worker: unknown component '%s'\n",
                 spec->component.c_str());
    return 2;
  }

  axc::core::session_config options;
  options.autosave_path = checkpoint_path;
  options.autosave_generations = autosave_generations;
  if (axc::fault::active()) {
    // Crash injection rides the generation tick stream; the stride-1
    // callback is only installed when a fault plan is armed, so production
    // workers pay nothing for it.
    options.generation_stride = 1;
    options.on_progress = [](const axc::core::progress_event& event) {
      if (event.kind != axc::core::progress_kind::job_generation) return;
      if (axc::fault::fire(kFaultCrashGeneration)) {
        // A real crash: no stack unwinding, no destructors, no flush — the
        // checkpoint on disk is whatever the last autosave made durable.
        std::_Exit(42);
      }
    };
  }

  std::optional<axc::core::search_session> session;
  if (std::filesystem::exists(checkpoint_path)) {
    axc::core::resume_report report;
    session = axc::core::search_session::resume_file(
        checkpoint_path, component, options, &report);
    if (session && !axc::core::same_plan(session->plan(), spec->plan)) {
      // Written for another split of the sweep (the work_dir ran at a
      // different shard count): its jobs are not this shard's.  Remove it
      // so heartbeats never count its records as this shard's progress.
      std::fprintf(stderr,
                   "axc_worker: checkpoint %s holds another plan; starting "
                   "fresh\n",
                   checkpoint_path.c_str());
      session.reset();
      std::error_code ec;
      std::filesystem::remove(checkpoint_path, ec);
    } else if (session) {
      std::fprintf(stderr,
                   "axc_worker: resumed %zu job%s from %s (v%u%s)\n",
                   report.jobs_recovered,
                   report.jobs_recovered == 1 ? "" : "s",
                   checkpoint_path.c_str(), report.version,
                   report.salvaged ? ", salvaged" : "");
    } else {
      std::fprintf(stderr,
                   "axc_worker: checkpoint %s unusable; starting fresh\n",
                   checkpoint_path.c_str());
    }
  }
  if (!session) {
    session.emplace(component, spec->seed, spec->plan, options);
  }

  session->run();
  if (!session->finished()) {
    std::fprintf(stderr, "axc_worker: session stopped before finishing\n");
    return 3;
  }
  // The last per-job autosave already persisted everything, but save once
  // more explicitly so a transient autosave failure cannot leave the final
  // state unwritten.
  bool saved = false;
  for (int attempt = 0; attempt < 3 && !saved; ++attempt) {
    saved = session->save_file(checkpoint_path);
  }
  if (!saved) {
    std::fprintf(stderr, "axc_worker: final save to %s failed\n",
                 checkpoint_path.c_str());
    return 3;
  }
  std::printf("axc_worker: %zu/%zu jobs complete, checkpoint %s\n",
              session->completed_jobs(), session->total_jobs(),
              checkpoint_path.c_str());
  return 0;
}
