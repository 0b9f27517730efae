#include "core/shard_runner.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "circuit/serialize.h"
#include "core/node_pool.h"
#include "core/result_store.h"
#include "support/checksum.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/launcher.h"
#include "support/subprocess.h"

namespace axc::core {

namespace {

constexpr std::string_view kSpecMagic = "axc-sweep-spec v1";
constexpr std::string_view kJournalMagic = "coord v1";

/// Coordinator crash points _Exit with 43 (44 is the store's mid-append
/// point) so tests distinguish an injected crash from real worker exits.
constexpr int kCoordCrashExit = 43;
constexpr std::string_view kFaultCrashAfterSpawn = "coord-crash-after-spawn";
constexpr std::string_view kFaultCrashMidMerge = "coord-crash-mid-merge";

/// Shortest exact decimal: %.17g round-trips every double through the
/// stream extractor (same convention as the session checkpoint format).
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::nullopt_t spec_error(const char* what) {
  std::fprintf(stderr, "axc: sweep spec: %s\n", what);
  return std::nullopt;
}

using clock = std::chrono::steady_clock;

/// Completed jobs visible in a shard checkpoint: the count of v2 job
/// record lines.  Netlist lines inside records start with "gate"/"out"/
/// "inputs"/"outputs", never "job ", so a plain scan is exact — and cheap
/// enough to run every supervision poll.
std::size_t count_checkpoint_jobs(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  std::size_t count = 0;
  std::size_t pos = 0;
  while (true) {
    pos = text.find("\njob ", pos);
    if (pos == std::string::npos) break;
    ++count;
    pos += 5;
  }
  return count;
}

/// One worker process launched for a shard on some node.  A shard normally
/// has one; a straggler under speculation has two (primary + duplicate),
/// each writing its own local checkpoint path so they never contend.
struct shard_launch {
  std::size_t node{0};
  bool speculative{false};
  std::optional<support::subprocess> proc{};
  /// Where this launch's checkpoint lands on the *coordinator* (for a
  /// shared-filesystem node the worker writes it here directly).
  std::string checkpoint_path{};
  /// Paths on the node ( == the local paths when filesystems are shared).
  std::string remote_spec{};
  std::string remote_checkpoint{};
  clock::time_point started{};
  clock::time_point last_growth{};
  clock::time_point last_fetch{};
  std::size_t last_jobs{0};
  bool deadline_killed{false};
  bool node_died{false};  ///< killed by node-dead-midrun, already judged
};

struct shard_state {
  plan_shard part{};
  std::string spec_path{};
  std::string checkpoint_path{};  ///< primary path: resume + merge identity
  std::uint64_t store_key{0};  ///< this shard spec's result-store identity
  std::vector<shard_launch> launches{};
  std::size_t attempt{0};
  clock::time_point next_spawn{};
  /// Nodes recent failures ran on — avoided (softly) at the next lease.
  std::vector<std::size_t> avoid_nodes{};
  bool speculated{false};  ///< one duplicate per shard, ever
  bool winner_seen{false};
  /// Attempts ran out while a speculative duplicate was still running; the
  /// duplicate's own death settles the shard as failed.
  bool exhausted{false};
  bool done{false};
  bool failed{false};
  shard_outcome outcome{};
};

[[nodiscard]] std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Coordinator journal ------------------------------------------------
//
// Append-only record of supervision milestones under
// `<work_dir>/coordinator.journal`, every line `<body> crc <8hex>` (CRC32
// over the body) with the session-v2 salvage rule: a damaged line is
// dropped, scanning resyncs at the next newline.  Grammar:
//
//   coord v1 key <16hex>          header; key = sweep_spec::store_key()
//   spawn <shard> <attempt>       worker launched (attempts cumulative
//                                 across coordinator lives)
//   lease <shard> <node> <what>   shard leased to a node; <what> is the
//                                 attempt number or "spec" (duplicate)
//   fetch <shard> <node> <how>    checkpoint pull: ok / torn / fail
//   release <shard> <node> <why>  lease ended without winning: exit<code>,
//                                 torn, dead, superseded, drain, launch
//   complete <shard>              a CRC-valid completed checkpoint won
//   fail <shard> <exit>           attempts exhausted in some life
//   publish <kind> <key> <16hex>  object landed in the result store
//   done                          front published; sweep fully finished
//
// lease/fetch/release are diagnostic truth, not replay state: load_journal
// ignores unknown tags (which is also what makes adding them replay-safe —
// a PR-7-era coordinator re-running this journal skips them cleanly).
//
// A re-run replays spawn/complete to resume supervision: completed shards
// are not respawned (their checkpoints merge directly) and attempt
// counters continue, so first-attempt-only shard_env poison stays applied
// exactly once per shard ever.  A missing, damaged or foreign-key journal
// degrades to a fresh sweep — correctness never depends on the journal
// (worker checkpoints carry the results); it only avoids redundant work
// and keeps attempt accounting truthful across lives.

[[nodiscard]] std::string journal_line(std::string_view body) {
  std::string line(body);
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", support::crc32(body));
  line += " crc ";
  line += buf;
  line += '\n';
  return line;
}

struct coord_journal {
  std::string path{};

  /// Durable append; failure is reported once (a lost journal only costs
  /// redundant work on the next life, never correctness).
  bool append(std::string_view body) {
    if (path.empty()) return false;
    {
      std::ofstream os(path, std::ios::binary | std::ios::app);
      if (!os) return false;
      const std::string line = journal_line(body);
      os.write(line.data(), static_cast<std::streamsize>(line.size()));
      os.flush();
      if (!os) return false;
    }
    return support::fsync_file(path);
  }
};

struct journal_replay {
  bool valid{false};  ///< header present with this sweep's key
  std::vector<std::size_t> attempts{};  ///< cumulative spawns per shard
  std::vector<bool> completed{};
};

[[nodiscard]] std::optional<std::uint64_t> parse_hex(const std::string& s) {
  if (s.empty() || s.size() > 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(s, nullptr, 16);
}

journal_replay load_journal(const std::string& path, std::uint64_t key,
                            std::size_t shard_count) {
  journal_replay replay;
  replay.attempts.assign(shard_count, 0);
  replay.completed.assign(shard_count, false);
  std::ifstream is(path, std::ios::binary);
  if (!is) return replay;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t crc_at = line.rfind(" crc ");
    if (crc_at == std::string::npos) continue;  // damaged: drop, resync
    const auto stored = parse_hex(line.substr(crc_at + 5));
    const std::string body = line.substr(0, crc_at);
    if (!stored || *stored != support::crc32(body)) continue;
    std::istringstream ls(body);
    std::string tag;
    ls >> tag;
    if (!replay.valid) {
      // The first intact record must be a matching header; anything else
      // means a foreign or pre-header-damaged journal — start fresh.
      std::string version, kw, key_hex;
      if (tag != "coord" || !(ls >> version >> kw >> key_hex) ||
          "coord " + version != kJournalMagic || kw != "key") {
        return replay;
      }
      const auto found = parse_hex(key_hex);
      if (!found || *found != key) return replay;
      replay.valid = true;
      continue;
    }
    if (tag == "spawn") {
      std::size_t shard = 0, attempt = 0;
      if ((ls >> shard >> attempt) && shard < shard_count) {
        replay.attempts[shard] = std::max(replay.attempts[shard], attempt);
      }
    } else if (tag == "complete") {
      std::size_t shard = 0;
      if ((ls >> shard) && shard < shard_count) {
        replay.completed[shard] = true;
      }
    }
    // fail/publish/done need no replay: retries restart each life, and
    // publishing is idempotent (content-addressed puts).
  }
  return replay;
}

}  // namespace

component_handle sweep_spec::make_component() const {
  return component_registry::instance().make(component, options);
}

std::uint64_t sweep_spec::store_key() const {
  const component_handle handle = make_component();
  if (!handle) return 0;
  // The component fingerprint already covers every result-affecting option
  // (incl. the distribution masses bit-for-bit); fold in the plan the same
  // FNV-1a way so distinct target sets get distinct store identities.
  std::uint64_t h = handle.fingerprint();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(plan.runs_per_target);
  mix(plan.targets.size());
  for (const double target : plan.targets) {
    mix(std::bit_cast<std::uint64_t>(target));
  }
  return h;
}

void sweep_spec::write(std::ostream& os) const {
  os << kSpecMagic << "\n";
  os << "component " << component << "\n";
  os << "width " << options.width << "\n";
  os << "signed " << (options.is_signed ? 1 : 0) << "\n";
  os << "iterations " << options.iterations << "\n";
  os << "extra-columns " << options.extra_columns << "\n";
  os << "max-mutations " << options.max_mutations << "\n";
  os << "lambda " << options.lambda << "\n";
  os << "threads " << options.threads << "\n";
  os << "error-tiebreak " << (options.error_tiebreak ? 1 : 0) << "\n";
  os << "incremental " << (options.incremental ? 1 : 0) << "\n";
  os << "rng-seed " << options.rng_seed << "\n";
  os << "distribution " << options.distribution.size();
  for (const double mass : options.distribution.masses()) {
    os << ' ' << format_double(mass);
  }
  os << "\n";
  os << "runs-per-target " << plan.runs_per_target << "\n";
  os << "targets " << plan.targets.size();
  for (const double target : plan.targets) {
    os << ' ' << format_double(target);
  }
  os << "\n";
  os << "seed-netlist\n";
  circuit::write_netlist(os, seed);
  os << "end\n";
}

bool sweep_spec::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write(os);
  os.flush();
  return os.good();
}

std::optional<sweep_spec> sweep_spec::read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kSpecMagic) {
    return spec_error("bad magic line");
  }

  sweep_spec spec;
  const auto read_field = [&is, &line](const char* key, auto& value) {
    if (!std::getline(is, line)) return false;
    std::istringstream ls(line);
    std::string k;
    return static_cast<bool>(ls >> k >> value) && k == key;
  };

  int flag = 0;
  if (!read_field("component", spec.component)) {
    return spec_error("missing component line");
  }
  if (!read_field("width", spec.options.width)) {
    return spec_error("missing width line");
  }
  if (!read_field("signed", flag)) return spec_error("missing signed line");
  spec.options.is_signed = flag != 0;
  if (!read_field("iterations", spec.options.iterations)) {
    return spec_error("missing iterations line");
  }
  if (!read_field("extra-columns", spec.options.extra_columns)) {
    return spec_error("missing extra-columns line");
  }
  if (!read_field("max-mutations", spec.options.max_mutations)) {
    return spec_error("missing max-mutations line");
  }
  if (!read_field("lambda", spec.options.lambda)) {
    return spec_error("missing lambda line");
  }
  if (!read_field("threads", spec.options.threads)) {
    return spec_error("missing threads line");
  }
  if (!read_field("error-tiebreak", flag)) {
    return spec_error("missing error-tiebreak line");
  }
  spec.options.error_tiebreak = flag != 0;
  if (!read_field("incremental", flag)) {
    return spec_error("missing incremental line");
  }
  spec.options.incremental = flag != 0;
  if (!read_field("rng-seed", spec.options.rng_seed)) {
    return spec_error("missing rng-seed line");
  }

  {
    if (!std::getline(is, line)) return spec_error("missing distribution");
    std::istringstream ls(line);
    std::string k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != "distribution" || count > (1u << 24)) {
      return spec_error("bad distribution line");
    }
    std::vector<double> masses(count);
    for (double& mass : masses) {
      if (!(ls >> mass)) return spec_error("truncated distribution line");
    }
    // from_masses, not from_weights: the renormalizing division is not
    // bit-stable across a text round trip, and the distribution feeds the
    // component fingerprint — a worker must rebuild the coordinator's pmf
    // exactly or its checkpoints would be rejected at merge time.
    if (count > 0) spec.options.distribution = dist::pmf::from_masses(masses);
  }
  if (!read_field("runs-per-target", spec.plan.runs_per_target)) {
    return spec_error("missing runs-per-target line");
  }
  {
    if (!std::getline(is, line)) return spec_error("missing targets line");
    std::istringstream ls(line);
    std::string k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != "targets" || count > (1u << 24)) {
      return spec_error("bad targets line");
    }
    spec.plan.targets.resize(count);
    for (double& target : spec.plan.targets) {
      if (!(ls >> target)) return spec_error("truncated targets line");
    }
  }
  spec.options.runs_per_target = spec.plan.runs_per_target;

  if (!std::getline(is, line) || line != "seed-netlist") {
    return spec_error("missing seed-netlist section");
  }
  std::optional<circuit::netlist> seed = circuit::read_netlist(is);
  if (!seed) return spec_error("malformed seed netlist");
  spec.seed = *std::move(seed);
  if (!std::getline(is, line) || line != "end") {
    return spec_error("missing end marker");
  }
  return spec;
}

std::optional<sweep_spec> sweep_spec::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return spec_error("cannot open spec file");
  return read(is);
}

std::vector<plan_shard> split_plan(const sweep_plan& plan,
                                   std::size_t shards) {
  std::vector<plan_shard> parts;
  if (plan.targets.empty()) return parts;
  const std::size_t n =
      std::clamp<std::size_t>(shards, 1, plan.targets.size());
  const std::size_t runs = plan.runs_per_target;
  parts.resize(n);
  for (plan_shard& part : parts) part.plan.runs_per_target = runs;
  // Target t goes to shard t % n; its runs keep their target-major global
  // ids, appended in the order the shard's session expands its own plan.
  for (std::size_t t = 0; t < plan.targets.size(); ++t) {
    plan_shard& part = parts[t % n];
    part.plan.targets.push_back(plan.targets[t]);
    for (std::size_t r = 0; r < runs; ++r) part.job_ids.push_back(t * runs + r);
  }
  return parts;
}

bool same_plan(const sweep_plan& a, const sweep_plan& b) {
  return a.runs_per_target == b.runs_per_target &&
         std::ranges::equal(a.targets, b.targets, [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

namespace {

void emit(const shard_runner_config& config, const shard_state& s,
          shard_event_kind kind, int exit_code = 0, std::size_t jobs = 0,
          const std::string& node = {}) {
  if (!config.on_event) return;
  shard_event event;
  event.kind = kind;
  event.shard = s.outcome.shard;
  event.attempt = s.attempt;
  event.jobs_done = jobs;
  event.jobs_total = s.part.plan.job_count();
  event.exit_code = exit_code;
  event.node = node;
  config.on_event(event);
}

std::string basename_of(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

std::optional<std::string> read_file_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Salvages a shard checkpoint, rejecting one written for another target
/// set (a work_dir last run at a different shard count): its local job ids
/// mean other global jobs, so merging it would misfile its designs.
std::optional<search_session> resume_shard(const std::string& path,
                                           const component_handle& component,
                                           const sweep_plan& plan,
                                           resume_report* report = nullptr) {
  auto session = search_session::resume_file(path, component, {}, report);
  if (session && !same_plan(session->plan(), plan)) return std::nullopt;
  return session;
}

/// A checkpoint is a valid *win* for a shard only when it holds the shard's
/// plan, the v2 salvage path accepts every section and every job of the
/// plan is recovered — the same gate merge_shards applies, run early so a
/// torn fetch or truncated file turns into a retry instead of a partial
/// merge.
bool checkpoint_complete(const std::string& path,
                         const component_handle& component,
                         const sweep_plan& plan) {
  resume_report report;
  return resume_shard(path, component, plan, &report) &&
         report.jobs_dropped == 0 && report.jobs_recovered == plan.job_count();
}

std::string reason_exit(int code) { return "exit" + std::to_string(code); }

/// Starts one worker launch for `s` on `node_idx` (a lease the caller
/// already acquired).  Returns false when the launch could not start —
/// push failure, injected node-launch-fail, spawn failure — with nothing
/// running; the caller settles the lease.
bool start_launch(const shard_runner_config& config, node_pool& pool,
                  shard_state& s, std::size_t node_idx, bool speculative,
                  coord_journal& journal) {
  const node_config& node = pool.config(node_idx);
  shard_launch l;
  l.node = node_idx;
  l.speculative = speculative;
  l.checkpoint_path =
      speculative ? s.checkpoint_path + ".dup" : s.checkpoint_path;
  if (speculative) {
    // The duplicate starts from scratch on its own path (determinism makes
    // the re-execution free); a stale dup from an earlier life would fake
    // heartbeats.
    std::error_code ec;
    std::filesystem::remove(l.checkpoint_path, ec);
  }
  if (node.shares_filesystem()) {
    l.remote_spec = s.spec_path;
    l.remote_checkpoint = l.checkpoint_path;
  } else {
    l.remote_spec = node.workdir + "/" + basename_of(s.spec_path);
    l.remote_checkpoint = node.workdir + "/" + basename_of(l.checkpoint_path);
  }

  if (auto victim = fault::fire(fault::points::node_launch_fail);
      victim && *victim == node_idx) {
    (void)journal.append("release " + std::to_string(s.outcome.shard) + " " +
                         node.name + " launch");
    return false;
  }

  const support::worker_launcher launcher = node.launcher();
  if (!node.shares_filesystem()) {
    if (!launcher.push_file(s.spec_path, l.remote_spec)) {
      (void)journal.append("release " + std::to_string(s.outcome.shard) +
                           " " + node.name + " launch");
      return false;
    }
    // Reassignment rides the checkpoint contract: push the shard's current
    // primary checkpoint so the new node *resumes* the dead node's
    // progress instead of recomputing it.
    std::error_code ec;
    if (!speculative && std::filesystem::exists(s.checkpoint_path, ec)) {
      if (!launcher.push_file(s.checkpoint_path, l.remote_checkpoint)) {
        (void)journal.append("release " + std::to_string(s.outcome.shard) +
                             " " + node.name + " launch");
        return false;
      }
    }
  }

  std::vector<std::string> argv = {
      node.worker.empty() ? config.worker_binary : node.worker, "--spec",
      l.remote_spec, "--checkpoint", l.remote_checkpoint};
  if (config.worker_autosave_generations > 0) {
    argv.push_back("--autosave-generations");
    argv.push_back(std::to_string(config.worker_autosave_generations));
  }
  std::vector<std::string> env = config.worker_env;
  if (!speculative && s.attempt == 1 &&
      s.outcome.shard < config.shard_env.size()) {
    const auto& extra = config.shard_env[s.outcome.shard];
    env.insert(env.end(), extra.begin(), extra.end());
  }
  l.proc = launcher.launch(argv, env);
  l.started = clock::now();
  l.last_growth = l.started;
  l.last_fetch = l.started;
  if (!l.proc) {
    (void)journal.append("release " + std::to_string(s.outcome.shard) + " " +
                         node.name + " launch");
    return false;
  }
  (void)journal.append(
      "lease " + std::to_string(s.outcome.shard) + " " + node.name + " " +
      (speculative ? std::string("spec") : std::to_string(s.attempt)));
  if (!speculative) {
    (void)journal.append("spawn " + std::to_string(s.outcome.shard) + " " +
                         std::to_string(s.attempt));
  }
  emit(config, s,
       speculative ? shard_event_kind::speculated : shard_event_kind::spawned,
       0, l.last_jobs, node.name);
  s.launches.push_back(std::move(l));
  return true;
}

/// Brings a successful launch's checkpoint to the coordinator and CRC-
/// validates it.  Shared filesystem: validate in place.  Remote: fetch to
/// a scratch path, inject node-fetch-torn, validate, and only then durably
/// land the bytes on the launch's local path.  Retries torn/failed fetches
/// (the window a flaky transport gets before the lease is judged failed).
bool retrieve_valid_checkpoint(const shard_runner_config& config,
                               const node_config& node, shard_state& s,
                               shard_launch& l,
                               const component_handle& component,
                               coord_journal& journal) {
  const sweep_plan& expected = s.part.plan;
  const std::string shard_str = std::to_string(s.outcome.shard);
  if (node.shares_filesystem()) {
    if (checkpoint_complete(l.checkpoint_path, component, expected)) {
      return true;
    }
    (void)journal.append("fetch " + shard_str + " " + node.name + " torn");
    emit(config, s, shard_event_kind::fetch_torn, 0, l.last_jobs, node.name);
    return false;
  }
  const support::worker_launcher launcher = node.launcher();
  const std::string scratch = l.checkpoint_path + ".fetch";
  std::error_code ec;
  for (std::size_t i = 0; i <= config.fetch_retries; ++i) {
    if (!launcher.fetch_file(l.remote_checkpoint, scratch)) {
      (void)journal.append("fetch " + shard_str + " " + node.name + " fail");
      continue;
    }
    if (auto cut = fault::fire(fault::points::node_fetch_torn)) {
      const auto size = std::filesystem::file_size(scratch, ec);
      if (!ec && *cut < size) std::filesystem::resize_file(scratch, *cut, ec);
    }
    if (checkpoint_complete(scratch, component, expected)) {
      const auto bytes = read_file_text(scratch);
      if (bytes && support::write_file_durable(l.checkpoint_path, *bytes)) {
        std::filesystem::remove(scratch, ec);
        (void)journal.append("fetch " + shard_str + " " + node.name + " ok");
        return true;
      }
    }
    (void)journal.append("fetch " + shard_str + " " + node.name + " torn");
    emit(config, s, shard_event_kind::fetch_torn, 0, l.last_jobs, node.name);
  }
  std::filesystem::remove(scratch, ec);
  return false;
}

/// Best-effort partial salvage from a remote node after an unsuccessful
/// exit: pull whatever checkpoint the node autosaved and adopt it as the
/// shard's primary when it knows *more* jobs — so a retry on another node
/// resumes the dead lease's progress and a failed shard still merges it.
void salvage_remote_partial(const node_config& node, shard_state& s,
                            shard_launch& l) {
  if (node.shares_filesystem()) return;
  const support::worker_launcher launcher = node.launcher();
  const std::string scratch = l.checkpoint_path + ".salvage";
  std::error_code ec;
  if (launcher.fetch_file(l.remote_checkpoint, scratch)) {
    if (count_checkpoint_jobs(scratch) >
        count_checkpoint_jobs(s.checkpoint_path)) {
      if (const auto bytes = read_file_text(scratch)) {
        (void)support::write_file_durable(s.checkpoint_path, *bytes);
      }
    }
  }
  std::filesystem::remove(scratch, ec);
}

sweep_result merge_shards(const sweep_spec& spec,
                          std::vector<shard_state>& states) {
  sweep_result result;
  result.by_job.assign(spec.plan.job_count(), std::nullopt);
  const component_handle component = spec.make_component();
  pareto_archive archive;
  for (shard_state& s : states) {
    // The mid-merge kill window: workers are done, their checkpoints are
    // durable, but the merged front was never assembled.  _Exit models
    // SIGKILL; a re-run respawns nothing (journal says complete), merges
    // the same checkpoints and lands the identical front.
    if (fault::fire(kFaultCrashMidMerge)) std::_Exit(kCoordCrashExit);
    s.outcome.jobs_total = s.part.plan.job_count();
    resume_report report;
    auto session =
        resume_shard(s.checkpoint_path, component, s.part.plan, &report);
    if (session) {
      s.outcome.jobs_recovered = report.jobs_recovered;
      s.outcome.jobs_dropped = report.jobs_dropped;
      for (std::size_t local = 0; local < session->total_jobs(); ++local) {
        if (auto design = session->design(local)) {
          const std::size_t global = s.part.job_ids[local];
          archive.insert(pareto_point{design->wmed, design->area_um2, global});
          result.by_job[global] = *std::move(design);
        }
      }
    }
    result.shards.push_back(s.outcome);
  }
  result.front = archive.points();
  result.complete = true;
  for (auto& design : result.by_job) {
    if (design) {
      result.designs.push_back(*design);
    } else {
      result.complete = false;
    }
  }
  return result;
}

}  // namespace

sweep_result run_sweep(const sweep_spec& spec,
                       const shard_runner_config& config) {
  std::vector<shard_state> states;
  if (config.worker_binary.empty() || config.work_dir.empty()) {
    std::fprintf(stderr,
                 "axc: run_sweep: worker_binary and work_dir are required\n");
    sweep_result empty;
    empty.by_job.assign(spec.plan.job_count(), std::nullopt);
    return empty;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  const std::uint64_t sweep_key = spec.store_key();
  const std::vector<plan_shard> parts = split_plan(spec.plan, config.shards);
  const std::string journal_path = config.work_dir + "/coordinator.journal";
  const journal_replay replay =
      load_journal(journal_path, sweep_key, parts.size());
  coord_journal journal{journal_path};
  if (!replay.valid) {
    // Fresh (or foreign/damaged) journal: durably replace it with just the
    // header — records then append behind it.
    if (!support::write_file_durable(
            journal_path,
            journal_line(std::string(kJournalMagic) + " key " +
                         hex16(sweep_key)))) {
      std::fprintf(stderr, "axc: run_sweep: cannot write %s\n",
                   journal_path.c_str());
    }
  }

  const component_handle component = spec.make_component();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    shard_state s;
    s.part = parts[i];
    s.outcome.shard = i;
    const std::string stem =
        config.work_dir + "/shard-" + std::to_string(i);
    s.spec_path = stem + ".spec";
    s.checkpoint_path = stem + ".axc";
    sweep_spec shard_spec;
    shard_spec.component = spec.component;
    shard_spec.options = spec.options;
    shard_spec.options.runs_per_target = s.part.plan.runs_per_target;
    shard_spec.plan = s.part.plan;
    shard_spec.seed = spec.seed;
    s.store_key = shard_spec.store_key();
    if (!shard_spec.write_file(s.spec_path)) {
      std::fprintf(stderr, "axc: run_sweep: cannot write %s\n",
                   s.spec_path.c_str());
      s.failed = true;
    }
    // Journal replay: a shard some earlier coordinator life saw finish is
    // not respawned — its checkpoint merges directly — and attempt
    // numbering continues where that life stopped (spawn_attempt
    // pre-increments, so first-attempt-only shard_env never re-applies).
    s.attempt = replay.attempts[i];
    s.outcome.attempts = s.attempt;
    // A checkpoint left by a run of this work_dir at another shard count
    // holds another target set: remove it, so the shard is respawned and
    // its worker starts fresh instead of resuming the wrong jobs.
    if (std::filesystem::exists(s.checkpoint_path, ec)) {
      const auto old =
          search_session::resume_file(s.checkpoint_path, component, {});
      if (old && !same_plan(old->plan(), s.part.plan)) {
        std::filesystem::remove(s.checkpoint_path, ec);
      }
    }
    if (replay.completed[i] &&
        std::filesystem::exists(s.checkpoint_path, ec)) {
      s.done = true;
      s.winner_seen = true;
      s.outcome.completed = true;
      emit(config, s, shard_event_kind::completed, 0,
           count_checkpoint_jobs(s.checkpoint_path));
    }
    states.push_back(std::move(s));
  }

  const std::size_t max_attempts = std::max<std::size_t>(config.max_attempts, 1);
  shard_runner_config cfg = config;
  cfg.max_attempts = max_attempts;

  // The node fleet.  No nodes configured = one implicit local node with a
  // slot per shard (plus one for a speculative duplicate) — the single-box
  // behavior of the pre-multi-node runtime, launch for launch.
  const bool implicit_local = cfg.nodes.empty();
  std::vector<node_config> fleet = cfg.nodes;
  if (implicit_local) {
    node_config local;
    local.name = "local";
    local.slots = parts.size() + 1;
    fleet.push_back(std::move(local));
  }
  node_pool pool(fleet, cfg.nodes_policy);

  const auto backoff_delay = [&cfg](std::size_t attempt) {
    double scale = 1.0;
    for (std::size_t a = 1; a < attempt; ++a) scale *= cfg.backoff_factor;
    return std::chrono::milliseconds(
        static_cast<std::int64_t>(cfg.backoff.count() * scale));
  };

  bool drained = false;
  while (true) {
    if (cfg.should_stop && cfg.should_stop()) {
      // Graceful drain: take the live workers down hard (their autosaved
      // checkpoints are the durable state; a SIGKILL here is exactly the
      // crash the resume path already survives) and fall through to the
      // partial merge.  Re-running the same spec + work_dir later resumes.
      drained = true;
      for (shard_state& s : states) {
        for (shard_launch& l : s.launches) {
          if (!l.proc) continue;
          l.proc->kill_hard();
          l.proc.reset();  // blocks until the worker is reaped
          pool.release(l.node);
          (void)journal.append("release " + std::to_string(s.outcome.shard) +
                               " " + pool.config(l.node).name + " drain");
          emit(cfg, s, shard_event_kind::drained, 0, l.last_jobs,
               pool.config(l.node).name);
        }
        s.launches.clear();
      }
      break;
    }
    const auto now = clock::now();

    // Injected node death (fault::points::node_dead_midrun, payload = node
    // index): every launch on the victim dies and the node is quarantined
    // at once — the deterministic stand-in for a host losing power.
    if (fault::active()) {
      if (const auto victim = fault::fire(fault::points::node_dead_midrun);
          victim && *victim < pool.size()) {
        pool.mark_dead(*victim, now);
        for (shard_state& s : states) {
          for (shard_launch& l : s.launches) {
            if (l.node == *victim && l.proc) {
              l.proc->kill_hard();
              l.node_died = true;
            }
          }
        }
      }
    }

    bool pending = false;
    for (shard_state& s : states) {
      if (s.done || s.failed) continue;

      // Reap finished launches; supervise the rest.
      for (std::size_t li = 0; li < s.launches.size();) {
        shard_launch& l = s.launches[li];
        const node_config& node = pool.config(l.node);
        const auto status = l.proc->poll();
        if (!status) {
          // Heartbeat: checkpoint growth is the worker's progress signal.
          // Shared filesystem reads the file directly; remote launches
          // pull a copy every fetch_interval.  node-heartbeat-stall
          // suppresses the observation, making a healthy worker look
          // stalled — the supervision must then kill and retry it.
          std::size_t jobs = l.last_jobs;
          bool observed = false;
          if (node.shares_filesystem()) {
            if (!fault::fire(fault::points::node_heartbeat_stall)) {
              jobs = count_checkpoint_jobs(l.checkpoint_path);
              observed = true;
            }
          } else if (now - l.last_fetch >= cfg.fetch_interval) {
            l.last_fetch = now;
            if (!fault::fire(fault::points::node_heartbeat_stall)) {
              const std::string hb = l.checkpoint_path + ".hb";
              if (node.launcher().fetch_file(l.remote_checkpoint, hb)) {
                jobs = count_checkpoint_jobs(hb);
                observed = true;
              }
              std::error_code hb_ec;
              std::filesystem::remove(hb, hb_ec);
            }
          }
          if (observed && jobs > l.last_jobs) {
            l.last_jobs = jobs;
            l.last_growth = now;
            emit(cfg, s, shard_event_kind::heartbeat, 0, jobs, node.name);
          }
          if (!l.deadline_killed && cfg.attempt_timeout.count() > 0 &&
              now - l.started > cfg.attempt_timeout) {
            l.deadline_killed = true;
            emit(cfg, s, shard_event_kind::timed_out, 0, l.last_jobs,
                 node.name);
            l.proc->kill_hard();
          } else if (!l.deadline_killed && cfg.stall_timeout.count() > 0 &&
                     now - l.last_growth > cfg.stall_timeout) {
            l.deadline_killed = true;
            emit(cfg, s, shard_event_kind::stalled, 0, l.last_jobs,
                 node.name);
            l.proc->kill_hard();
          }
          ++li;
          continue;
        }

        // The launch finished.  A clean exit only *wins* the shard once
        // its checkpoint is fetched and CRC-valid; anything else is a
        // failed lease.
        l.proc.reset();
        if (l.deadline_killed) s.outcome.timed_out = true;
        const bool was_speculative = l.speculative;
        if (status->success() &&
            retrieve_valid_checkpoint(cfg, node, s, l, component, journal)) {
          pool.release_success(l.node);
          if (!s.winner_seen) {
            s.winner_seen = true;
            s.outcome.completed = true;
            s.outcome.last_exit_code = 0;
            s.outcome.node = node.name;
            s.outcome.speculative_win = l.speculative;
            // Stop the losers BEFORE touching the primary path — a loser
            // on a shared filesystem is still writing it.
            if (!cfg.speculation_keep_losers) {
              for (std::size_t lj = 0; lj < s.launches.size(); ++lj) {
                if (lj == li) continue;
                shard_launch& other = s.launches[lj];
                if (other.proc) {
                  other.proc->kill_hard();
                  other.proc.reset();
                }
                pool.release(other.node);
                (void)journal.append(
                    "release " + std::to_string(s.outcome.shard) + " " +
                    pool.config(other.node).name + " superseded");
              }
              shard_launch winner = std::move(s.launches[li]);
              s.launches.clear();
              s.launches.push_back(std::move(winner));
              li = 0;
            }
            // Land the winning bytes on the primary path (merge identity).
            // A keep_losers primary completing later rewrites it with the
            // same bytes — determinism makes the overlap benign.
            shard_launch& w = s.launches[li];
            if (w.checkpoint_path != s.checkpoint_path) {
              if (const auto bytes = read_file_text(w.checkpoint_path)) {
                (void)support::write_file_durable(s.checkpoint_path, *bytes);
              }
            }
            (void)journal.append("complete " +
                                 std::to_string(s.outcome.shard));
            emit(cfg, s, shard_event_kind::completed, 0, w.last_jobs,
                 node.name);
          }
          // A keep_losers loser just leaves its checkpoint on disk for
          // inspection (the byte-equality assertion reads it).
          s.launches.erase(s.launches.begin() + li);
          continue;
        }

        // Failed lease: judge the node, salvage partial progress, and let
        // the reconcile step below decide retry vs. exhaustion.
        if (l.node_died) {
          pool.release(l.node);  // already judged by mark_dead
        } else {
          pool.release_failure(l.node, now);
        }
        s.outcome.last_exit_code = status->code;
        const std::string reason = l.node_died ? std::string("dead")
                                   : status->success()
                                       ? std::string("torn")
                                       : reason_exit(status->code);
        (void)journal.append("release " + std::to_string(s.outcome.shard) +
                             " " + node.name + " " + reason);
        emit(cfg, s, shard_event_kind::exited, status->code, l.last_jobs,
             node.name);
        if (!was_speculative) salvage_remote_partial(node, s, l);
        s.avoid_nodes.assign(1, l.node);
        s.launches.erase(s.launches.begin() + li);
        if (!was_speculative && !s.winner_seen) {
          if (s.attempt >= cfg.max_attempts) {
            if (s.launches.empty()) {
              s.failed = true;
              (void)journal.append("fail " +
                                   std::to_string(s.outcome.shard) + " " +
                                   std::to_string(status->code));
              emit(cfg, s, shard_event_kind::failed, status->code);
            } else {
              // A speculative duplicate still carries the shard; only its
              // death finishes the verdict (reconcile below).
              s.exhausted = true;
            }
          } else {
            s.next_spawn = now + backoff_delay(s.attempt);
            emit(cfg, s, shard_event_kind::retrying, status->code);
          }
        }
      }

      // Speculation: the shard's single primary launch has been running
      // past speculate_after — duplicate it on another node (once).  The
      // first CRC-valid completed checkpoint wins; bit-identity makes the
      // race harmless.
      if (cfg.speculate_after.count() > 0 && !s.speculated &&
          !s.winner_seen && s.launches.size() == 1 &&
          !s.launches[0].speculative &&
          now - s.launches[0].started > cfg.speculate_after) {
        const std::vector<std::size_t> avoid{s.launches[0].node};
        if (const auto n = pool.acquire(now, avoid)) {
          s.speculated = true;
          if (!start_launch(cfg, pool, s, *n, true, journal)) {
            pool.release_failure(*n, now);
          }
        }
      }

      // Reconcile: finalize a won shard, respawn a dead one, or declare
      // it failed once attempts are exhausted with nothing running.
      if (!s.done && !s.failed && s.launches.empty()) {
        if (s.winner_seen) {
          s.done = true;
        } else if (s.exhausted) {
          s.failed = true;
          (void)journal.append("fail " + std::to_string(s.outcome.shard) +
                               " " +
                               std::to_string(s.outcome.last_exit_code));
          emit(cfg, s, shard_event_kind::failed, s.outcome.last_exit_code);
        } else if (now >= s.next_spawn) {
          if (const auto n = pool.acquire(now, s.avoid_nodes)) {
            ++s.attempt;
            s.outcome.attempts = s.attempt;
            if (start_launch(cfg, pool, s, *n, false, journal)) {
              // The after-spawn kill window: the journal says this attempt
              // exists, nothing has finished.  Take the workers down with
              // the coordinator (a real SIGKILL of the process group does
              // the same) so the re-run supervises from checkpoints alone.
              if (fault::fire(kFaultCrashAfterSpawn)) {
                for (shard_state& victim : states) {
                  for (shard_launch& vl : victim.launches) {
                    if (vl.proc) vl.proc->kill_hard();
                  }
                }
                std::_Exit(kCoordCrashExit);
              }
            } else {
              pool.release_failure(*n, now);
              s.avoid_nodes.assign(1, *n);
              if (s.attempt >= cfg.max_attempts) {
                s.failed = true;
                s.outcome.last_exit_code = 127;
                (void)journal.append(
                    "fail " + std::to_string(s.outcome.shard) + " 127");
                emit(cfg, s, shard_event_kind::failed, 127);
              } else {
                s.next_spawn = now + backoff_delay(s.attempt);
                emit(cfg, s, shard_event_kind::retrying, 127);
              }
            }
          }
          // No eligible node right now: hold the shard until quarantine /
          // backoff clocks release one.
        }
      }

      if (!s.done && !s.failed) pending = true;
    }
    if (!pending) break;
    std::this_thread::sleep_for(cfg.poll_interval);
  }

  sweep_result result = merge_shards(spec, states);
  result.drained = drained;
  if (!implicit_local) result.nodes = pool.report();

  if (!cfg.store_dir.empty()) {
    // Publish into the result store.  Content-addressed puts make this
    // idempotent, so every coordinator life re-publishes unconditionally
    // and the store converges on the uninterrupted run's exact contents.
    auto store = result_store::open(cfg.store_dir);
    if (!store) {
      std::fprintf(stderr, "axc: run_sweep: cannot open store %s\n",
                   cfg.store_dir.c_str());
      return result;
    }
    for (const shard_state& s : states) {
      if (!s.outcome.completed) continue;
      std::ifstream is(s.checkpoint_path, std::ios::binary);
      if (!is) continue;
      std::ostringstream buffer;
      buffer << is.rdbuf();
      const std::string key = result_store::format_key(s.store_key);
      if (const auto hash = store->put("session", key, buffer.str())) {
        (void)journal.append("publish session " + key + " " + hex16(*hash));
      } else {
        std::fprintf(stderr, "axc: run_sweep: session publish failed (%s)\n",
                     key.c_str());
      }
    }
    if (result.complete) {
      // Alongside the front, publish the component's compiled behavioural
      // table (kind "table", keyed by the bare component fingerprint — the
      // plan can't change a truth table) so the server can hand out
      // characterization artifacts without re-simulating.  ~2^2w lookups'
      // worth of work, negligible next to the sweep that just finished.
      if (const component_handle component = spec.make_component()) {
        const std::string tkey =
            result_store::format_key(component.fingerprint());
        const std::string table = serialize_table(
            component.width(), component.characterize(spec.seed));
        if (const auto hash = store->put("table", tkey, table)) {
          (void)journal.append("publish table " + tkey + " " + hex16(*hash));
        } else {
          std::fprintf(stderr, "axc: run_sweep: table publish failed (%s)\n",
                       tkey.c_str());
        }
      }
      const std::string key = result_store::format_key(sweep_key);
      if (const auto hash =
              store->put("front", key, serialize_front(result.front))) {
        (void)journal.append("publish front " + key + " " + hex16(*hash));
        (void)journal.append("done");
      } else {
        std::fprintf(stderr, "axc: run_sweep: front publish failed (%s)\n",
                     key.c_str());
      }
    }
  }

  return result;
}

sweep_result run_sweep_inprocess(const sweep_spec& spec,
                                 session_config options) {
  sweep_result result;
  result.by_job.assign(spec.plan.job_count(), std::nullopt);
  const component_handle component = spec.make_component();
  if (!component) {
    std::fprintf(stderr, "axc: run_sweep_inprocess: unknown component '%s'\n",
                 spec.component.c_str());
    return result;
  }
  search_session session(component, spec.seed, spec.plan,
                         std::move(options));
  session.run();
  result.complete = session.finished();
  result.designs = session.designs();
  result.front = session.front();
  for (std::size_t id = 0; id < session.total_jobs(); ++id) {
    result.by_job[id] = session.design(id);
  }
  return result;
}

}  // namespace axc::core
