// Sharded sweep runtime tests: plan splitting, spec serialization, and the
// PR's acceptance property — a sweep interrupted by injected worker
// crashes, a truncated autosave and enforced deadlines, then retried and
// merged, reproduces the uninterrupted session's designs and Pareto front
// bit-exactly, for both component classes and at any job_threads setting.
//
// Process-level cases launch the real tools/axc_worker binary; ctest
// points AXC_WORKER_BIN at it (see CMakeLists), and the cases skip when
// the variable is unset (e.g. running the test binary by hand).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/result_store.h"
#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/subprocess.h"

namespace axc::core {
namespace {

sweep_spec mult_spec_small() {
  sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 4;
  spec.options.distribution = dist::pmf::half_normal(16, 4.0);
  spec.options.iterations = 150;
  spec.options.extra_columns = 16;
  spec.options.rng_seed = 13;
  spec.plan.targets = {0.002, 0.02};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::unsigned_multiplier(4);
  return spec;
}

sweep_spec adder_spec_small() {
  sweep_spec spec;
  spec.component = "adder";
  spec.options.width = 6;
  spec.options.distribution = dist::pmf::half_normal(64, 16.0);
  spec.options.iterations = 120;
  spec.options.extra_columns = 12;
  spec.options.rng_seed = 7;
  spec.plan.targets = {0.001, 0.01};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::ripple_adder(6);
  return spec;
}

const char* worker_binary() { return std::getenv("AXC_WORKER_BIN"); }

std::string fresh_work_dir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("axc-shard-test-") + name + "-" +
        std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

void expect_same_result(const sweep_result& a, const sweep_result& b) {
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].netlist, b.designs[i].netlist) << "design " << i;
    EXPECT_EQ(a.designs[i].wmed, b.designs[i].wmed) << "design " << i;
    EXPECT_EQ(a.designs[i].area_um2, b.designs[i].area_um2) << "design " << i;
    EXPECT_EQ(a.designs[i].target, b.designs[i].target) << "design " << i;
    EXPECT_EQ(a.designs[i].run_index, b.designs[i].run_index)
        << "design " << i;
    EXPECT_EQ(a.designs[i].evaluations, b.designs[i].evaluations)
        << "design " << i;
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
}

TEST(split_plan, interleaves_targets_with_exact_job_ids) {
  sweep_plan plan;
  plan.targets = {0.1, 0.2, 0.3, 0.4, 0.5};
  plan.runs_per_target = 3;
  const auto parts = split_plan(plan, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].plan.targets, (std::vector<double>{0.1, 0.3, 0.5}));
  EXPECT_EQ(parts[0].job_ids,
            (std::vector<std::size_t>{0, 1, 2, 6, 7, 8, 12, 13, 14}));
  EXPECT_EQ(parts[1].plan.targets, (std::vector<double>{0.2, 0.4}));
  EXPECT_EQ(parts[1].job_ids, (std::vector<std::size_t>{3, 4, 5, 9, 10, 11}));
  EXPECT_EQ(parts[0].plan.runs_per_target, 3u);
  EXPECT_EQ(parts[1].plan.runs_per_target, 3u);
}

TEST(split_plan, clamps_shards_to_target_count) {
  sweep_plan plan;
  plan.targets = {0.1, 0.2};
  plan.runs_per_target = 1;
  EXPECT_EQ(split_plan(plan, 8).size(), 2u);
  EXPECT_EQ(split_plan(plan, 0).size(), 1u);
  EXPECT_TRUE(split_plan(sweep_plan{}, 4).empty());
}

TEST(split_plan, more_shards_than_jobs_gives_one_target_each) {
  // 3 targets x 1 run = 3 jobs, 8 requested shards: one shard per target,
  // never an empty shard.
  sweep_plan plan;
  plan.targets = {0.1, 0.2, 0.3};
  plan.runs_per_target = 1;
  const auto parts = split_plan(plan, 8);
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].plan.targets,
              (std::vector<double>{plan.targets[i]}));
    EXPECT_EQ(parts[i].plan.job_count(), 1u);
    EXPECT_EQ(parts[i].job_ids, (std::vector<std::size_t>{i}));
  }
}

TEST(split_plan, empty_plan_yields_no_shards) {
  EXPECT_TRUE(split_plan(sweep_plan{}, 1).empty());
  EXPECT_TRUE(split_plan(sweep_plan{}, 0).empty());
  // Targets without repetitions is still an empty plan job-wise, but the
  // target split itself is well-defined (shards of zero jobs each).
  sweep_plan zero_runs;
  zero_runs.targets = {0.1, 0.2};
  zero_runs.runs_per_target = 0;
  const auto parts = split_plan(zero_runs, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].plan.job_count(), 0u);
  EXPECT_TRUE(parts[0].job_ids.empty());
  EXPECT_TRUE(parts[1].job_ids.empty());
}

TEST(split_plan, single_job_plan_is_one_full_shard) {
  sweep_plan plan;
  plan.targets = {0.25};
  plan.runs_per_target = 1;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{7}}) {
    const auto parts = split_plan(plan, shards);
    ASSERT_EQ(parts.size(), 1u) << shards;
    EXPECT_EQ(parts[0].plan.targets, plan.targets);
    EXPECT_EQ(parts[0].plan.job_count(), 1u);
    EXPECT_EQ(parts[0].job_ids, (std::vector<std::size_t>{0}));
  }
}

TEST(split_plan, interleaved_split_properties_hold_for_every_shape) {
  // Seeded property test over 0-20 targets, 0-3 runs and 0-8 shards:
  // job_ids partition [0, job_count), shard i of n holds targets[i],
  // targets[i+n], ... bit for bit, shard sizes differ by at most one
  // target, and every local job names the global job with its own target
  // and run index.
  std::mt19937_64 gen(20240611);
  std::uniform_real_distribution<double> target_dist(1e-6, 0.1);
  for (std::size_t count = 0; count <= 20; ++count) {
    sweep_plan plan;
    for (std::size_t t = 0; t < count; ++t) {
      plan.targets.push_back(target_dist(gen));
    }
    for (std::size_t runs = 0; runs <= 3; ++runs) {
      plan.runs_per_target = runs;
      const std::vector<sweep_job> global_jobs = plan.jobs();
      for (std::size_t shards = 0; shards <= 8; ++shards) {
        SCOPED_TRACE("targets " + std::to_string(count) + " runs " +
                     std::to_string(runs) + " shards " +
                     std::to_string(shards));
        const auto parts = split_plan(plan, shards);
        if (count == 0) {
          EXPECT_TRUE(parts.empty());
          continue;
        }
        const std::size_t n = std::clamp<std::size_t>(shards, 1, count);
        ASSERT_EQ(parts.size(), n);

        std::vector<int> seen(plan.job_count(), 0);
        std::size_t smallest = count;
        std::size_t largest = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const plan_shard& part = parts[i];
          EXPECT_EQ(part.plan.runs_per_target, runs);
          std::vector<double> expected;
          for (std::size_t t = i; t < count; t += n) {
            expected.push_back(plan.targets[t]);
          }
          EXPECT_TRUE(same_plan(part.plan, sweep_plan{expected, runs}));
          smallest = std::min(smallest, part.plan.targets.size());
          largest = std::max(largest, part.plan.targets.size());

          const std::vector<sweep_job> local_jobs = part.plan.jobs();
          ASSERT_EQ(part.job_ids.size(), local_jobs.size());
          for (std::size_t local = 0; local < local_jobs.size(); ++local) {
            const std::size_t id = part.job_ids[local];
            ASSERT_LT(id, seen.size());
            ++seen[id];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(global_jobs[id].target),
                      std::bit_cast<std::uint64_t>(local_jobs[local].target));
            EXPECT_EQ(global_jobs[id].run_index, local_jobs[local].run_index);
          }
        }
        EXPECT_LE(largest - smallest, 1u);
        for (std::size_t id = 0; id < seen.size(); ++id) {
          EXPECT_EQ(seen[id], 1) << "job " << id;
        }
      }
    }
  }
}

TEST(split_plan, same_plan_compares_target_bits_and_runs) {
  const sweep_plan base{{0.1, 0.2}, 2};
  EXPECT_TRUE(same_plan(base, sweep_plan{{0.1, 0.2}, 2}));
  EXPECT_FALSE(same_plan(base, sweep_plan{{0.1, 0.2}, 1}));
  EXPECT_FALSE(same_plan(base, sweep_plan{{0.2, 0.1}, 2}));
  EXPECT_FALSE(same_plan(base, sweep_plan{{0.1}, 2}));
  EXPECT_FALSE(same_plan(sweep_plan{{0.0}, 1}, sweep_plan{{-0.0}, 1}));
}

TEST(sweep_spec, round_trips_bit_exactly) {
  const sweep_spec original = mult_spec_small();
  std::ostringstream os;
  original.write(os);
  std::istringstream is(os.str());
  const auto restored = sweep_spec::read(is);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->component, original.component);
  EXPECT_EQ(restored->plan.targets, original.plan.targets);
  EXPECT_EQ(restored->plan.runs_per_target, original.plan.runs_per_target);
  EXPECT_EQ(restored->seed, original.seed);
  // The distribution must rebuild mass-for-mass (no renormalization
  // drift): the component fingerprint — and thus checkpoint
  // compatibility between coordinator and workers — depends on it.
  EXPECT_EQ(restored->options.distribution, original.options.distribution);
  EXPECT_EQ(restored->make_component().fingerprint(),
            original.make_component().fingerprint());
}

TEST(sweep_spec, second_generation_round_trip_is_stable) {
  // write(read(write(x))) == write(read(...)): the format is a fixpoint,
  // so shard specs re-derived from parsed specs stay compatible.
  const sweep_spec original = adder_spec_small();
  std::ostringstream first;
  original.write(first);
  std::istringstream is1(first.str());
  const auto once = sweep_spec::read(is1);
  ASSERT_TRUE(once.has_value());
  std::ostringstream second;
  once->write(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(sweep_spec, adversarial_doubles_round_trip_with_stable_fingerprint) {
  // Distribution masses and plan targets at the edges of double's range:
  // denormals, the denormal/normal boundary, huge magnitudes, and classic
  // shortest-decimal stress cases.  The %.17g text format must rebuild
  // every one bit-exactly — the component fingerprint (and thus
  // coordinator/worker checkpoint compatibility and the result-store key)
  // hashes the raw bits.
  sweep_spec original = mult_spec_small();
  original.options.distribution = dist::pmf::from_masses(std::vector<double>{
      5e-324, 6.3e-322, 2.2250738585072014e-308, 2.2250738585072009e-308,
      1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e-17, 123456789.12345679,
      0.0, 7.2, 1e-300, 2.5e-150, 42.0, 1.0000000000000002, 3.14159});
  original.plan.targets = {5e-324, 1.0 / 3.0, 0.1, 2.2250738585072014e-308};
  original.options.runs_per_target = original.plan.runs_per_target;

  std::ostringstream os;
  original.write(os);
  std::istringstream is(os.str());
  const auto restored = sweep_spec::read(is);
  ASSERT_TRUE(restored.has_value());

  const auto original_masses = original.options.distribution.masses();
  const auto restored_masses = restored->options.distribution.masses();
  ASSERT_EQ(restored_masses.size(), original_masses.size());
  for (std::size_t i = 0; i < original_masses.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored_masses[i]),
              std::bit_cast<std::uint64_t>(original_masses[i]))
        << "mass " << i;
  }
  ASSERT_EQ(restored->plan.targets.size(), original.plan.targets.size());
  for (std::size_t i = 0; i < original.plan.targets.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored->plan.targets[i]),
              std::bit_cast<std::uint64_t>(original.plan.targets[i]))
        << "target " << i;
  }
  EXPECT_EQ(restored->make_component().fingerprint(),
            original.make_component().fingerprint());
  EXPECT_EQ(restored->store_key(), original.store_key());

  // Fixpoint even on the adversarial values: a shard spec re-derived from
  // this parse serializes to the identical bytes.
  std::ostringstream second;
  restored->write(second);
  EXPECT_EQ(second.str(), os.str());
}

TEST(sweep_spec, store_key_separates_plans_sharing_a_component) {
  const sweep_spec base = mult_spec_small();
  ASSERT_NE(base.store_key(), 0u);
  sweep_spec more_runs = base;
  more_runs.plan.runs_per_target += 1;
  EXPECT_NE(more_runs.store_key(), base.store_key());
  sweep_spec other_targets = base;
  other_targets.plan.targets.push_back(0.1);
  EXPECT_NE(other_targets.store_key(), base.store_key());
  sweep_spec unknown = base;
  unknown.component = "no-such-component";
  EXPECT_EQ(unknown.store_key(), 0u);
}

TEST(sweep_spec, read_rejects_damage) {
  const sweep_spec original = mult_spec_small();
  std::ostringstream os;
  original.write(os);
  const std::string text = os.str();
  const std::size_t stride = text.size() / 16 + 1;
  for (std::size_t cut = 0; cut + 1 < text.size(); cut += stride) {
    std::istringstream is(text.substr(0, cut));
    EXPECT_FALSE(sweep_spec::read(is).has_value()) << "cut " << cut;
  }
  std::istringstream garbage("axc-sweep-spec v9\n");
  EXPECT_FALSE(sweep_spec::read(garbage).has_value());
}

TEST(run_sweep_inprocess, matches_plain_session_at_any_job_threads) {
  const sweep_spec spec = mult_spec_small();
  const sweep_result serial = run_sweep_inprocess(spec);
  ASSERT_TRUE(serial.complete);
  session_config parallel_options;
  parallel_options.job_threads = 3;
  const sweep_result parallel = run_sweep_inprocess(spec, parallel_options);
  ASSERT_TRUE(parallel.complete);
  expect_same_result(parallel, serial);
}

/// The acceptance property: crash + truncated autosave + retry == the
/// uninterrupted run, bit for bit.
void run_kill_resume_identity(const sweep_spec& spec, const char* name) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 3;
  config.worker_autosave_generations = 16;
  config.work_dir = fresh_work_dir(name);
  config.worker_binary = worker;
  // Shard 0, first life only: the last autosave before the crash (hit 3 =
  // generation tick 48 at a 16-tick cadence) is torn at byte 350, then the
  // process dies hard at the 60th generation tick — so the relaunch faces
  // exactly the torn file (salvaged or rejected-then-fresh, both must
  // reconverge).
  config.shard_env = {
      {"AXC_FAULT=session-save-truncate@3=350;worker-crash-generation@60"}};

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_GE(sharded.shards[0].attempts, 2u)
      << "the injected crash did not force a retry";
  EXPECT_EQ(sharded.shards[0].last_exit_code, 0);
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);

  // ...and the merged result is also invariant to the reference's
  // job-level parallelism (ties in the archive break by job id, not by
  // completion order).
  session_config parallel_options;
  parallel_options.job_threads = 2;
  const sweep_result parallel = run_sweep_inprocess(spec, parallel_options);
  expect_same_result(sharded, parallel);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, kill_resume_identity_mult) {
  run_kill_resume_identity(mult_spec_small(), "mult");
}

TEST(shard_runner, kill_resume_identity_adder) {
  run_kill_resume_identity(adder_spec_small(), "adder");
}

TEST(shard_runner, stalled_worker_is_killed_and_retried) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 2;
  // Generous enough that a legitimately-working shard (which completes a
  // job, i.e. grows its checkpoint, well within this) is never killed,
  // even under sanitizers.
  config.stall_timeout = std::chrono::milliseconds(2500);
  config.work_dir = fresh_work_dir("stall");
  config.worker_binary = worker;
  // First life of shard 1 sleeps 30s before doing anything: no checkpoint
  // growth, so the stall deadline must SIGKILL it long before that.
  config.shard_env = {{}, {"AXC_FAULT=worker-sleep-start=30000"}};

  const auto start = std::chrono::steady_clock::now();
  const sweep_result sharded = run_sweep(spec, config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(25)) << "stall kill did not fire";
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_TRUE(sharded.shards[1].timed_out);
  EXPECT_GE(sharded.shards[1].attempts, 2u);
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, exhausted_attempts_yield_partial_merge) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 1;  // no retry: the crash is fatal for shard 0
  config.worker_autosave_generations = 16;
  config.work_dir = fresh_work_dir("partial");
  config.worker_binary = worker;
  config.shard_env = {{"AXC_FAULT=worker-crash-generation@40"}};

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_FALSE(sharded.shards[0].completed);
  EXPECT_TRUE(sharded.shards[1].completed);
  EXPECT_FALSE(sharded.complete);
  // Shard 1's jobs (global ids 2, 3) still merged, bit-equal to the
  // reference; shard 0's jobs are lost or partially salvaged from its
  // autosaves, never wrong.
  ASSERT_EQ(sharded.by_job.size(), 4u);
  for (std::size_t id = 2; id < 4; ++id) {
    ASSERT_TRUE(sharded.by_job[id].has_value()) << "job " << id;
    EXPECT_EQ(sharded.by_job[id]->netlist, reference.by_job[id]->netlist);
    EXPECT_EQ(sharded.by_job[id]->wmed, reference.by_job[id]->wmed);
  }
  for (std::size_t id = 0; id < 2; ++id) {
    if (sharded.by_job[id]) {
      EXPECT_EQ(sharded.by_job[id]->netlist, reference.by_job[id]->netlist)
          << "salvaged job " << id;
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

/// Byte equality of a sharded merge with its in-process reference: every
/// job's design by global id, and the serialized front.
void expect_same_bytes(const sweep_result& a, const sweep_result& b) {
  ASSERT_EQ(a.by_job.size(), b.by_job.size());
  for (std::size_t id = 0; id < a.by_job.size(); ++id) {
    ASSERT_TRUE(a.by_job[id].has_value()) << "job " << id;
    ASSERT_TRUE(b.by_job[id].has_value()) << "job " << id;
    EXPECT_EQ(a.by_job[id]->netlist, b.by_job[id]->netlist) << "job " << id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.by_job[id]->wmed),
              std::bit_cast<std::uint64_t>(b.by_job[id]->wmed))
        << "job " << id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.by_job[id]->target),
              std::bit_cast<std::uint64_t>(b.by_job[id]->target))
        << "job " << id;
    EXPECT_EQ(a.by_job[id]->run_index, b.by_job[id]->run_index)
        << "job " << id;
  }
  EXPECT_EQ(serialize_front(a.front), serialize_front(b.front));
}

TEST(shard_runner, rerun_at_another_shard_count_respawns_stale_shards) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  sweep_spec spec = mult_spec_small();
  spec.plan.targets = {0.002, 0.005, 0.01, 0.02, 0.05};
  spec.plan.runs_per_target = 1;
  spec.options.runs_per_target = 1;
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  shard_runner_config config;
  config.shards = 4;
  config.work_dir = fresh_work_dir("reshard");
  config.worker_binary = worker;
  const sweep_result four = run_sweep(spec, config);
  ASSERT_TRUE(four.complete);
  expect_same_bytes(four, reference);

  // The journal says every shard completed, but at 3 shards shards 0 and 1
  // hold other targets ({0.002, 0.02} and {0.005, 0.05} instead of
  // {0.002, 0.05} and {0.005}); only shard 2 ({0.01}) keeps its plan.  The
  // stale ones must be respawned, not merged under the new job ids.
  config.shards = 3;
  const sweep_result three = run_sweep(spec, config);
  ASSERT_EQ(three.shards.size(), 3u);
  ASSERT_TRUE(three.complete);
  expect_same_bytes(three, reference);
  EXPECT_EQ(three.shards[0].attempts, 2u);
  EXPECT_EQ(three.shards[1].attempts, 2u);
  EXPECT_EQ(three.shards[2].attempts, 1u) << "an unchanged shard respawned";

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, worker_starts_fresh_on_a_checkpoint_of_another_plan) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const std::string dir = fresh_work_dir("worker-plan");
  std::filesystem::create_directories(dir);
  const std::string checkpoint = dir + "/shard.axc";
  const auto run_worker = [&](const sweep_spec& spec) {
    const std::string spec_path = dir + "/shard.spec";
    EXPECT_TRUE(spec.write_file(spec_path));
    auto proc = support::subprocess::spawn(
        {worker, "--spec", spec_path, "--checkpoint", checkpoint}, {});
    ASSERT_TRUE(proc.has_value());
    const auto status = proc->wait();
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->success());
  };

  sweep_spec first = mult_spec_small();
  first.plan.targets = {0.02};
  first.options.runs_per_target = first.plan.runs_per_target;
  run_worker(first);
  sweep_spec second = first;
  second.plan.targets = {0.002};
  run_worker(second);

  resume_report report;
  const auto session = search_session::resume_file(
      checkpoint, second.make_component(), {}, &report);
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(same_plan(session->plan(), second.plan));
  EXPECT_EQ(report.jobs_recovered, second.plan.job_count());
  const sweep_result reference = run_sweep_inprocess(second);
  for (std::size_t id = 0; id < second.plan.job_count(); ++id) {
    const auto design = session->design(id);
    ASSERT_TRUE(design.has_value()) << "job " << id;
    EXPECT_EQ(design->netlist, reference.by_job[id]->netlist) << "job " << id;
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace axc::core
