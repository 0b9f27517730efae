// Multi-node dispatch tests: nodes-file parsing, launcher template
// expansion, the node_pool health state machine (backoff, quarantine,
// timed re-probation, single-lease probation), and the PR's acceptance
// properties against the real worker binary:
//
//   (a) a node killed mid-sweep (node-dead-midrun) has its shard's lease
//       reassigned to a surviving node and the merged front is
//       byte-identical to run_sweep_inprocess;
//   (b) a straggler shard speculatively duplicated onto another node
//       completes twice with byte-equal serialized fronts, and exactly
//       one copy is merged;
//   (c) a quarantined node is not offered shards until its re-probation
//       delay elapses, and then only one probation lease at a time.
//
// Process-level cases launch tools/axc_worker through the templated
// launcher (a localhost fake-ssh script — `shift; exec "$@"` — so the
// remote code path runs without a network); ctest points AXC_WORKER_BIN
// at the binary and the cases skip when it is unset.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/node_pool.h"
#include "core/result_store.h"
#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/multipliers.h"
#include "support/fault.h"
#include "support/launcher.h"

namespace axc::core {
namespace {

using std::chrono::milliseconds;

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

const char* worker_binary() { return std::getenv("AXC_WORKER_BIN"); }

std::string fresh_work_dir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("axc-node-test-") + name + "-" +
        std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Localhost "remote": a script that drops the host argument and execs the
/// rest — the same shape the CI multi-node job uses for ssh.
std::string write_fake_ssh(const std::string& dir) {
  const std::string path = dir + "/fake-ssh";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "#!/bin/sh\nshift\nexec \"$@\"\n";
  }
  std::filesystem::permissions(path,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  return path;
}

std::string read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void expect_same_result(const sweep_result& a, const sweep_result& b) {
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].netlist, b.designs[i].netlist) << "design " << i;
    EXPECT_EQ(a.designs[i].wmed, b.designs[i].wmed) << "design " << i;
    EXPECT_EQ(a.designs[i].area_um2, b.designs[i].area_um2) << "design " << i;
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
}

/// Disarms the process-global fault plan even when an ASSERT bails out.
struct fault_guard {
  explicit fault_guard(std::string_view plan) { fault::configure(plan); }
  ~fault_guard() { fault::clear(); }
};

// ---- nodes-file parsing -------------------------------------------------

TEST(parse_nodes, full_block_round_trips_every_attribute) {
  std::istringstream in(
      "axc-nodes v1\n"
      "# the fast box\n"
      "node fast\n"
      "host 10.0.0.7\n"
      "slots 4\n"
      "workdir /tmp/axc\n"
      "worker /opt/axc/axc_worker\n"
      "run ssh -oBatchMode=yes {host}\n"
      "fetch scp {host}:{src} {dst}\n"
      "push scp {src} {host}:{dst}\n"
      "end\n"
      "\n"
      "node plain\n"
      "end\n");
  const auto nodes = parse_nodes(in);
  ASSERT_TRUE(nodes.has_value());
  ASSERT_EQ(nodes->size(), 2u);
  const node_config& fast = (*nodes)[0];
  EXPECT_EQ(fast.name, "fast");
  EXPECT_EQ(fast.host, "10.0.0.7");
  EXPECT_EQ(fast.slots, 4u);
  EXPECT_EQ(fast.workdir, "/tmp/axc");
  EXPECT_EQ(fast.worker, "/opt/axc/axc_worker");
  EXPECT_EQ(fast.tpl.run,
            (std::vector<std::string>{"ssh", "-oBatchMode=yes", "{host}"}));
  EXPECT_EQ(fast.tpl.fetch,
            (std::vector<std::string>{"scp", "{host}:{src}", "{dst}"}));
  EXPECT_EQ(fast.tpl.push,
            (std::vector<std::string>{"scp", "{src}", "{host}:{dst}"}));
  EXPECT_FALSE(fast.shares_filesystem());
  const node_config& plain = (*nodes)[1];
  EXPECT_EQ(plain.name, "plain");
  EXPECT_EQ(plain.slots, 1u);
  EXPECT_TRUE(plain.tpl.is_local());
  EXPECT_TRUE(plain.shares_filesystem());
}

TEST(parse_nodes, rejects_damage) {
  const char* bad[] = {
      "axc-nodes v2\nnode a\nend\n",           // wrong version
      "node a\nend\n",                         // missing magic
      "axc-nodes v1\n",                        // zero nodes
      "axc-nodes v1\nnode a\n",                // missing end
      "axc-nodes v1\nhost h\nnode a\nend\n",   // attribute outside block
      "axc-nodes v1\nnode a\nbogus x\nend\n",  // unknown key
      "axc-nodes v1\nnode a\nend\nnode a\nend\n",  // duplicate name
      "axc-nodes v1\nnode a\nslots 0\nend\n",      // zero slots
      "axc-nodes v1\nnode a\nslots many\nend\n",   // non-numeric slots
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_FALSE(parse_nodes(in).has_value()) << text;
  }
}

TEST(worker_launcher, expand_substitutes_inside_tokens) {
  const auto argv = support::worker_launcher::expand(
      {"scp", "{host}:{src}", "{dst}", "{host}-{host}"}, "box", "/r/a.axc",
      "/l/a.axc");
  EXPECT_EQ(argv, (std::vector<std::string>{"scp", "box:/r/a.axc",
                                            "/l/a.axc", "box-box"}));
}

// ---- node_pool health state machine -------------------------------------

TEST(node_pool, acquire_prefers_least_active_then_lowest_index) {
  std::vector<node_config> nodes(2);
  nodes[0].name = "x";
  nodes[0].slots = 2;
  nodes[1].name = "y";
  node_pool pool(nodes);
  const auto now = node_pool::clock::now();
  EXPECT_EQ(pool.acquire(now), std::optional<std::size_t>{0});
  EXPECT_EQ(pool.acquire(now), std::optional<std::size_t>{1});
  EXPECT_EQ(pool.acquire(now), std::optional<std::size_t>{0});
  EXPECT_FALSE(pool.acquire(now).has_value());  // every slot leased
}

TEST(node_pool, avoid_is_soft) {
  std::vector<node_config> nodes(2);
  node_pool pool(nodes);
  const auto now = node_pool::clock::now();
  EXPECT_EQ(pool.acquire(now, {0}), std::optional<std::size_t>{1});
  // Node 1 is now full; the avoided node is still better than nothing.
  EXPECT_EQ(pool.acquire(now, {0}), std::optional<std::size_t>{0});
}

/// Acceptance (c): quarantine blocks leases until re-probation elapses,
/// and a re-admitted node gets one probation lease at a time.
TEST(node_pool, quarantined_node_waits_out_reprobation_then_probates) {
  node_config only;
  only.name = "flaky";
  only.slots = 2;
  node_policy policy;
  policy.quarantine_after = 2;
  policy.backoff = milliseconds(100);
  policy.reprobation = milliseconds(1000);
  node_pool pool({only}, policy);

  const auto t0 = node_pool::clock::now();
  auto lease = pool.acquire(t0);
  ASSERT_TRUE(lease.has_value());
  pool.release_failure(*lease, t0);
  EXPECT_EQ(pool.status(0).health, node_health::backing_off);
  // Backing off: no lease until the backoff delay passes.
  EXPECT_FALSE(pool.acquire(t0 + milliseconds(50)).has_value());
  EXPECT_FALSE(pool.acquire(t0 + milliseconds(99)).has_value());

  lease = pool.acquire(t0 + milliseconds(100));
  ASSERT_TRUE(lease.has_value());
  pool.release_failure(*lease, t0 + milliseconds(100));
  // Second consecutive failure: quarantined for the re-probation delay.
  EXPECT_EQ(pool.status(0).health, node_health::quarantined);
  EXPECT_EQ(pool.status(0).quarantines, 1u);
  EXPECT_FALSE(pool.acquire(t0 + milliseconds(1099)).has_value());

  // Re-probation elapsed: exactly one probation lease, even with a free
  // slot — a flaky host must not reabsorb the plan in one tick.
  lease = pool.acquire(t0 + milliseconds(1100));
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(pool.status(0).probation);
  EXPECT_FALSE(pool.acquire(t0 + milliseconds(1100)).has_value());

  // A probation success restores full trust (both slots leasable).
  pool.release_success(*lease);
  EXPECT_EQ(pool.status(0).health, node_health::healthy);
  EXPECT_FALSE(pool.status(0).probation);
  EXPECT_TRUE(pool.acquire(t0 + milliseconds(1100)).has_value());
  EXPECT_TRUE(pool.acquire(t0 + milliseconds(1100)).has_value());
}

TEST(node_pool, probation_failure_requarantines_with_longer_delay) {
  node_config only;
  node_policy policy;
  policy.quarantine_after = 1;
  policy.reprobation = milliseconds(1000);
  policy.reprobation_factor = 2.0;
  node_pool pool({only}, policy);

  const auto t0 = node_pool::clock::now();
  auto lease = pool.acquire(t0);
  ASSERT_TRUE(lease.has_value());
  pool.release_failure(*lease, t0);  // quarantine #1: 1000 ms
  lease = pool.acquire(t0 + milliseconds(1000));
  ASSERT_TRUE(lease.has_value());
  pool.release_failure(*lease, t0 + milliseconds(1000));
  // Probation failed: quarantine #2 doubles the delay.
  EXPECT_EQ(pool.status(0).quarantines, 2u);
  EXPECT_FALSE(pool.acquire(t0 + milliseconds(2999)).has_value());
  EXPECT_TRUE(pool.acquire(t0 + milliseconds(3000)).has_value());
}

TEST(node_pool, mark_dead_quarantines_immediately) {
  std::vector<node_config> nodes(2);
  node_pool pool(nodes);
  const auto t0 = node_pool::clock::now();
  auto lease = pool.acquire(t0);
  ASSERT_TRUE(lease.has_value());
  pool.mark_dead(*lease, t0);
  EXPECT_EQ(pool.status(0).health, node_health::quarantined);
  pool.release(*lease);  // the reap releases without re-judging
  EXPECT_EQ(pool.status(0).health, node_health::quarantined);
  EXPECT_EQ(pool.acquire(t0), std::optional<std::size_t>{1});
}

// ---- process-level acceptance properties --------------------------------

/// Acceptance (a): a node dying mid-sweep loses its lease, the shard is
/// reassigned to a surviving node, and the merged result is bit-identical
/// to the single-process reference.
TEST(node_dispatch, dead_node_lease_is_reassigned_bit_exactly) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 3;
  config.work_dir = fresh_work_dir("dead-node");
  config.worker_binary = worker;
  const std::string ssh = write_fake_ssh(config.work_dir);
  // Two "remote" nodes through the fake-ssh hop; node a takes the
  // reassigned shard alongside its own, so it needs two slots.
  std::vector<node_config> nodes(2);
  nodes[0].name = "a";
  nodes[0].host = "host-a";
  nodes[0].slots = 2;
  nodes[0].tpl.run = {ssh, "{host}"};
  nodes[1].name = "b";
  nodes[1].host = "host-b";
  nodes[1].tpl.run = {ssh, "{host}"};
  config.nodes = nodes;
  // Shard 1 (leased to node b, the second least-active node) naps first so
  // the injected node death at the 3rd supervision tick is guaranteed to
  // land mid-run; the relaunch runs clean (shard_env is first-attempt
  // only).
  config.shard_env = {{}, {"AXC_FAULT=worker-sleep-start=500"}};
  fault_guard fault("node-dead-midrun@3=1");

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_TRUE(sharded.complete);
  ASSERT_EQ(sharded.shards.size(), 2u);
  EXPECT_GE(sharded.shards[1].attempts, 2u)
      << "node death did not force a reassignment";
  EXPECT_EQ(sharded.shards[1].node, "a") << "shard 1 did not move nodes";
  ASSERT_EQ(sharded.nodes.size(), 2u);
  EXPECT_GE(sharded.nodes[1].quarantines, 1u);
  expect_same_result(sharded, reference);

  // The journal carries the lease story: the dead lease was released with
  // reason "dead" and the shard still completed.
  const std::string journal =
      read_all(config.work_dir + "/coordinator.journal");
  EXPECT_NE(journal.find("release 1 b dead"), std::string::npos) << journal;
  EXPECT_NE(journal.find("lease 1 a"), std::string::npos) << journal;

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

/// Acceptance (b): a straggler's speculative duplicate completes on
/// another node; both checkpoints are complete with byte-equal serialized
/// fronts, and exactly one is merged (the result equals the reference).
TEST(node_dispatch, speculative_duplicate_checkpoints_are_byte_equal) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  shard_runner_config config;
  config.shards = 1;  // one shard holding the whole plan
  config.max_attempts = 2;
  config.work_dir = fresh_work_dir("speculate");
  config.worker_binary = worker;
  std::vector<node_config> nodes(2);
  nodes[0].name = "n0";
  nodes[1].name = "n1";
  config.nodes = nodes;
  // The primary naps 800 ms before working; the duplicate launched at
  // 150 ms runs immediately and wins.  keep_losers lets the primary finish
  // anyway so both completed checkpoints exist for the byte comparison.
  config.shard_env = {{"AXC_FAULT=worker-sleep-start=800"}};
  config.speculate_after = milliseconds(150);
  config.speculation_keep_losers = true;

  std::size_t speculated_events = 0;
  config.on_event = [&speculated_events](const shard_event& event) {
    if (event.kind == shard_event_kind::speculated) ++speculated_events;
  };

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_TRUE(sharded.complete);
  ASSERT_EQ(sharded.shards.size(), 1u);
  EXPECT_EQ(speculated_events, 1u);
  EXPECT_TRUE(sharded.shards[0].speculative_win);
  EXPECT_EQ(sharded.shards[0].node, "n1");
  expect_same_result(sharded, reference);

  // Both copies ran to completion; their recovered fronts must be
  // byte-equal (every job is a pure function of (seed, target, run)).
  const component_handle component = spec.make_component();
  const std::string primary = config.work_dir + "/shard-0.axc";
  const std::string duplicate = primary + ".dup";
  resume_report primary_report, duplicate_report;
  auto primary_session =
      search_session::resume_file(primary, component, {}, &primary_report);
  auto duplicate_session = search_session::resume_file(duplicate, component,
                                                       {}, &duplicate_report);
  ASSERT_TRUE(primary_session.has_value());
  ASSERT_TRUE(duplicate_session.has_value());
  EXPECT_EQ(primary_report.jobs_recovered, spec.plan.job_count());
  EXPECT_EQ(duplicate_report.jobs_recovered, spec.plan.job_count());
  EXPECT_EQ(primary_report.jobs_dropped, 0u);
  EXPECT_EQ(duplicate_report.jobs_dropped, 0u);
  const auto primary_front = primary_session->front();
  const auto duplicate_front = duplicate_session->front();
  EXPECT_EQ(serialize_front(primary_front), serialize_front(duplicate_front));

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

/// A node whose launches never start is quarantined and the sweep
/// completes on the healthy node alone.
TEST(node_dispatch, launch_failures_quarantine_the_node) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 3;
  config.work_dir = fresh_work_dir("launch-fail");
  config.worker_binary = worker;
  std::vector<node_config> nodes(2);
  nodes[0].name = "good";
  nodes[0].slots = 2;
  nodes[1].name = "bad";
  config.nodes = nodes;
  config.nodes_policy.quarantine_after = 1;
  config.nodes_policy.reprobation = milliseconds(60000);
  fault_guard fault("node-launch-fail=1");  // every launch on node 1 fails

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);
  for (const shard_outcome& shard : sharded.shards) {
    EXPECT_EQ(shard.node, "good");
  }
  ASSERT_EQ(sharded.nodes.size(), 2u);
  EXPECT_EQ(sharded.nodes[1].health, node_health::quarantined);
  EXPECT_GE(sharded.nodes[1].failures, 1u);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

/// A torn checkpoint fetch (non-shared filesystem) is detected by CRC
/// validation and refetched; the sweep still lands bit-exactly.
TEST(node_dispatch, torn_fetch_is_detected_and_retried) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 1;
  config.max_attempts = 2;
  config.work_dir = fresh_work_dir("torn-fetch");
  config.worker_binary = worker;
  // One node with its own workdir but empty fetch/push templates: spec and
  // checkpoint move by plain file copy — a non-shared-filesystem node
  // simulated without any transport.
  node_config remote;
  remote.name = "far";
  remote.workdir = config.work_dir + "/far";
  std::error_code ec;
  std::filesystem::create_directories(remote.workdir, ec);
  config.nodes = {remote};
  // First final fetch arrives truncated to 64 bytes; CRC validation must
  // reject it and the retry delivers the intact copy.
  fault_guard fault("node-fetch-torn@1=64");

  std::size_t torn_events = 0;
  config.on_event = [&torn_events](const shard_event& event) {
    if (event.kind == shard_event_kind::fetch_torn) ++torn_events;
  };

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_TRUE(sharded.complete);
  EXPECT_GE(torn_events, 1u);
  expect_same_result(sharded, reference);
  const std::string journal =
      read_all(config.work_dir + "/coordinator.journal");
  EXPECT_NE(journal.find("fetch 0 far torn"), std::string::npos) << journal;
  EXPECT_NE(journal.find("fetch 0 far ok"), std::string::npos) << journal;

  std::filesystem::remove_all(config.work_dir, ec);
}

}  // namespace
}  // namespace axc::core
