// core::app_eval — application-level re-ranking of session fronts.
//
// Contracts under test: metric scores equal direct (bench-style)
// evaluation bit for bit; rerank_front is bit-identical at any thread
// count; candidates restored from a session checkpoint re-rank identically
// to the live session's; multiple checkpoints union into one front via
// pareto_archive::merge.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/app_eval.h"
#include "core/component_handle.h"
#include "core/design_flow.h"
#include "data/digits.h"
#include "imgproc/gaussian_filter.h"
#include "mult/multipliers.h"
#include "nn/models.h"
#include "nn/quantize.h"
#include "nn/trainer.h"

namespace axc::core {
namespace {

constexpr std::size_t kHidden = 32;
constexpr std::uint64_t kNetSeed = 3;

/// Tiny trained digit MLP + its datasets, shared by the accuracy tests.
struct nn_fixture {
  std::vector<nn::tensor> train_x;
  std::vector<int> train_labels;
  std::vector<nn::tensor> test_x;
  std::vector<int> test_labels;
  nn::network trained;

  nn_fixture() {
    const data::digit_dataset train_set = data::make_mnist_like(80, 31);
    const data::digit_dataset test_set = data::make_mnist_like(40, 32);
    train_x = data::to_tensors(train_set);
    train_labels = train_set.labels;
    test_x = data::to_tensors(test_set);
    test_labels = test_set.labels;

    trained = nn::make_mlp(kNetSeed, 28 * 28, kHidden);
    nn::train_config cfg;
    cfg.epochs = 1;
    cfg.learning_rate = 0.08f;
    nn::train(trained, train_x, train_labels, cfg);
  }

  [[nodiscard]] nn_accuracy_options accuracy_options(
      std::optional<nn::finetune_config> finetune = {}) const {
    nn_accuracy_options options;
    options.build = [] { return nn::make_mlp(kNetSeed, 28 * 28, kHidden); };
    options.trained_weights = save_network_weights(trained);
    options.calibration = std::span<const nn::tensor>(train_x).subspan(0, 16);
    options.test_x = test_x;
    options.test_labels = test_labels;
    options.finetune = finetune;
    options.train_x = train_x;
    options.train_labels = train_labels;
    return options;
  }
};

const nn_fixture& fixture() {
  static const nn_fixture f;
  return f;
}

std::vector<app_candidate> signed_candidates() {
  std::vector<app_candidate> candidates;
  candidates.push_back(
      {0, "exact", 0.0, 0.0, 0.0, mult::signed_multiplier(8)});
  candidates.push_back(
      {1, "truncated", 0.0, 0.0, 0.0, mult::truncated_multiplier(8, 7, true)});
  return candidates;
}

TEST(app_eval, nn_accuracy_and_power_match_direct_evaluation) {
  const nn_fixture& f = fixture();
  const metrics::mult_spec spec{8, true};
  const auto& lib = tech::cell_library::nangate45_like();
  const dist::pmf weight_dist = dist::pmf::half_normal(256, 48.0);

  nn::finetune_config ft;
  ft.epochs = 1;
  ft.batch_size = 16;

  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(make_nn_accuracy_metric(f.accuracy_options()));
  metrics.push_back(make_nn_accuracy_metric(f.accuracy_options(ft)));
  power_metric_options power;
  power.distribution = weight_dist;
  power.mac_acc_width = 26;
  power.workload_samples = 512;
  metrics.push_back(make_power_metric(std::move(power)));

  rerank_config config;
  config.spec = spec;
  config.quality_metric = 0;
  config.cost_metric = 2;
  const rerank_result result = rerank_front(signed_candidates(), metrics,
                                            config);
  ASSERT_EQ(result.designs.size(), 2u);

  // Direct (pre-app_eval, bench-style) evaluation of the same circuits.
  for (const reranked_design& design : result.designs) {
    const metrics::compiled_mult_table table(design.candidate.netlist, spec);

    nn::network net = nn::make_mlp(kNetSeed, 28 * 28, kHidden);
    std::istringstream blob(save_network_weights(f.trained));
    ASSERT_TRUE(net.load_weights(blob));
    nn::quantized_network qnet(
        net, std::span<const nn::tensor>(f.train_x).subspan(0, 16));
    EXPECT_EQ(design.scores[0],
              qnet.accuracy(f.test_x, f.test_labels, table));

    nn::finetune(qnet, f.train_x, f.train_labels, table, ft);
    EXPECT_EQ(design.scores[1],
              qnet.accuracy(f.test_x, f.test_labels, table));

    EXPECT_EQ(design.scores[2],
              characterize_mac(design.candidate.netlist, spec, weight_dist,
                               26, lib, 512)
                  .power_uw);
  }

  // Front orientation: quality negated (higher is better), cost as-is.
  ASSERT_FALSE(result.front.empty());
  for (const pareto_point& p : result.front) {
    EXPECT_EQ(p.x, -result.at(p).scores[0]);
    EXPECT_EQ(p.y, result.at(p).scores[2]);
  }
}

TEST(app_eval, gaussian_psnr_matches_direct_evaluation) {
  const metrics::mult_spec spec{8, false};
  std::vector<app_candidate> candidates;
  candidates.push_back(
      {0, "exact", 0.0, 0.0, 0.0, mult::unsigned_multiplier(8)});
  candidates.push_back(
      {1, "truncated", 0.0, 0.0, 0.0, mult::truncated_multiplier(8, 6)});

  gaussian_psnr_options psnr;
  psnr.image_count = 3;
  psnr.image_size = 32;
  psnr.cache = make_psnr_cache();
  gaussian_psnr_options worst = psnr;
  worst.report_min = true;
  worst.name = "min_psnr_db";
  power_metric_options power;
  power.distribution = dist::pmf::half_normal(256, 16.0);
  power.workload_samples = 512;

  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(make_gaussian_psnr_metric(psnr));
  metrics.push_back(make_power_metric(std::move(power)));
  metrics.push_back(make_gaussian_psnr_metric(worst));

  rerank_config config;
  config.spec = spec;
  const rerank_result result = rerank_front(std::move(candidates), metrics,
                                            config);
  ASSERT_EQ(result.designs.size(), 2u);
  EXPECT_EQ(result.metric_names[0], "psnr_db");
  EXPECT_EQ(result.metric_names[2], "min_psnr_db");

  for (const reranked_design& design : result.designs) {
    const metrics::compiled_mult_table table(design.candidate.netlist, spec);
    const imgproc::filter_quality quality =
        imgproc::evaluate_filter_quality(table, 3, 32);
    EXPECT_EQ(design.scores[0], quality.mean_psnr_db);
    EXPECT_EQ(design.scores[2], quality.min_psnr_db);
  }
  // The exact multiplier filters better than the deeply truncated one.
  EXPECT_GT(result.designs[0].scores[0], result.designs[1].scores[0]);
}

TEST(app_eval, bit_identical_at_any_thread_count) {
  const nn_fixture& f = fixture();
  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(make_nn_accuracy_metric(f.accuracy_options()));
  power_metric_options power;
  power.distribution = dist::pmf::half_normal(256, 48.0);
  power.workload_samples = 512;
  metrics.push_back(make_power_metric(std::move(power)));

  rerank_config serial;
  serial.spec = metrics::mult_spec{8, true};
  rerank_config parallel = serial;
  parallel.threads = 4;

  const rerank_result a = rerank_front(signed_candidates(), metrics, serial);
  const rerank_result b =
      rerank_front(signed_candidates(), metrics, parallel);

  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].scores, b.designs[i].scores) << "design " << i;
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
}

TEST(app_eval, shared_power_cache_matches_uncached_metrics) {
  const auto make_metrics = [](bool shared) {
    std::vector<std::unique_ptr<app_metric>> metrics;
    const auto cache = shared ? make_power_cache() : nullptr;
    for (const auto [quantity, label] :
         {std::pair{power_metric_options::quantity::power_uw, "power_uw"},
          std::pair{power_metric_options::quantity::pdp_fj, "pdp_fj"},
          std::pair{power_metric_options::quantity::area_um2, "area_um2"}}) {
      power_metric_options power;
      power.distribution = dist::pmf::half_normal(256, 48.0);
      power.mac_acc_width = 26;
      power.workload_samples = 512;
      power.report = quantity;
      power.name = label;
      power.cache = cache;
      metrics.push_back(make_power_metric(std::move(power)));
    }
    return metrics;
  };
  const auto uncached_metrics = make_metrics(false);
  const auto cached_metrics = make_metrics(true);

  rerank_config rerank;
  rerank.spec = metrics::mult_spec{8, true};
  rerank.cost_metric = 1;
  const rerank_result uncached =
      rerank_front(signed_candidates(), uncached_metrics, rerank);
  rerank.threads = 4;  // exercise the cache's locking under contention
  const rerank_result cached =
      rerank_front(signed_candidates(), cached_metrics, rerank);

  ASSERT_EQ(uncached.designs.size(), cached.designs.size());
  for (std::size_t i = 0; i < uncached.designs.size(); ++i) {
    EXPECT_EQ(uncached.designs[i].scores, cached.designs[i].scores)
        << "design " << i;
  }
}

approximation_config session_cfg() {
  approximation_config cfg;
  cfg.spec = metrics::mult_spec{8, false};
  cfg.distribution = dist::pmf::half_normal(256, 64.0);
  cfg.iterations = 60;
  cfg.extra_columns = 24;
  cfg.rng_seed = 21;
  return cfg;
}

TEST(app_eval, checkpoint_candidates_reproduce_live_session) {
  const approximation_config cfg = session_cfg();
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  sweep_plan plan;
  plan.targets = {0.002, 0.02};

  search_session session(make_component(cfg), seed, plan);
  session.run();
  ASSERT_TRUE(session.finished());
  const std::vector<app_candidate> live =
      session_candidates(session, /*front_only=*/false, "proposed");

  std::stringstream checkpoint;
  session.save(checkpoint);
  std::istream* stream = &checkpoint;
  const auto restored = checkpoint_candidates(
      std::span<std::istream* const>(&stream, 1), make_component(cfg),
      /*front_only=*/false, "proposed");
  ASSERT_TRUE(restored.has_value());

  ASSERT_EQ(restored->size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ((*restored)[i].netlist, live[i].netlist) << "candidate " << i;
    EXPECT_EQ((*restored)[i].target, live[i].target);
    EXPECT_EQ((*restored)[i].wmed, live[i].wmed);
    EXPECT_EQ((*restored)[i].area_um2, live[i].area_um2);
    EXPECT_EQ((*restored)[i].family, "proposed");
  }

  // Re-ranking the restored candidates gives bit-identical scores.
  std::vector<std::unique_ptr<app_metric>> metrics;
  power_metric_options power;
  power.distribution = cfg.distribution;
  power.workload_samples = 512;
  metrics.push_back(make_power_metric(std::move(power)));
  gaussian_psnr_options psnr;
  psnr.image_count = 2;
  psnr.image_size = 32;
  metrics.push_back(make_gaussian_psnr_metric(psnr));

  rerank_config rconfig;
  rconfig.spec = cfg.spec;
  rconfig.quality_metric = 1;
  rconfig.cost_metric = 0;
  const rerank_result from_live = rerank_front(live, metrics, rconfig);
  const rerank_result from_checkpoint =
      rerank_front(*restored, metrics, rconfig);
  ASSERT_EQ(from_live.designs.size(), from_checkpoint.designs.size());
  for (std::size_t i = 0; i < from_live.designs.size(); ++i) {
    EXPECT_EQ(from_live.designs[i].scores,
              from_checkpoint.designs[i].scores);
  }
}

TEST(app_eval, multiple_checkpoints_merge_into_one_front) {
  const approximation_config cfg = session_cfg();
  const circuit::netlist seed = mult::unsigned_multiplier(8);

  // The same sweep once as one session and once sharded across two.
  sweep_plan whole_plan;
  whole_plan.targets = {0.002, 0.02};
  search_session whole(make_component(cfg), seed, whole_plan);
  whole.run();
  const std::vector<app_candidate> whole_front =
      session_candidates(whole, /*front_only=*/true);

  std::stringstream shard_a, shard_b;
  {
    sweep_plan plan;
    plan.targets = {0.002};
    search_session session(make_component(cfg), seed, plan);
    session.run();
    session.save(shard_a);
  }
  {
    sweep_plan plan;
    plan.targets = {0.02};
    search_session session(make_component(cfg), seed, plan);
    session.run();
    session.save(shard_b);
  }

  std::istream* streams[] = {&shard_a, &shard_b};
  const auto merged = checkpoint_candidates(
      std::span<std::istream* const>(streams, 2), make_component(cfg),
      /*front_only=*/true);
  ASSERT_TRUE(merged.has_value());

  // Job RNG streams depend only on (rng_seed, target, run_index), so the
  // sharded designs equal the whole sweep's; the merged union front must
  // therefore match the whole session's archive front member for member.
  ASSERT_EQ(merged->size(), whole_front.size());
  for (std::size_t i = 0; i < merged->size(); ++i) {
    EXPECT_EQ((*merged)[i].netlist, whole_front[i].netlist) << "member " << i;
    EXPECT_EQ((*merged)[i].wmed, whole_front[i].wmed);
    EXPECT_EQ((*merged)[i].area_um2, whole_front[i].area_um2);
  }
}

TEST(app_eval, checkpoint_candidates_reject_bad_input) {
  std::stringstream garbage("not a checkpoint");
  std::istream* stream = &garbage;
  const auto result = checkpoint_candidates(
      std::span<std::istream* const>(&stream, 1),
      make_component(session_cfg()));
  EXPECT_FALSE(result.has_value());
}

// ---------------------------------------------------------------------------
// Incremental re-ranking (rerank_score_cache)
// ---------------------------------------------------------------------------

/// Deterministic metric that counts its score() invocations — how the tests
/// below observe which candidates a rerank actually evaluated.
class counting_metric final : public app_metric {
 public:
  counting_metric(std::string name, std::uint64_t fp, bool higher,
                  bool fingerprinted = true)
      : name_(std::move(name)),
        fp_(fp),
        higher_(higher),
        fingerprinted_(fingerprinted) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool higher_is_better() const override { return higher_; }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    if (!fingerprinted_) return std::nullopt;
    return fp_;
  }
  [[nodiscard]] double score(
      const circuit::netlist& nl,
      const metrics::compiled_mult_table&) const override {
    ++calls_;
    return static_cast<double>(nl.num_gates()) + 0.25 * static_cast<double>(fp_);
  }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  std::string name_;
  std::uint64_t fp_;
  bool higher_;
  bool fingerprinted_;
  mutable std::atomic<std::size_t> calls_{0};
};

std::vector<app_candidate> cache_test_candidates() {
  std::vector<app_candidate> candidates;
  candidates.push_back(
      {0, "exact", 0.0, 0.0, 0.0, mult::unsigned_multiplier(8)});
  candidates.push_back(
      {1, "trunc4", 0.0, 0.0, 0.0, mult::truncated_multiplier(8, 4)});
  return candidates;
}

TEST(app_eval, rerank_cache_scores_only_changed_candidates) {
  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(std::make_unique<counting_metric>("q", 11, true));
  metrics.push_back(std::make_unique<counting_metric>("c", 23, false));
  const auto* q = static_cast<const counting_metric*>(metrics[0].get());
  const auto* c = static_cast<const counting_metric*>(metrics[1].get());

  rerank_config config;
  config.cache = make_rerank_cache();

  // Cold rerank: every (candidate x metric) job runs.
  const rerank_result first = rerank_front(cache_test_candidates(), metrics,
                                           config);
  EXPECT_EQ(q->calls(), 2u);
  EXPECT_EQ(c->calls(), 2u);

  // Unchanged rerank: everything replays from the cache.
  const rerank_result second = rerank_front(cache_test_candidates(), metrics,
                                            config);
  EXPECT_EQ(q->calls(), 2u);
  EXPECT_EQ(c->calls(), 2u);
  ASSERT_EQ(second.designs.size(), first.designs.size());
  for (std::size_t i = 0; i < first.designs.size(); ++i) {
    EXPECT_EQ(second.designs[i].scores, first.designs[i].scores);
  }
  ASSERT_EQ(second.front.size(), first.front.size());
  for (std::size_t i = 0; i < first.front.size(); ++i) {
    EXPECT_EQ(second.front[i].x, first.front[i].x);
    EXPECT_EQ(second.front[i].y, first.front[i].y);
    EXPECT_EQ(second.front[i].index, first.front[i].index);
  }

  // Archive evolved: one kept member, one new — only the new one scores.
  std::vector<app_candidate> evolved;
  evolved.push_back(
      {0, "exact", 0.0, 0.0, 0.0, mult::unsigned_multiplier(8)});
  evolved.push_back(
      {1, "bam", 0.0, 0.0, 0.0, mult::broken_array_multiplier(8, 2, 3)});
  (void)rerank_front(std::move(evolved), metrics, config);
  EXPECT_EQ(q->calls(), 3u);
  EXPECT_EQ(c->calls(), 3u);
}

TEST(app_eval, rerank_cache_matches_cold_rerank_and_respects_spec) {
  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(std::make_unique<counting_metric>("q", 5, true));
  metrics.push_back(std::make_unique<counting_metric>("c", 7, false));

  rerank_config cold;  // no cache
  const rerank_result reference = rerank_front(cache_test_candidates(),
                                               metrics, cold);

  rerank_config warm;
  warm.cache = make_rerank_cache();
  (void)rerank_front(cache_test_candidates(), metrics, warm);
  const rerank_result cached = rerank_front(cache_test_candidates(), metrics,
                                            warm);
  ASSERT_EQ(cached.designs.size(), reference.designs.size());
  for (std::size_t i = 0; i < reference.designs.size(); ++i) {
    EXPECT_EQ(cached.designs[i].scores, reference.designs[i].scores);
  }

  // A different compile spec must not serve the old spec's scores.
  const auto* q = static_cast<const counting_metric*>(metrics[0].get());
  const std::size_t before = q->calls();
  rerank_config other_spec = warm;
  other_spec.spec = metrics::mult_spec{8, true};
  std::vector<app_candidate> signed_cands;
  signed_cands.push_back(
      {0, "exact", 0.0, 0.0, 0.0, mult::signed_multiplier(8)});
  (void)rerank_front(std::move(signed_cands), metrics, other_spec);
  EXPECT_EQ(q->calls(), before + 1);
}

TEST(app_eval, rerank_cache_never_caches_unfingerprinted_metrics) {
  std::vector<std::unique_ptr<app_metric>> metrics;
  metrics.push_back(std::make_unique<counting_metric>("q", 3, true));
  metrics.push_back(std::make_unique<counting_metric>(
      "opaque", 0, false, /*fingerprinted=*/false));
  const auto* opaque = static_cast<const counting_metric*>(metrics[1].get());

  rerank_config config;
  config.cache = make_rerank_cache();
  (void)rerank_front(cache_test_candidates(), metrics, config);
  (void)rerank_front(cache_test_candidates(), metrics, config);
  // The opaque metric re-scores both candidates on both reranks.
  EXPECT_EQ(opaque->calls(), 4u);
}

TEST(app_eval, shipped_metrics_report_option_sensitive_fingerprints) {
  const nn_fixture& f = fixture();
  const auto accuracy = make_nn_accuracy_metric(f.accuracy_options());
  ASSERT_TRUE(accuracy->fingerprint().has_value());
  EXPECT_EQ(accuracy->fingerprint(),
            make_nn_accuracy_metric(f.accuracy_options())->fingerprint());

  gaussian_psnr_options mean_psnr;
  gaussian_psnr_options min_psnr;
  min_psnr.report_min = true;
  const auto psnr_a = make_gaussian_psnr_metric(mean_psnr);
  const auto psnr_b = make_gaussian_psnr_metric(min_psnr);
  ASSERT_TRUE(psnr_a->fingerprint().has_value());
  EXPECT_NE(psnr_a->fingerprint(), psnr_b->fingerprint());

  power_metric_options power;
  power.distribution = dist::pmf::half_normal(256, 48.0);
  power_metric_options pdp = power;
  pdp.report = power_metric_options::quantity::pdp_fj;
  const auto power_metric = make_power_metric(std::move(power));
  const auto pdp_metric = make_power_metric(std::move(pdp));
  ASSERT_TRUE(power_metric->fingerprint().has_value());
  EXPECT_NE(power_metric->fingerprint(), pdp_metric->fingerprint());
}

}  // namespace
}  // namespace axc::core
