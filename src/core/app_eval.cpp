#include "core/app_eval.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/design_flow.h"
#include "imgproc/gaussian_filter.h"
#include "nn/quantize.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace axc::core {

namespace detail {

/// (Candidate netlist, evaluation options) -> result memo, shared by
/// metrics that read different fields of one expensive evaluation (power /
/// PDP / area columns of one characterization; mean / min PSNR of one
/// filter sweep).  Entries are looked up by netlist address but validated
/// against a stored copy of the netlist and a fingerprint of every
/// result-affecting option, so neither a reused address (a later rerank's
/// candidate allocated where a freed one lived) nor metrics that disagree
/// on options can be served another configuration's figures — mismatches
/// recompute.  A per-entry once-latch makes concurrent sharers of one
/// candidate wait for a single evaluation instead of each running their
/// own, and the entry count is capped so a cache held across many reranks
/// cannot grow without bound (a clear only costs re-evaluation).
template <typename Value>
class result_memo {
 public:
  Value get(const circuit::netlist& nl, std::uint64_t fingerprint,
            const std::function<Value()>& evaluate) {
    std::shared_ptr<entry> e;
    {
      std::scoped_lock lock(mutex_);
      if (by_netlist_.size() >= kMaxEntries &&
          !by_netlist_.contains(&nl)) {
        by_netlist_.clear();
      }
      std::shared_ptr<entry>& slot = by_netlist_[&nl];
      if (!slot || slot->fingerprint != fingerprint || slot->netlist != nl) {
        slot = std::make_shared<entry>(nl, fingerprint);
      }
      e = slot;
    }
    std::call_once(e->once, [&] { e->value = evaluate(); });
    return e->value;
  }

 private:
  static constexpr std::size_t kMaxEntries = 4096;

  struct entry {
    entry(circuit::netlist nl, std::uint64_t f)
        : netlist(std::move(nl)), fingerprint(f) {}
    std::once_flag once;
    circuit::netlist netlist;
    std::uint64_t fingerprint;
    Value value{};
  };

  std::mutex mutex_;
  std::unordered_map<const circuit::netlist*, std::shared_ptr<entry>>
      by_netlist_;
};

/// FNV-1a fold helper for the option fingerprints.
class fnv1a {
 public:
  void mix(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void mix_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) mix(p[i]);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

/// Content hash of a netlist (structure + wiring) — the rerank cache key
/// ingredient; collisions are resolved by full netlist comparison.
inline std::uint64_t netlist_hash(const circuit::netlist& nl) {
  fnv1a h;
  h.mix(nl.num_inputs());
  h.mix(nl.num_outputs());
  for (const circuit::gate_node& g : nl.gates()) {
    h.mix(static_cast<std::uint64_t>(g.fn));
    h.mix(g.in0);
    h.mix(g.in1);
  }
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) h.mix(nl.output(o));
  return h.value();
}

}  // namespace detail

class power_characterization_cache
    : public detail::result_memo<design_power> {};
class filter_quality_cache
    : public detail::result_memo<imgproc::filter_quality> {};

/// (netlist, metric, spec) -> score memo for incremental re-ranking.
/// Keys are pre-mixed hashes; a stored netlist copy guards against both
/// hash collisions and reused-address confusion (compare result_memo).
class rerank_score_cache {
 public:
  [[nodiscard]] std::optional<double> lookup(std::uint64_t key,
                                             const circuit::netlist& nl) {
    std::scoped_lock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.netlist != nl) return std::nullopt;
    return it->second.score;
  }

  void store(std::uint64_t key, const circuit::netlist& nl, double score) {
    std::scoped_lock lock(mutex_);
    if (entries_.size() >= kMaxEntries && !entries_.contains(key)) {
      entries_.clear();  // bounded growth; a clear only costs re-scoring
    }
    entries_.insert_or_assign(key, entry{nl, score});
  }

 private:
  /// Each entry carries a netlist copy for validation, so the cap bounds
  /// resident memory (a few KB per evolved candidate), matching
  /// result_memo's policy: overflow clears, which only costs re-scoring.
  static constexpr std::size_t kMaxEntries = 4096;

  struct entry {
    circuit::netlist netlist;
    double score;
  };

  std::mutex mutex_;
  std::unordered_map<std::uint64_t, entry> entries_;
};

std::shared_ptr<rerank_score_cache> make_rerank_cache() {
  return std::make_shared<rerank_score_cache>();
}

std::shared_ptr<power_characterization_cache> make_power_cache() {
  return std::make_shared<power_characterization_cache>();
}

std::shared_ptr<filter_quality_cache> make_psnr_cache() {
  return std::make_shared<filter_quality_cache>();
}

std::string save_network_weights(const nn::network& net) {
  std::ostringstream blob;
  net.save_weights(blob);
  return std::move(blob).str();
}

namespace {

class nn_accuracy_metric final : public app_metric {
 public:
  explicit nn_accuracy_metric(nn_accuracy_options options)
      : options_(std::move(options)) {
    AXC_EXPECTS(options_.build != nullptr);
    AXC_EXPECTS(!options_.trained_weights.empty());
    AXC_EXPECTS(!options_.calibration.empty());
    AXC_EXPECTS(options_.test_x.size() == options_.test_labels.size());
    AXC_EXPECTS(!options_.test_x.empty());
    if (options_.finetune) {
      AXC_EXPECTS(options_.train_x.size() == options_.train_labels.size());
      AXC_EXPECTS(!options_.train_x.empty());
    }
    // The build() functor itself is unhashable, but the weight blob pins
    // the architecture (load_weights() rejects mismatches).  These inputs
    // are owned/immutable, so they hash once here; the caller-owned
    // dataset views are hashed by *content* at fingerprint() time instead
    // (see below).
    detail::fnv1a hash;
    hash.mix(0x6e6e5f616363ULL);  // metric-kind tag
    hash.mix_bytes(options_.trained_weights.data(),
                   options_.trained_weights.size());
    hash.mix(options_.finetune.has_value());
    if (options_.finetune) {
      hash.mix(options_.finetune->epochs);
      hash.mix(options_.finetune->batch_size);
      hash.mix(std::bit_cast<std::uint32_t>(options_.finetune->learning_rate));
      hash.mix(std::bit_cast<std::uint32_t>(options_.finetune->momentum));
      hash.mix(std::bit_cast<std::uint32_t>(options_.finetune->lr_decay));
      hash.mix(options_.finetune->seed);
    }
    options_hash_ = hash.value();
  }

  [[nodiscard]] const std::string& name() const override {
    return options_.name;
  }
  [[nodiscard]] bool higher_is_better() const override { return true; }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    // Datasets are caller-owned views that may be refilled in place
    // between reranks, so the fingerprint folds their *contents* on every
    // call (a few hundred KB of hashing — noise next to one NN scoring).
    detail::fnv1a hash;
    hash.mix(options_hash_);
    const auto mix_tensors = [&hash](std::span<const nn::tensor> tensors) {
      hash.mix(tensors.size());
      for (const nn::tensor& t : tensors) {
        const auto shape = t.shape();
        hash.mix(shape[0]);
        hash.mix(shape[1]);
        hash.mix(shape[2]);
        hash.mix_bytes(t.data().data(), t.data().size() * sizeof(float));
      }
    };
    mix_tensors(options_.calibration);
    mix_tensors(options_.test_x);
    hash.mix_bytes(options_.test_labels.data(),
                   options_.test_labels.size() * sizeof(int));
    if (options_.finetune) {
      mix_tensors(options_.train_x);
      hash.mix_bytes(options_.train_labels.data(),
                     options_.train_labels.size() * sizeof(int));
    }
    return hash.value();
  }

  [[nodiscard]] double score(
      const circuit::netlist&,
      const metrics::compiled_mult_table& table) const override {
    // Fresh clone per evaluation: fine-tuning mutates the float weights,
    // and concurrent candidates must not share any state.
    nn::network net = options_.build();
    std::istringstream blob(options_.trained_weights);
    const bool loaded = net.load_weights(blob);
    AXC_EXPECTS(loaded);  // build() must match the trained architecture
    nn::quantized_network qnet(net, options_.calibration);
    if (options_.finetune) {
      nn::finetune(qnet, options_.train_x, options_.train_labels, table,
                   *options_.finetune);
    }
    return qnet.accuracy(options_.test_x, options_.test_labels, table);
  }

 private:
  nn_accuracy_options options_;
  std::uint64_t options_hash_{0};
};

class gaussian_psnr_metric final : public app_metric {
 public:
  explicit gaussian_psnr_metric(gaussian_psnr_options options)
      : options_(std::move(options)) {
    detail::fnv1a hash;
    hash.mix(options_.image_count);
    hash.mix(options_.image_size);
    hash.mix(std::bit_cast<std::uint64_t>(options_.noise_sigma));
    hash.mix(options_.seed);
    options_hash_ = hash.value();
  }

  [[nodiscard]] const std::string& name() const override {
    return options_.name;
  }
  [[nodiscard]] bool higher_is_better() const override { return true; }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    detail::fnv1a hash;
    hash.mix(0x70736e72ULL);  // metric-kind tag
    hash.mix(options_hash_);
    hash.mix(options_.report_min);
    return hash.value();
  }

  [[nodiscard]] double score(
      const circuit::netlist& nl,
      const metrics::compiled_mult_table& table) const override {
    const auto evaluate = [&]() -> imgproc::filter_quality {
      return imgproc::evaluate_filter_quality(
          table, options_.image_count, options_.image_size,
          options_.noise_sigma, options_.seed);
    };
    const imgproc::filter_quality quality =
        options_.cache ? options_.cache->get(nl, options_hash_, evaluate)
                       : evaluate();
    return options_.report_min ? quality.min_psnr_db : quality.mean_psnr_db;
  }

 private:
  gaussian_psnr_options options_;
  std::uint64_t options_hash_{0};
};

class power_metric final : public app_metric {
 public:
  explicit power_metric(power_metric_options options)
      : options_(std::move(options)) {
    AXC_EXPECTS(options_.library != nullptr);
    AXC_EXPECTS(!options_.distribution.empty());
    // Every option that changes the characterization (everything except
    // report/name) — the cache validation key.
    detail::fnv1a hash;
    hash.mix(options_.mac_acc_width);
    hash.mix(options_.workload_samples);
    hash.mix(options_.workload_seed);
    hash.mix(reinterpret_cast<std::uintptr_t>(options_.library));
    for (std::size_t a = 0; a < options_.distribution.size(); ++a) {
      hash.mix(std::bit_cast<std::uint64_t>(options_.distribution[a]));
    }
    options_hash_ = hash.value();
  }

  [[nodiscard]] const std::string& name() const override {
    return options_.name;
  }
  [[nodiscard]] bool higher_is_better() const override { return false; }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    detail::fnv1a hash;
    hash.mix(0x706f776572ULL);  // metric-kind tag
    hash.mix(options_hash_);
    hash.mix(static_cast<std::uint64_t>(options_.report));
    return hash.value();
  }

  [[nodiscard]] double score(
      const circuit::netlist& nl,
      const metrics::compiled_mult_table& table) const override {
    const auto characterize = [&]() -> design_power {
      return options_.mac_acc_width > 0
                 ? characterize_mac(nl, table.spec(), options_.distribution,
                                    options_.mac_acc_width, *options_.library,
                                    options_.workload_samples,
                                    options_.workload_seed)
                 : characterize_multiplier(nl, table.spec(),
                                           options_.distribution,
                                           *options_.library,
                                           options_.workload_samples,
                                           options_.workload_seed);
    };
    design_power power;
    if (options_.cache) {
      // Mix the (score-time) spec into the validation fingerprint.
      detail::fnv1a hash;
      hash.mix(options_hash_);
      hash.mix(table.spec().width);
      hash.mix(static_cast<std::uint64_t>(table.spec().is_signed));
      power = options_.cache->get(nl, hash.value(), characterize);
    } else {
      power = characterize();
    }
    switch (options_.report) {
      case power_metric_options::quantity::power_uw:
        return power.power_uw;
      case power_metric_options::quantity::pdp_fj:
        return power.pdp_fj;
      case power_metric_options::quantity::area_um2:
        return power.area_um2;
      case power_metric_options::quantity::delay_ps:
        return power.delay_ps;
    }
    return power.power_uw;  // unreachable
  }

 private:
  power_metric_options options_;
  std::uint64_t options_hash_{0};
};

}  // namespace

std::unique_ptr<app_metric> make_nn_accuracy_metric(
    nn_accuracy_options options) {
  return std::make_unique<nn_accuracy_metric>(std::move(options));
}

std::unique_ptr<app_metric> make_gaussian_psnr_metric(
    gaussian_psnr_options options) {
  return std::make_unique<gaussian_psnr_metric>(std::move(options));
}

std::unique_ptr<app_metric> make_power_metric(power_metric_options options) {
  return std::make_unique<power_metric>(std::move(options));
}

rerank_result rerank_front(
    std::vector<app_candidate> candidates,
    std::span<const std::unique_ptr<app_metric>> metrics,
    const rerank_config& rerank) {
  AXC_EXPECTS(!metrics.empty());
  AXC_EXPECTS(rerank.quality_metric < metrics.size());
  AXC_EXPECTS(rerank.cost_metric < metrics.size());

  rerank_result result;
  result.metric_names.reserve(metrics.size());
  for (const auto& metric : metrics) {
    result.metric_names.push_back(metric->name());
  }
  result.designs.reserve(candidates.size());
  for (app_candidate& candidate : candidates) {
    result.designs.push_back(reranked_design{
        std::move(candidate), std::vector<double>(metrics.size(), 0.0)});
  }

  const std::size_t n = result.designs.size();
  thread_pool pool(std::max<std::size_t>(1, rerank.threads));

  // Incremental re-ranking: with a cache attached, replay the scores of
  // (netlist, metric) pairs already evaluated by a previous rerank —
  // bit-identical by the metric determinism contract — and only queue the
  // changed/new pairs.  Keys fold the netlist contents, the metric's
  // option fingerprint and the compile spec; unfingerprinted metrics are
  // always queued.
  struct job_ref {
    std::size_t i, m;
    std::uint64_t key;
    bool cacheable;
  };
  std::vector<job_ref> jobs;
  jobs.reserve(n * metrics.size());
  std::vector<std::optional<std::uint64_t>> metric_fp(metrics.size());
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    metric_fp[m] = metrics[m]->fingerprint();
  }
  std::vector<bool> needs_table(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const circuit::netlist& nl = result.designs[i].candidate.netlist;
    const std::uint64_t nl_hash =
        rerank.cache ? detail::netlist_hash(nl) : 0;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::uint64_t key = 0;
      if (rerank.cache && metric_fp[m].has_value()) {
        detail::fnv1a h;
        h.mix(nl_hash);
        h.mix(*metric_fp[m]);
        h.mix(rerank.spec.width);
        h.mix(static_cast<std::uint64_t>(rerank.spec.is_signed));
        key = h.value();
        if (const std::optional<double> hit = rerank.cache->lookup(key, nl)) {
          result.designs[i].scores[m] = *hit;
          continue;
        }
      }
      jobs.push_back(
          job_ref{i, m, key, rerank.cache && metric_fp[m].has_value()});
      needs_table[i] = true;
    }
  }

  // Compile each member with pending jobs once; all its metrics share the
  // table.  Fully cached candidates skip the compile entirely.
  std::vector<std::optional<metrics::compiled_mult_table>> tables(n);
  std::vector<std::size_t> to_compile;
  to_compile.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (needs_table[i]) to_compile.push_back(i);
  }
  parallel_for(pool, to_compile.size(), [&](std::size_t c) {
    const std::size_t i = to_compile[c];
    tables[i].emplace(result.designs[i].candidate.netlist, rerank.spec);
  });

  // Score the pending (candidate x metric) jobs.  Each job writes its own
  // slot, so the result is bit-identical at any thread count.
  parallel_for(pool, jobs.size(), [&](std::size_t j) {
    const job_ref& job = jobs[j];
    result.designs[job.i].scores[job.m] = metrics[job.m]->score(
        result.designs[job.i].candidate.netlist, *tables[job.i]);
  });

  // Remember the fresh scores for the next rerank (serial: the parallel
  // region above never touches the cache).
  if (rerank.cache) {
    for (const job_ref& job : jobs) {
      if (!job.cacheable) continue;
      rerank.cache->store(job.key, result.designs[job.i].candidate.netlist,
                          result.designs[job.i].scores[job.m]);
    }
  }

  // Application-level front, both axes in minimization form.
  const auto oriented = [&metrics](std::size_t m, double score) {
    return metrics[m]->higher_is_better() ? -score : score;
  };
  pareto_archive archive;
  for (std::size_t i = 0; i < n; ++i) {
    archive.insert(
        pareto_point{oriented(rerank.quality_metric,
                              result.designs[i].scores[rerank.quality_metric]),
                     oriented(rerank.cost_metric,
                              result.designs[i].scores[rerank.cost_metric]),
                     i});
  }
  result.front = archive.points();
  return result;
}

void append_candidates(std::vector<app_candidate>& candidates,
                       std::vector<app_candidate> extra) {
  candidates.reserve(candidates.size() + extra.size());
  for (app_candidate& c : extra) {
    c.index = candidates.size();
    candidates.push_back(std::move(c));
  }
}

std::vector<app_candidate> session_candidates(const search_session& session,
                                              bool front_only,
                                              std::string family) {
  std::vector<app_candidate> out;
  const auto push = [&](std::size_t job_id) {
    std::optional<evolved_design> design = session.design(job_id);
    if (!design) return;  // pending (cancelled / unfinished) job
    out.push_back(app_candidate{job_id, family, design->target, design->wmed,
                                design->area_um2,
                                std::move(design->netlist)});
  };
  if (front_only) {
    for (const pareto_point& p : session.front()) push(p.index);
  } else {
    for (std::size_t id = 0; id < session.total_jobs(); ++id) push(id);
  }
  return out;
}

std::optional<std::vector<app_candidate>> checkpoint_candidates(
    std::span<std::istream* const> streams, const component_handle& component,
    bool front_only, std::string family) {
  std::vector<app_candidate> all;
  pareto_archive merged;
  for (std::istream* is : streams) {
    std::optional<search_session> session =
        search_session::resume(*is, component);
    if (!session) return std::nullopt;  // reason already on stderr
    pareto_archive local;
    for (app_candidate& c : session_candidates(*session, front_only, family)) {
      c.index = all.size();
      if (front_only) local.insert(pareto_point{c.wmed, c.area_um2, c.index});
      all.push_back(std::move(c));
    }
    if (front_only) merged.merge(local);
  }
  if (front_only && streams.size() > 1) {
    // Cross-checkpoint union: a member of one session's front may be
    // dominated by another session's designs.
    std::vector<app_candidate> kept;
    kept.reserve(merged.size());
    for (const pareto_point& p : merged.points()) {
      app_candidate c = std::move(all[p.index]);
      c.index = kept.size();
      kept.push_back(std::move(c));
    }
    return kept;
  }
  return all;
}

std::optional<std::vector<app_candidate>> checkpoint_candidates(
    std::span<const std::string> paths, const component_handle& component,
    bool front_only, std::string family) {
  std::vector<std::ifstream> files;
  files.reserve(paths.size());
  std::vector<std::istream*> streams;
  streams.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream& file = files.emplace_back(path);
    if (!file) {
      std::fprintf(stderr, "checkpoint_candidates: cannot open %s\n",
                   path.c_str());
      return std::nullopt;
    }
    streams.push_back(&file);
  }
  return checkpoint_candidates(std::span<std::istream* const>(streams),
                               component, front_only, std::move(family));
}

}  // namespace axc::core
