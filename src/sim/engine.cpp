#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "baselines/cds22.hpp"
#include "core/rule_k.hpp"
#include "core/verify.hpp"
#include "net/geometric.hpp"
#include "sim/tiled_engine.hpp"

namespace pacds {

void make_interval_pool(int threads, std::optional<ThreadPool>& pool) {
  std::size_t lanes = threads > 0 ? static_cast<std::size_t>(threads) : 1;
  if (threads == 0) {
    lanes = std::max(1u, std::thread::hardware_concurrency());
  }
  if (lanes > 1) pool.emplace(lanes - 1);
}

const std::vector<double>& quantize_key_levels(
    const std::vector<double>& levels, double quantum,
    std::vector<double>& scratch) {
  if (quantum <= 0.0) return levels;
  scratch.resize(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    scratch[i] = std::floor(levels[i] / quantum);
  }
  return scratch;
}

// ---- Shared construction ---------------------------------------------------

std::optional<RadioModel> LifetimeEngine::make_radio(const SimConfig& config) {
  if (config.radio == RadioKind::kUnitDisk) return std::nullopt;
  if (config.link_model != LinkModel::kUnitDisk) {
    throw std::invalid_argument(
        "LifetimeEngine: a non-unit-disk radio composes only with unit-disk "
        "links");
  }
  return RadioModel(config.radio, config.radio_params, config.radius);
}

std::optional<StabilityTracker> LifetimeEngine::make_tracker(
    const SimConfig& config) {
  const bool wants_stability = config.custom_key
                                   ? uses_stability(*config.custom_key)
                                   : uses_stability(config.rule_set);
  if (!wants_stability) return std::nullopt;
  return StabilityTracker(static_cast<std::size_t>(config.n_hosts),
                          config.stability_beta, config.stability_quantum);
}

namespace {

/// The rebuilding engines' link graph: radio-vetoed unit disk, or the
/// configured link model.
Graph rebuild_links(const SimConfig& config,
                    const std::optional<RadioModel>& radio,
                    const std::vector<Vec2>& positions) {
  return radio ? build_radio_links(positions, config.radius, *radio)
               : build_links(positions, config.radius, config.link_model);
}

}  // namespace

// ---- FullRebuildEngine -----------------------------------------------------

FullRebuildEngine::FullRebuildEngine(const SimConfig& config)
    : config_(config),
      radio_(make_radio(config)),
      tracker_(make_tracker(config)) {
  make_interval_pool(config_.threads, pool_);
}

void FullRebuildEngine::update(const std::vector<Vec2>& positions,
                               const std::vector<double>& levels) {
  with_pool_accounting(pool_, [&] {
    Graph links = [&] {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
      return rebuild_links(config_, radio_, positions);
    }();
    if (tracker_) {
      // Every pair whose row entry changed since last interval, once (from
      // its smaller endpoint): the same delta the link maintainer hands the
      // incremental engines, so the EWMA streams (and hence the SEL keys)
      // agree bit-for-bit across engines.
      churn_.clear();
      if (graph_) {
        const auto n = static_cast<NodeId>(positions.size());
        for (NodeId v = 0; v < n; ++v) {
          diff_sorted_rows(
              graph_->neighbors(v), links.neighbors(v),
              [&](NodeId u) {
                if (v < u) churn_.removed.emplace_back(v, u);
              },
              [&](NodeId u) {
                if (v < u) churn_.added.emplace_back(v, u);
              });
        }
      }
      tracker_->commit_delta(churn_);
    }
    graph_ = std::move(links);
    const Graph& g = *graph_;
    const auto& keys =
        quantize_key_levels(levels, config_.energy_key_quantum, key_scratch_);
    const std::vector<double> no_stability;
    const std::vector<double>& stability =
        tracker_ ? tracker_->stability() : no_stability;
    const ExecContext ctx{pool_ ? &*pool_ : nullptr, &workspace_, metrics_};
    if (config_.custom_key && config_.use_rule_k) {
      cds_ = compute_cds_rule_k(g, *config_.custom_key, keys,
                                config_.cds_options.strategy,
                                config_.cds_options.clique_policy, ctx,
                                stability);
      if (metrics_ != nullptr) {
        metrics_->add(obs::Counter::kFullRefreshes);
        metrics_->add(obs::Counter::kNodesTouched,
                      static_cast<std::uint64_t>(g.num_nodes()));
      }
    } else if (config_.custom_key) {
      RuleConfig rule_config;
      rule_config.rule2_form = config_.custom_rule2_form;
      rule_config.strategy = config_.cds_options.strategy;
      cds_ = compute_cds_custom(g, *config_.custom_key, rule_config, keys,
                                config_.cds_options.clique_policy, ctx,
                                stability);
    } else {
      cds_ = compute_cds(g, config_.rule_set, keys, config_.cds_options, ctx,
                         stability);
    }
  });
}

std::size_t FullRebuildEngine::last_touched() const {
  return cds_.gateways.size();
}

// ---- IncrementalEngine -----------------------------------------------------

IncrementalEngine::IncrementalEngine(const SimConfig& config)
    : config_(config),
      links_(config.radius, make_radio(config)),
      tracker_(make_tracker(config)) {
  if (!incremental_engine_eligible(config_)) {
    throw std::invalid_argument(
        "IncrementalEngine: configuration not eligible (needs simultaneous "
        "strategy, no custom key, unit-disk links)");
  }
  make_interval_pool(config_.threads, pool_);
}

void IncrementalEngine::update(const std::vector<Vec2>& positions,
                               const std::vector<double>& levels) {
  with_pool_accounting(pool_, [&] {
    const auto& keys =
        quantize_key_levels(levels, config_.energy_key_quantum, key_scratch_);
    if (!cds_) {
      Graph links = [&] {
        const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
        return links_.build(positions);
      }();
      // The first interval has no link history: commit once on zero counts
      // so the EWMA cadence matches the full-rebuild engine's (one commit
      // per update), leaving every host maximally stable.
      if (tracker_) tracker_->commit();
      cds_.emplace(
          std::move(links), config_.rule_set,
          uses_energy(config_.rule_set) ? keys : std::vector<double>{},
          config_.cds_options,
          ExecContext{pool_ ? &*pool_ : nullptr, &workspace_, metrics_},
          tracker_ ? tracker_->stability() : std::vector<double>{});
      return;
    }
    const EdgeDelta& delta = [&]() -> const EdgeDelta& {
      const obs::PhaseTimer timer(metrics_, obs::Phase::kDeltaExtract);
      return links_.diff(positions, cds_->graph());
    }();
    if (metrics_ != nullptr) {
      metrics_->add(obs::Counter::kEdgesAdded, delta.added.size());
      metrics_->add(obs::Counter::kEdgesRemoved, delta.removed.size());
    }
    if (tracker_) {
      tracker_->commit_delta(delta);
      cds_->advance(delta, keys, tracker_->stability());
    } else {
      cds_->advance(delta, keys);
    }
  });
}

// ---- Cds22Engine -----------------------------------------------------------

Cds22Engine::Cds22Engine(const SimConfig& config)
    : config_(config), radio_(make_radio(config)) {}

void Cds22Engine::update(const std::vector<Vec2>& positions,
                         const std::vector<double>& /*levels*/) {
  {
    const obs::PhaseTimer timer(metrics_, obs::Phase::kLinkBuild);
    graph_ = rebuild_links(config_, radio_, positions);
  }
  // Keep the cached backbone while it still verifies as a plain CDS of the
  // current links. Deliberately *not* check_cds22: after a member crash the
  // survivors are no longer (2,2) but are still a valid CDS — demanding the
  // full property back would force exactly the repair round the (2,2)
  // backbone exists to avoid.
  if (have_backbone_ && check_cds(*graph_, backbone_).ok()) {
    last_recomputed_ = false;
    return;
  }
  const Cds22Result result = greedy_cds22(*graph_);
  backbone_ = result.backbone;
  full_22_ = result.full_22;
  have_backbone_ = true;
  last_recomputed_ = true;
  if (metrics_ != nullptr) {
    metrics_->add(obs::Counter::kFullRefreshes);
    metrics_->add(obs::Counter::kNodesTouched,
                  static_cast<std::uint64_t>(graph_->num_nodes()));
  }
}

std::size_t Cds22Engine::last_touched() const {
  return last_recomputed_ && graph_ ? graph_->num_nodes() : 0;
}

// ---- Selection -------------------------------------------------------------

bool incremental_engine_eligible(const SimConfig& config) {
  return config.cds_options.strategy == Strategy::kSimultaneous &&
         !config.custom_key.has_value() &&
         config.link_model == LinkModel::kUnitDisk &&
         config.backbone == BackboneMode::kScheme;
}

std::unique_ptr<LifetimeEngine> make_lifetime_engine(const SimConfig& config) {
  if (config.backbone == BackboneMode::kCds22) {
    if (config.engine == SimEngine::kIncremental ||
        config.engine == SimEngine::kTiled) {
      throw std::invalid_argument(
          "make_lifetime_engine: the cds22 backbone has no incremental or "
          "tiled form (use engine auto or full)");
    }
    return std::make_unique<Cds22Engine>(config);
  }
  switch (config.engine) {
    case SimEngine::kFullRebuild:
      return std::make_unique<FullRebuildEngine>(config);
    case SimEngine::kIncremental:
      return std::make_unique<IncrementalEngine>(config);  // throws if unfit
    case SimEngine::kTiled:
      return std::make_unique<TiledEngine>(config);  // throws if unfit
    case SimEngine::kAuto:
      break;
  }
  if (incremental_engine_eligible(config)) {
    return std::make_unique<IncrementalEngine>(config);
  }
  return std::make_unique<FullRebuildEngine>(config);
}

std::string resolved_engine_name(const SimConfig& config) {
  if (config.backbone == BackboneMode::kCds22) return "cds22";
  switch (config.engine) {
    case SimEngine::kFullRebuild:
      return "full-rebuild";
    case SimEngine::kIncremental:
      return "incremental";
    case SimEngine::kTiled:
      return "tiled";
    case SimEngine::kAuto:
      break;
  }
  return incremental_engine_eligible(config) ? "incremental" : "full-rebuild";
}

}  // namespace pacds
