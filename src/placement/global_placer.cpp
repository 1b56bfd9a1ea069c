#include "placement/global_placer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>

#include "core/errors.h"
#include "geometry/spatial_hash.h"
#include "placement/multilevel.h"
#include "placement/repulsion_kernel.h"
#include "runtime/thread_pool.h"

namespace qgdp {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Input gate for the solver: a non-finite seed position, size, or
/// frequency — or a degenerate die — would not crash the force loops,
/// it would silently saturate them and converge to garbage. Typed
/// reject instead, before any force is computed.
void validate_placement_inputs(const QuantumNetlist& nl) {
  const Rect die = nl.die();
  if (!std::isfinite(die.lo.x) || !std::isfinite(die.lo.y) || !std::isfinite(die.hi.x) ||
      !std::isfinite(die.hi.y)) {
    throw PipelineError(PipelineError::Kind::kInvalidInput, "GlobalPlacer: non-finite die");
  }
  if (nl.component_count() > 0 && (die.width() <= 0.0 || die.height() <= 0.0)) {
    throw PipelineError(PipelineError::Kind::kInvalidInput,
                        "GlobalPlacer: degenerate die for a non-empty netlist");
  }
  for (const auto& q : nl.qubits()) {
    if (!std::isfinite(q.pos.x) || !std::isfinite(q.pos.y) || !std::isfinite(q.width) ||
        !std::isfinite(q.height) || !std::isfinite(q.frequency)) {
      throw PipelineError(PipelineError::Kind::kInvalidInput,
                          "GlobalPlacer: non-finite qubit state (id " + std::to_string(q.id) +
                              ")");
    }
  }
  for (const auto& b : nl.blocks()) {
    if (!std::isfinite(b.pos.x) || !std::isfinite(b.pos.y) || !std::isfinite(b.size)) {
      throw PipelineError(PipelineError::Kind::kInvalidInput,
                          "GlobalPlacer: non-finite block state (id " + std::to_string(b.id) +
                              ")");
    }
  }
  for (const auto& e : nl.edges()) {
    if (!std::isfinite(e.frequency)) {
      throw PipelineError(PipelineError::Kind::kInvalidInput,
                          "GlobalPlacer: non-finite edge frequency (id " +
                              std::to_string(e.id) + ")");
    }
  }
}

/// Fixed reduction granularity of the integration pass: chunk
/// boundaries are a function of the body count only, never of the
/// thread count, so folding the per-chunk partials in chunk order is
/// bit-identical at any `jobs`.
constexpr std::size_t kReduceChunk = 2048;

/// Step anneals to this fraction of its initial value over one level's
/// budget (mirrors the flat loop's 0.995^220 ≈ 0.33 schedule at any
/// budget length).
constexpr double kStepEndRatio = 0.33;

double decay_for(int budget) {
  return std::pow(kStepEndRatio, 1.0 / static_cast<double>(std::max(1, budget)));
}

int auto_level_count(std::size_t components) {
  if (components < 256) return 1;
  if (components < 4000) return 2;
  if (components < 24000) return 3;
  return 4;
}

/// Refinement budget floor by level size: a small level costs next to
/// nothing per sweep, so it gets a near-full anneal (quality); the
/// floor drops as the level grows and the per-sweep cost takes over
/// (the finest level of a kilo-qubit netlist runs the configured
/// minimum). Piecewise-constant on size, so budgets stay a pure
/// function of (netlist, options).
int refine_floor(std::size_t level_size, const GlobalPlacerOptions& opt) {
  if (level_size < 1024) return std::max(opt.min_refine_iterations, 90);
  if (level_size < 4096) return std::max(opt.min_refine_iterations, 48);
  return opt.min_refine_iterations;
}

/// Seeds each resonator's blocks in the conceptual pseudo-connection
/// arrangement (√n×√n grid, placement/nets.h) around their current
/// centroid, with a small deterministic symmetry-breaking jitter.
/// Freshly partitioned edges stack every block at the edge midpoint;
/// pre-arranging them removes most of the intra-resonator spreading the
/// flat placer spent its early iterations on, which is what lets the
/// refinement sweeps run on a fraction of the flat budget.
void seed_block_arrangements(QuantumNetlist& nl, unsigned seed, const Rect& die) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.25, 0.25);
  for (const auto& e : nl.edges()) {
    const int n = e.block_count();
    if (n == 0) continue;
    Point c{};
    for (const int b : e.blocks) c += nl.block(b).pos;
    c = c / static_cast<double>(n);
    const int cols = pseudo_grid_cols(n);
    const int rows = (n + cols - 1) / cols;
    for (int k = 0; k < n; ++k) {
      WireBlock& blk = nl.block(e.blocks[static_cast<std::size_t>(k)]);
      Point p = c +
                Point{static_cast<double>(k % cols) - (cols - 1) * 0.5,
                      static_cast<double>(k / cols) - (rows - 1) * 0.5} +
                Point{noise(rng), noise(rng)};
      const double h = blk.size / 2.0;
      p.x = die.lo.x + h > die.hi.x - h ? (die.lo.x + die.hi.x) / 2.0
                                        : std::clamp(p.x, die.lo.x + h, die.hi.x - h);
      p.y = die.lo.y + h > die.hi.y - h ? (die.lo.y + die.hi.y) / 2.0
                                        : std::clamp(p.y, die.lo.y + h, die.hi.y - h);
      blk.pos = p;
    }
  }
}

/// Refinement sweeps run a fraction of a full placement's iterations,
/// so their repulsive fields push harder to land at the flat loop's
/// residual-overlap equilibrium in the shorter budget. The contact
/// push takes the full factor; the frequency field a gentler one —
/// pushing it as hard measurably splits resonator clusters (more
/// crossings), pushing it less leaves more frequency hotspots. These
/// two factors are the calibrated balance point on the paper metrics.
constexpr double kRefineContactBoost = 2.0;
constexpr double kRefineFreqBoost = 1.2;

struct LevelSchedule {
  int budget{0};
  double step0{1.0};
  double decay{1.0};
  bool boost{false};  ///< refinement sweep: boosted repulsive fields
};

/// One level's force loop. All three passes are deterministic-parallel
/// in an owner-computes layout:
///   * attraction — every body gathers its own nets from the CSR
///     incidence in fixed order; writes go to distinct slots, so chunk
///     assignment cannot change the result;
///   * repulsion  — the cell-blocked kernels in
///     placement/repulsion_kernel.h: bodies counting-sorted into
///     contiguous per-cell SoA spans (re-bucketed incrementally as they
///     drift), gathered owner-computes with branchless span loops. A
///     pair's force is evaluated from both sides
///     with exactly antisymmetric arithmetic, which preserves the
///     pair-once physics of the flat loop without any cross-thread
///     reduction;
///   * integration — fixed-size chunks write per-chunk movement
///     partials that are folded serially in chunk order.
int run_level(PlacementLevel& level, const GlobalPlacerOptions& opt, const Rect& die,
              const LevelSchedule& sched, ThreadPool& pool, std::size_t jobs,
              GlobalPlacerStats& stats) {
  const std::size_t n = level.size();
  if (n == 0 || sched.budget <= 0) return 0;

  const double repulsion = (sched.boost ? kRefineContactBoost : 1.0) * opt.repulsion;
  const double freq_repulsion = (sched.boost ? kRefineFreqBoost : 1.0) * opt.freq_repulsion;

  RepulsionKernelOptions kopt;
  kopt.freq_threshold = opt.freq_threshold;
  kopt.freq_radius = opt.freq_radius;
  kopt.with_freq = opt.freq_threshold > 1e-12 && opt.freq_repulsion > 0.0;
  RepulsionKernel kernel(die, n, level.half_w.data(), level.half_h.data(), level.freq.data(),
                         kopt);
  double* X = level.x.data();
  double* Y = level.y.data();

  std::vector<double> fx(n, 0.0), fy(n, 0.0);
  const std::size_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
  std::vector<double> part_sum(chunks, 0.0);

  double step = sched.step0;
  int it = 0;
  for (; it < sched.budget; ++it) {
    // Net attraction (quadratic wirelength gradient).
    auto t0 = std::chrono::steady_clock::now();
    parallel_for(pool, 0, n, jobs, [&](std::size_t i) {
      const double xi = X[i];
      const double yi = Y[i];
      double ax = 0.0, ay = 0.0;
      for (std::size_t k = level.inc_off[i]; k < level.inc_off[i + 1]; ++k) {
        const auto j = static_cast<std::size_t>(level.inc_nbr[k]);
        const double w = level.inc_w[k];
        ax += (X[j] - xi) * w;
        ay += (Y[j] - yi) * w;
      }
      fx[i] = ax * opt.attraction;
      fy[i] = ay * opt.attraction;
    });
    stats.net_ms += ms_since(t0);

    // Overlap + frequency repulsion via the cell-blocked kernels.
    t0 = std::chrono::steady_clock::now();
    kernel.refresh(X, Y);
    kernel.accumulate(X, Y, repulsion, freq_repulsion, fx.data(), fy.data(), pool, jobs);
    stats.repulsion_ms += ms_since(t0);

    // Integrate with clamped step, keep inside the die (Eq. 2).
    t0 = std::chrono::steady_clock::now();
    parallel_for_chunks(pool, n, kReduceChunk, jobs,
                        [&](std::size_t c, std::size_t lo, std::size_t hi) {
      double sum = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const double scale = step / level.mass[i];
        double sx = fx[i] * scale;
        double sy = fy[i] * scale;
        double fn = std::sqrt(sx * sx + sy * sy);
        if (fn > 1.5) {  // trust region
          const double s = 1.5 / fn;
          sx *= s;
          sy *= s;
          fn = 1.5;
        }
        const double lox = die.lo.x + level.half_w[i];
        const double hix = die.hi.x - level.half_w[i];
        const double loy = die.lo.y + level.half_h[i];
        const double hiy = die.hi.y - level.half_h[i];
        X[i] = lox > hix ? (die.lo.x + die.hi.x) / 2.0 : std::clamp(X[i] + sx, lox, hix);
        Y[i] = loy > hiy ? (die.lo.y + die.hi.y) / 2.0 : std::clamp(Y[i] + sy, loy, hiy);
        sum += fn;
      }
      part_sum[c] = sum;
    });
    double movement = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) movement += part_sum[c];
    stats.integrate_ms += ms_since(t0);

    // Divergence watchdog: `movement` folds every per-body step norm,
    // so a single NaN/Inf anywhere in the force state poisons it
    // within one iteration. Abort typed instead of letting a poisoned
    // solve run to completion and emit garbage positions.
    if (!std::isfinite(movement)) {
      throw PipelineError(PipelineError::Kind::kNumericDivergence,
                          "GlobalPlacer: non-finite movement at iteration " +
                              std::to_string(it));
    }

    step *= sched.decay;
    if (movement / static_cast<double>(n) < 1e-4) {  // settled: early exit
      ++it;
      break;
    }
  }
  stats.hash_rebuilds += kernel.stats().flattens;
  stats.bucket_value_refreshes += kernel.stats().value_refreshes;
  stats.rebucketed_bodies += kernel.stats().rebucketed;
  return it;
}

// ---------------------------------------------------------------------
// Retained PR-2 flat single-thread loop (bit-identical to the previous
// implementation): the benchmark baseline `gp_flat_ms` is measured
// against and the reference the multilevel path's quality is gated on.

struct Body {
  NodeRef ref;
  Point pos;
  double half_w{0.5};
  double half_h{0.5};
  double freq{0.0};
};

std::vector<Body> collect_bodies(const QuantumNetlist& nl) {
  std::vector<Body> bodies;
  bodies.reserve(nl.component_count());
  for (const auto& q : nl.qubits()) {
    bodies.push_back({{NodeRef::Kind::kQubit, q.id}, q.pos, q.width / 2, q.height / 2, q.frequency});
  }
  for (const auto& b : nl.blocks()) {
    bodies.push_back({{NodeRef::Kind::kBlock, b.id},
                      b.pos,
                      b.size / 2,
                      b.size / 2,
                      nl.edge(b.edge).frequency});
  }
  return bodies;
}

}  // namespace

GlobalPlacerStats GlobalPlacer::place_flat_baseline(QuantumNetlist& nl) const {
  auto bodies = collect_bodies(nl);
  const auto nets = build_connection_nets(nl, opt_.style);
  const Rect die = nl.die();
  std::mt19937 rng(opt_.seed);
  std::uniform_real_distribution<double> noise(-0.25, 0.25);

  // Small deterministic symmetry-breaking jitter: blocks of one edge
  // start stacked at the same point and need distinct directions.
  for (auto& b : bodies) {
    if (b.ref.kind == NodeRef::Kind::kBlock) {
      b.pos += Point{noise(rng), noise(rng)};
    }
  }

  const double interact_radius =
      std::max({opt_.freq_radius, 4.0});  // covers the largest qubit macro pair
  std::vector<Point> force(bodies.size());
  SpatialHash hash(die.inflated(interact_radius), interact_radius);

  double step = opt_.initial_step;
  int it = 0;
  for (; it < opt_.iterations; ++it) {
    std::fill(force.begin(), force.end(), Point{});

    // Net attraction (quadratic wirelength gradient).
    for (const auto& net : nets) {
      const int ia = body_index(nl, net.a);
      const int ib = body_index(nl, net.b);
      const Point d = bodies[static_cast<std::size_t>(ib)].pos -
                      bodies[static_cast<std::size_t>(ia)].pos;
      const Point f = d * (opt_.attraction * net.weight);
      force[static_cast<std::size_t>(ia)] += f;
      force[static_cast<std::size_t>(ib)] -= f;
    }

    // Overlap + frequency repulsion via spatial hash.
    hash.clear();
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      hash.insert(static_cast<int>(i), bodies[i].pos);
    }
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const Body& a = bodies[i];
      hash.for_each_near(a.pos, [&](int j) {
        if (static_cast<std::size_t>(j) <= i) return;  // each pair once
        const Body& b = bodies[static_cast<std::size_t>(j)];
        const double dx = b.pos.x - a.pos.x;
        const double dy = b.pos.y - a.pos.y;
        const double pen_x = (a.half_w + b.half_w) - std::abs(dx);
        const double pen_y = (a.half_h + b.half_h) - std::abs(dy);
        Point push{};
        if (pen_x > 0 && pen_y > 0) {
          // Separate along the axis of least penetration.
          if (pen_x < pen_y) {
            push.x = (dx >= 0 ? -1.0 : 1.0) * pen_x * opt_.repulsion;
          } else {
            push.y = (dy >= 0 ? -1.0 : 1.0) * pen_y * opt_.repulsion;
          }
        }
        // Frequency-aware repulsion: same-frequency components within
        // the interaction radius push apart radially (QPlacer's
        // charged-particle analogy).
        const double df = std::abs(a.freq - b.freq);
        if (df < opt_.freq_threshold) {
          const double dist2 = dx * dx + dy * dy;
          const double r = opt_.freq_radius;
          if (dist2 < r * r) {
            const double dist = std::sqrt(std::max(dist2, 1e-4));
            const double mag = opt_.freq_repulsion * (1.0 - dist / r);
            push += Point{-dx / dist, -dy / dist} * mag;
          }
        }
        force[i] += push;
        force[static_cast<std::size_t>(j)] -= push;
      });
    }

    // Integrate with clamped step, keep inside the die (Eq. 2).
    double movement = 0.0;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      Point f = force[i] * step;
      const double fn = f.norm();
      if (fn > 1.5) f = f * (1.5 / fn);  // trust region
      bodies[i].pos += f;
      bodies[i].pos.x = std::clamp(bodies[i].pos.x, die.lo.x + bodies[i].half_w,
                                   die.hi.x - bodies[i].half_w);
      bodies[i].pos.y = std::clamp(bodies[i].pos.y, die.lo.y + bodies[i].half_h,
                                   die.hi.y - bodies[i].half_h);
      movement += fn;
    }
    step *= opt_.step_decay;
    if (!std::isfinite(movement)) {
      throw PipelineError(PipelineError::Kind::kNumericDivergence,
                          "GlobalPlacer: non-finite movement at iteration " +
                              std::to_string(it));
    }
    if (movement / static_cast<double>(bodies.size()) < 1e-4) break;
  }

  // Write positions back.
  for (const auto& b : bodies) nl.set_position(b.ref, b.pos);

  GlobalPlacerStats stats;
  stats.iterations_run = it;
  stats.total_wirelength = total_wirelength(nl, nets);
  stats.overlap_area = total_overlap_area(nl);
  return stats;
}

GlobalPlacerStats GlobalPlacer::place(QuantumNetlist& nl) const {
  validate_placement_inputs(nl);
  if (opt_.flat_baseline) return place_flat_baseline(nl);

  GlobalPlacerStats stats;
  const auto nets = build_connection_nets(nl, opt_.style);
  const Rect die = nl.die();
  if (nl.component_count() == 0) {
    stats.total_wirelength = total_wirelength(nl, nets);
    stats.overlap_area = total_overlap_area(nl);
    return stats;
  }
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::shared();

  // Hierarchy construction (deterministic; no thread interaction).
  const auto t0 = std::chrono::steady_clock::now();
  seed_block_arrangements(nl, opt_.seed, die);
  std::vector<PlacementLevel> levels;
  levels.push_back(make_finest_level(nl, nets));

  int want = opt_.levels;
  if (want <= 0) want = auto_level_count(nl.component_count());
  want = std::min(std::max(want, 1), 4);
  if (static_cast<int>(levels.size()) < want && nl.block_count() > 0) {
    levels.push_back(coarsen_edge_clusters(nl, levels.front()));
  }
  while (static_cast<int>(levels.size()) < want) {
    const PlacementLevel& top = levels.back();
    if (top.size() < 64) break;  // already a trivial problem
    double total_mass = 0.0;
    for (const double m : top.mass) total_mass += m;
    PlacementLevel next = coarsen_matching(top, 4.0 * total_mass / static_cast<double>(top.size()));
    if (next.size() * 10 >= top.size() * 9) break;  // shrank < 10%: stop
    levels.push_back(std::move(next));
  }
  stats.coarsen_ms = ms_since(t0);
  stats.levels_used = static_cast<int>(levels.size());

  // Iteration budgets: full at the coarsest level, shrinking by
  // refine_factor (floored) toward the finest; the refinement step
  // also starts smaller since each finer level is nearly settled.
  const int depth = static_cast<int>(levels.size());
  std::vector<LevelSchedule> sched(levels.size());
  if (depth == 1) {
    sched[0] = {opt_.iterations, opt_.initial_step, decay_for(opt_.iterations)};
  } else {
    int budget = opt_.coarse_iterations;
    double step0 = opt_.initial_step;
    for (int li = depth - 1; li >= 0; --li) {
      const int floor_li = refine_floor(levels[static_cast<std::size_t>(li)].size(), opt_);
      sched[static_cast<std::size_t>(li)] = {std::max(budget, floor_li), step0,
                                             decay_for(std::max(budget, floor_li)),
                                             /*boost=*/li < depth - 1};
      budget = std::max(opt_.min_refine_iterations,
                        static_cast<int>(std::lround(budget * opt_.refine_factor)));
      step0 *= opt_.refine_step_scale;
    }
  }

  // Coarsest → finest: place, interpolate down, refine.
  for (int li = depth - 1; li >= 0; --li) {
    PlacementLevel& level = levels[static_cast<std::size_t>(li)];
    std::vector<double> x0, y0;
    if (li > 0) {
      x0 = level.x;
      y0 = level.y;
    }
    stats.iterations_run +=
        run_level(level, opt_, die, sched[static_cast<std::size_t>(li)], pool, opt_.jobs, stats);
    if (li > 0) {
      interpolate_to_finer(level, x0, y0, levels[static_cast<std::size_t>(li - 1)]);
    }
  }

  // Write positions back.
  const PlacementLevel& finest = levels.front();
  const int nq = static_cast<int>(nl.qubit_count());
  for (int q = 0; q < nq; ++q) {
    nl.qubit(q).pos = {finest.x[static_cast<std::size_t>(q)], finest.y[static_cast<std::size_t>(q)]};
  }
  for (int b = 0; b < static_cast<int>(nl.block_count()); ++b) {
    nl.block(b).pos = {finest.x[static_cast<std::size_t>(nq + b)],
                       finest.y[static_cast<std::size_t>(nq + b)]};
  }
  stats.total_wirelength = total_wirelength(nl, nets);
  stats.overlap_area = total_overlap_area(nl);
  return stats;
}

double total_overlap_area(const QuantumNetlist& nl) {
  // Exact pairwise overlap via a spatial hash (pairs only counted once).
  std::vector<Rect> rects;
  rects.reserve(nl.component_count());
  for (const auto& q : nl.qubits()) rects.push_back(q.rect());
  for (const auto& b : nl.blocks()) rects.push_back(b.rect());
  if (rects.empty()) return 0.0;

  Rect bb = rects.front();
  for (const auto& r : rects) bb = bb.united(r);
  SpatialHash hash(bb, 4.0);
  for (std::size_t i = 0; i < rects.size(); ++i) hash.insert(static_cast<int>(i), rects[i].center());
  double total = 0.0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    hash.for_each_near(rects[i].center(), [&](int j) {
      if (static_cast<std::size_t>(j) <= i) return;
      const Rect inter = rects[i].intersection(rects[static_cast<std::size_t>(j)]);
      if (!inter.empty()) total += inter.area();
    });
  }
  return total;
}

double total_wirelength(const QuantumNetlist& nl, const std::vector<Net>& nets) {
  double wl = 0.0;
  for (const auto& n : nets) {
    wl += n.weight * manhattan(nl.position_of(n.a), nl.position_of(n.b));
  }
  return wl;
}

}  // namespace qgdp
