#include "src/opc/opc_engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/cdx/contour.h"
#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/geom/polygon_ops.h"
#include "src/opc/sraf.h"

namespace poc {

std::vector<Rect> OpcResult::mask_rects() const {
  std::vector<Rect> rects;
  for (const Polygon& p : corrected) {
    for (const Rect& r : decompose(p)) rects.push_back(r);
  }
  rects.insert(rects.end(), srafs.begin(), srafs.end());
  return disjoint_union(rects);
}

void OpcEngine::measure_epe(std::vector<Fragment>& fragments,
                            const std::vector<Rect>& mask_rects,
                            const Rect& window, const Exposure& exposure,
                            LithoQuality quality,
                            std::optional<ImagingMode> mode) const {
  const Image2D latent =
      sim_->latent(mask_rects, window, exposure, quality, mode);
  probe_epe_on(latent, fragments);
}

void OpcEngine::probe_epe_on(const Image2D& latent,
                             std::vector<Fragment>& fragments) const {
  const double th = sim_->print_threshold();
  const double step = latent.pixel() / 2.0;
  for (Fragment& f : fragments) {
    if (f.frozen) {
      f.epe_nm = 0.0;
      continue;
    }
    const Point n = dir_vec(f.outward);
    const ContourPoint inside{
        static_cast<double>(f.ctrl.x) - n.x * options_.probe_inside_nm,
        static_cast<double>(f.ctrl.y) - n.y * options_.probe_inside_nm};
    const ContourPoint outside{
        static_cast<double>(f.ctrl.x) + n.x * options_.probe_outside_nm,
        static_cast<double>(f.ctrl.y) + n.y * options_.probe_outside_nm};
    // The feature prints where latent < threshold; walking inside -> outside
    // the first crossing is the printed edge.
    if (latent.sample(inside.x, inside.y) >= th) {
      // Feature missing under the probe: saturated negative EPE (the printed
      // edge has retreated past the probe start).
      f.epe_nm = -options_.probe_inside_nm;
      continue;
    }
    const auto hit = first_crossing(latent, th, inside, outside, step);
    if (!hit) {
      // No edge found before the probe end: printed far too wide.
      f.epe_nm = options_.probe_outside_nm;
      continue;
    }
    // Distance from probe start to the target edge is probe_inside_nm, so
    // the signed EPE (printed minus target, + = outside) is:
    f.epe_nm = *hit - options_.probe_inside_nm;
  }
}

namespace {

// Per-phase imaging engine: draft iterations may run the SOCS fast path
// while sign-off iterations stay on the reference engine.
std::optional<ImagingMode> imaging_override(OpcImaging oi) {
  switch (oi) {
    case OpcImaging::kAbbe: return ImagingMode::kAbbe;
    case OpcImaging::kSocs: return ImagingMode::kSocs;
    case OpcImaging::kFollowSimulator: break;
  }
  return std::nullopt;
}

/// Moves a correction computed in the window-local frame back to the
/// caller's frame.  Integer translation is exact: only coordinates change.
void translate_result(OpcResult& result, Point v) {
  for (Polygon& p : result.corrected) p = p.translated(v);
  for (Rect& r : result.srafs) r = r.translated(v);
  for (Fragment& f : result.fragments) f.ctrl = f.ctrl + v;
}

}  // namespace

OpcResult OpcEngine::init_correction(const std::vector<Polygon>& targets,
                                     const Rect& window) const {
  POC_EXPECTS(!targets.empty());
  // Injection point for the fault harness (default-off): a window-level
  // convergence stall, raised before any iteration work.
  fault::maybe_throw(fault::Kind::kConvergenceStall);
  OpcResult result;
  result.fragments = fragment_polygons(targets, options_.fragmentation);
  // Halo: geometry near the tile boundary is context, not correction work.
  freeze_outside_window(result.fragments, window,
                        static_cast<DbUnit>(options_.probe_outside_nm) + 60);
  if (options_.insert_srafs) {
    result.srafs = insert_srafs(targets, window);
  }
  return result;
}

bool OpcEngine::update_after_measure(OpcResult& result, LithoQuality& quality,
                                     std::size_t iter) const {
  double max_abs = 0.0, sum_sq = 0.0;
  double body_max = 0.0, body_sum_sq = 0.0;
  std::size_t body_n = 0, live_n = 0;
  for (const Fragment& f : result.fragments) {
    if (f.frozen) continue;
    max_abs = std::max(max_abs, std::abs(f.epe_nm));
    sum_sq += f.epe_nm * f.epe_nm;
    ++live_n;
    if (!f.at_corner) {
      body_max = std::max(body_max, std::abs(f.epe_nm));
      body_sum_sq += f.epe_nm * f.epe_nm;
      ++body_n;
    }
  }
  result.max_abs_epe_nm = max_abs;
  result.rms_epe_nm =
      live_n ? std::sqrt(sum_sq / static_cast<double>(live_n)) : 0.0;
  result.max_abs_epe_body_nm = body_max;
  result.rms_epe_body_nm =
      body_n ? std::sqrt(body_sum_sq / static_cast<double>(body_n)) : 0.0;
  result.max_epe_history.push_back(body_max);
  result.rms_epe_history.push_back(result.rms_epe_body_nm);
  result.iterations = iter + 1;
  // Converged only counts at the sign-off quality, judged on edge bodies.
  if (quality == options_.final_quality &&
      body_max < options_.epe_tolerance_nm) {
    return true;
  }
  if (iter + 1 == options_.max_iterations) return true;
  // Coarse-to-fine handoff: once the draft model is nearly converged (or
  // the budget reserved for fine iterations is reached), switch to the
  // quality the sign-off extraction will use.
  if (quality != options_.final_quality &&
      (body_max < options_.handoff_epe_nm ||
       iter + options_.final_iterations + 1 >= options_.max_iterations)) {
    quality = options_.final_quality;
  }

  for (Fragment& f : result.fragments) {
    if (f.frozen) continue;
    const auto move = static_cast<DbUnit>(
        std::llround(-options_.damping * f.epe_nm));
    f.bias = std::clamp<DbUnit>(f.bias + move, options_.min_bias,
                                options_.max_bias);
  }
  return false;
}

void OpcEngine::finish_correction(const OpcResult& result) const {
  // Optional hard abort on non-convergence: a window whose residual EPE
  // still exceeds the threshold after the full budget raises a structured
  // fault rather than handing a silently-bad mask downstream.
  if (options_.abort_epe_nm > 0.0 &&
      result.max_abs_epe_body_nm >= options_.abort_epe_nm) {
    throw FlowException(FlowError{
        FaultCode::kNonConvergence, kNoWindowId, "opc.correct",
        "body EPE " + std::to_string(result.max_abs_epe_body_nm) +
            " nm above abort threshold after " +
            std::to_string(result.iterations) + " iterations"});
  }
  log_debug("OPC window converged: iters=", result.iterations,
            " maxEPE=", result.max_abs_epe_nm, "nm rms=", result.rms_epe_nm,
            "nm frags=", result.fragments.size());
}

OpcResult OpcEngine::correct(const std::vector<Polygon>& targets,
                             const Rect& window,
                             const Exposure& nominal) const {
  // Everything below runs in the window-local frame (origin at the
  // window's lower-left corner): the EPE probes walk double coordinates,
  // so only a frame pinned to the window makes the correction an exact
  // function of the window's local geometry — a translated copy of the
  // same context corrects to the same bits.
  const Point anchor{window.xlo, window.ylo};
  const Point to_local{-anchor.x, -anchor.y};
  const std::vector<Polygon> local = translated(targets, to_local);
  const Rect local_window = window.translated(to_local);
  OpcResult result = init_correction(local, local_window);
  LithoQuality quality = options_.sim_quality;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    result.corrected = apply_fragments(local, result.fragments);
    const OpcImaging phase_imaging = quality == options_.final_quality
                                         ? options_.final_imaging
                                         : options_.sim_imaging;
    measure_epe(result.fragments, result.mask_rects(), local_window, nominal,
                quality, imaging_override(phase_imaging));
    if (update_after_measure(result, quality, iter)) break;
  }
  finish_correction(result);
  translate_result(result, anchor);
  return result;
}

std::vector<OpcResult> OpcEngine::correct_batch(const OpcBatchJob* jobs,
                                                std::size_t count,
                                                const Exposure& nominal,
                                                ScratchArena& arena) const {
  POC_EXPECTS(jobs != nullptr && count >= 1);
  std::vector<OpcResult> results(count);
  std::vector<LithoQuality> quality(count, options_.sim_quality);
  std::vector<char> done(count, 0);
  // Each window runs in its own local frame, exactly as correct() does.
  std::vector<Point> anchors(count);
  std::vector<std::vector<Polygon>> targets(count);
  std::vector<Rect> windows(count);
  for (std::size_t j = 0; j < count; ++j) {
    anchors[j] = Point{jobs[j].window.xlo, jobs[j].window.ylo};
    const Point to_local{-anchors[j].x, -anchors[j].y};
    targets[j] = translated(*jobs[j].targets, to_local);
    windows[j] = jobs[j].window.translated(to_local);
    results[j] = init_correction(targets[j], windows[j]);
  }

  // Lockstep ticks: every still-iterating window runs iteration `iter`
  // together; its latent images are grouped by (quality phase, resolved
  // imaging engine) and each SOCS group goes through one latent_batch call,
  // which batches its same-shape rasters through the SoA engine.  The
  // fragment moves each window makes depend only on its own latents —
  // batching shares transforms, never state — so each window walks exactly
  // its scalar trajectory.
  std::vector<Image2D> masks(count);
  std::vector<Image2D> latents(count);
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    struct GroupKey {
      LithoQuality q;
      bool socs;
      bool operator==(const GroupKey& o) const {
        return q == o.q && socs == o.socs;
      }
    };
    std::vector<GroupKey> keys;
    std::vector<std::vector<std::size_t>> groups;  ///< ascending members
    bool any_active = false;
    for (std::size_t j = 0; j < count; ++j) {
      if (done[j]) continue;
      any_active = true;
      results[j].corrected = apply_fragments(targets[j], results[j].fragments);
      const OpcImaging phase_imaging = quality[j] == options_.final_quality
                                           ? options_.final_imaging
                                           : options_.sim_imaging;
      const std::optional<ImagingMode> mode =
          imaging_override(phase_imaging);
      const ImagingMode resolved = mode ? *mode : sim_->imaging().mode;
      const bool socs = resolved == ImagingMode::kSocs;
      if (socs) {
        masks[j] =
            sim_->rasterize(results[j].mask_rects(), windows[j], quality[j]);
      }
      const GroupKey key{quality[j], socs};
      std::size_t g = 0;
      while (g < keys.size() && !(keys[g] == key)) ++g;
      if (g == keys.size()) {
        keys.push_back(key);
        groups.emplace_back();
      }
      groups[g].push_back(j);
    }
    if (!any_active) break;

    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::vector<std::size_t>& members = groups[g];
      if (keys[g].socs) {
        std::vector<const Image2D*> ptrs;
        ptrs.reserve(members.size());
        for (std::size_t j : members) ptrs.push_back(&masks[j]);
        std::vector<Image2D> batch =
            sim_->latent_batch(ptrs.data(), ptrs.size(), nominal, keys[g].q,
                               arena, ImagingMode::kSocs);
        for (std::size_t m = 0; m < members.size(); ++m) {
          latents[members[m]] = std::move(batch[m]);
        }
      } else {
        // Abbe phases stay on the untouched scalar reference path.
        for (std::size_t j : members) {
          latents[j] = sim_->latent(results[j].mask_rects(), windows[j],
                                    nominal, keys[g].q, ImagingMode::kAbbe);
        }
      }
    }

    for (std::size_t j = 0; j < count; ++j) {
      if (done[j]) continue;
      probe_epe_on(latents[j], results[j].fragments);
      if (update_after_measure(results[j], quality[j], iter)) done[j] = 1;
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    finish_correction(results[j]);
    translate_result(results[j], anchors[j]);
  }
  return results;
}

}  // namespace poc
