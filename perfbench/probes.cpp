#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "perfbench/trace.h"
#include "src/cdx/cd_extract.h"
#include "src/cdx/contour.h"
#include "src/common/fft.h"
#include "src/geom/polygon_ops.h"
#include "src/litho/batch.h"
#include "src/opc/opc_engine.h"

namespace perfbench {

namespace {

constexpr std::size_t kProbeWindows = 4;
constexpr std::size_t kStaProbeQueries = 400;
constexpr std::size_t kRounds = 5;

struct ProbeWindow {
  std::size_t instance = 0;
  poc::Rect window;
  std::vector<poc::Polygon> targets;
  std::vector<poc::Rect> drawn;  ///< decomposed, disjoint target rectangles
  std::vector<poc::Rect> mask;   ///< post-OPC mask
  std::vector<const poc::PlacedGate*> gates;
};

std::vector<ProbeWindow> sample_windows(const Args& args, const Setup& setup) {
  const poc::PlacedDesign& d = *setup.design;
  const std::size_t n = d.layout.num_instances();
  std::map<std::size_t, std::vector<const poc::PlacedGate*>> gates;
  for (poc::GateIdx g = 0; g < d.gate_to_instance.size(); ++g) {
    for (const poc::PlacedGate* pg : d.gates_of(g)) {
      gates[d.gate_to_instance[g]].push_back(pg);
    }
  }
  Stream rng(args.seed ^ 0x70b35ULL);
  std::set<std::size_t> picked;
  std::vector<ProbeWindow> out;
  const std::size_t want = std::min(args.short_mode ? 2 : kProbeWindows, n);
  for (std::size_t tries = 0; out.size() < want && tries < 64 * want; ++tries) {
    const std::size_t i = static_cast<std::size_t>(rng.below(n));
    if (!picked.insert(i).second || gates[i].empty()) continue;
    ProbeWindow w;
    w.instance = i;
    const poc::Instance& inst = d.layout.instance(i);
    w.window = inst.transform.apply(d.layout.cell(inst.cell).boundary)
                   .inflated(setup.options.ambit_nm);
    w.targets = d.layout.flatten_layer_polys(w.window, poc::Layer::kPoly);
    if (w.targets.empty()) continue;
    std::vector<poc::Rect> rects;
    for (const poc::Polygon& p : w.targets) {
      for (const poc::Rect& r : poc::decompose(p)) rects.push_back(r);
    }
    w.drawn = poc::disjoint_union(rects);
    w.gates = gates[i];
    out.push_back(std::move(w));
  }
  return out;
}

/// Band half-width the imaging code keeps for this grid: the coherent
/// cutoff NA (1 + sigma) / lambda, in frequency steps of 1 / (nx pixel).
std::size_t band_kx_max(const poc::OpticalSettings& opt, const poc::Image2D& img) {
  const double f = opt.cutoff_freq() * (1.0 + opt.sigma_outer);
  const auto k = static_cast<std::size_t>(
      std::ceil(f * static_cast<double>(img.nx()) * img.pixel()));
  return std::min(k, (img.nx() - 1) / 2);
}

}  // namespace

void run_window_probes(const Args& args, const Setup& setup,
                       const poc::PostOpcFlow* post_opc, bool kernel_build,
                       Metrics& m, Tally& tally) {
  const poc::FlowOptions& o = setup.options;
  poc::LithoSimulator sim;
  sim.set_imaging(o.imaging);
  std::vector<ProbeWindow> windows = sample_windows(args, setup);
  const poc::Exposure nominal;
  const poc::LithoQuality quality = o.extract_quality;

  if (kernel_build) {
    Span s("litho.kernel_build");
    const auto t0 = std::chrono::steady_clock::now();
    for (const ProbeWindow& w : windows) {
      sim.latent(w.drawn, w.window, nominal, o.opc.sim_quality);
      sim.latent(w.drawn, w.window, nominal, o.opc.final_quality);
    }
    m["litho.kernel_build_s"] = {
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        "s"};
  }

  std::vector<double> decompose_s, union_s;
  {
    Span s("geom.probe");
    for (const ProbeWindow& w : windows) {
      std::vector<poc::Rect> rects;
      decompose_s.push_back(seconds_per_call([&] {
        for (const poc::Polygon& p : w.targets) poc::decompose(p);
      }, kRounds, 20) / static_cast<double>(w.targets.size()));
      for (const poc::Polygon& p : w.targets) {
        for (const poc::Rect& r : poc::decompose(p)) rects.push_back(r);
      }
      union_s.push_back(
          seconds_per_call([&] { poc::disjoint_union(rects); }, kRounds, 20));
    }
  }
  m["geom.decompose_us"] = {median(decompose_s) * 1e6, "us"};
  m["geom.disjoint_union_us"] = {median(union_s) * 1e6, "us"};

  {
    Span s("opc.correct_batch");
    std::vector<poc::OpcBatchJob> jobs;
    for (const ProbeWindow& w : windows) jobs.push_back({&w.targets, w.window});
    const poc::OpcEngine engine(sim, o.opc);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<poc::OpcResult> results =
        engine.correct_batch(jobs.data(), jobs.size(), nominal,
                             poc::tls_scratch_arena());
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    m["opc.correct_batch_ms"] = {t * 1e3 / static_cast<double>(jobs.size()), "ms"};
    double iterations = 0.0, fragments = 0.0;
    for (std::size_t j = 0; j < results.size(); ++j) {
      iterations += static_cast<double>(results[j].iterations);
      fragments += static_cast<double>(results[j].fragments.size());
      windows[j].mask = results[j].mask_rects();
      if (post_opc != nullptr) {
        tally.attempt();
        if (post_opc->mask_for_instance(windows[j].instance) != windows[j].mask) {
          tally.fail("probe OPC mask of instance " +
                     std::to_string(windows[j].instance) +
                     " differs from the flow's");
        }
        windows[j].mask = post_opc->mask_for_instance(windows[j].instance);
      }
    }
    m["opc.iterations"] = {iterations, "count"};
    m["opc.fragments"] = {fragments, "count"};
  }

  std::vector<double> raster_s, latent_s, fft_s, rfft_s, cd_s, crossing_s;
  std::vector<poc::Image2D> rasters;
  {
    Span s("litho.probe");
    for (const ProbeWindow& w : windows) {
      raster_s.push_back(seconds_per_call(
          [&] { sim.rasterize(w.mask, w.window, quality); }, kRounds));
      latent_s.push_back(seconds_per_call(
          [&] { sim.latent(w.mask, w.window, nominal, quality); }, 3));
      rasters.push_back(sim.rasterize(w.mask, w.window, quality));
    }
  }
  m["litho.rasterize_us"] = {median(raster_s) * 1e6, "us"};
  m["litho.latent_us"] = {median(latent_s) * 1e6, "us"};

  std::vector<double> batch_s;
  {
    Span s("litho.latent_batch");
    std::vector<char> grouped(rasters.size(), 0);
    for (std::size_t i = 0; i < rasters.size(); ++i) {
      if (grouped[i]) continue;
      std::vector<const poc::Image2D*> group;
      for (std::size_t j = i; j < rasters.size(); ++j) {
        if (!grouped[j] && rasters[j].nx() == rasters[i].nx() &&
            rasters[j].ny() == rasters[i].ny()) {
          group.push_back(&rasters[j]);
          grouped[j] = 1;
        }
      }
      poc::ScratchArena& arena = poc::tls_scratch_arena();
      batch_s.push_back(seconds_per_call([&] {
        sim.latent_batch(group.data(), group.size(), nominal, quality, arena);
      }, 3) / static_cast<double>(group.size()));
    }
  }
  m["litho.latent_batch_us"] = {median(batch_s) * 1e6, "us"};

  {
    Span s("common.fft_probe");
    for (const poc::Image2D& img : rasters) {
      std::vector<poc::Cplx> data(img.data().begin(), img.data().end());
      // Forward then inverse, so repeated calls stay on the same values.
      fft_s.push_back(seconds_per_call([&] {
        poc::fft_2d(data, img.nx(), img.ny(), false);
        poc::fft_2d(data, img.nx(), img.ny(), true);
      }, kRounds) / 2.0);
      const std::size_t kx_max = band_kx_max(sim.optics(), img);
      rfft_s.push_back(seconds_per_call([&] {
        poc::rfft_2d_band(img.data(), img.nx(), img.ny(), kx_max);
      }, kRounds));
    }
  }
  m["common.fft_2d_us"] = {median(fft_s) * 1e6, "us"};
  m["common.rfft_2d_band_us"] = {median(rfft_s) * 1e6, "us"};

  {
    Span s("cdx.probe");
    for (const ProbeWindow& w : windows) {
      const poc::Image2D latent = sim.latent(w.mask, w.window, nominal, quality);
      const double threshold = sim.print_threshold();
      for (const poc::PlacedGate* pg : w.gates) {
        cd_s.push_back(seconds_per_call([&] {
          poc::extract_gate_cd(latent, threshold, pg->region, pg->vertical_poly,
                               o.cdx);
        }, kRounds, 10));
        // One edge search across the channel, from its centre outwards.
        const double cx = 0.5 * static_cast<double>(pg->region.xlo + pg->region.xhi);
        const double cy = 0.5 * static_cast<double>(pg->region.ylo + pg->region.yhi);
        const double reach = 3.0 * static_cast<double>(
            pg->vertical_poly ? pg->region.width() : pg->region.height());
        const poc::ContourPoint p0{cx, cy};
        const poc::ContourPoint p1 = pg->vertical_poly
                                         ? poc::ContourPoint{cx + reach, cy}
                                         : poc::ContourPoint{cx, cy + reach};
        crossing_s.push_back(seconds_per_call([&] {
          poc::first_crossing(latent, threshold, p0, p1, 1.0);
        }, kRounds, 200));
      }
    }
  }
  m["cdx.extract_gate_cd_us"] = {median(cd_s) * 1e6, "us"};
  m["cdx.first_crossing_ns"] = {median(crossing_s) * 1e9, "ns"};
}

void run_sta_probes(const Args& args, const Setup& setup,
                    const poc::PostOpcFlow* flow, Metrics& m, Tally& tally) {
  std::unique_ptr<poc::PostOpcFlow> own;
  if (flow == nullptr) {
    own = std::make_unique<poc::PostOpcFlow>(*setup.design, library(args),
                                             poc::LithoSimulator{},
                                             setup.options);
    flow = own.get();
  }
  Span s("sta.probe");
  poc::TimingService service = flow->make_timing_service();
  Stream rng(args.seed ^ 0x57a9ULL);
  std::vector<double> kind_s[4], evals;
  const std::size_t n = args.short_mode ? 40 : kStaProbeQueries;
  for (std::size_t q = 0; q < n; ++q) {
    double latency = 0.0;
    std::size_t arrival_evals = 0;
    const int kind = timing_query(service, setup.design->netlist, rng, latency,
                                  arrival_evals, tally);
    kind_s[kind].push_back(latency);
    if (kind == 0) evals.push_back(static_cast<double>(arrival_evals));
  }
  for (int k = 0; k < 4; ++k) {
    m[std::string("sta.") + kQueryNames[k] + "_us"] = {median(kind_s[k]) * 1e6,
                                                      "us"};
  }
  m["sta.arrival_evals"] = {median(evals), "count"};
  m["sta.full_ms"] = {
      seconds_per_call([&] { flow->run_sta(nullptr); }, 3) * 1e3, "ms"};
}

}  // namespace perfbench
