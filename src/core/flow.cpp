#include "src/core/flow.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/cache/disk_store.h"
#include "src/cache/fingerprint.h"
#include "src/common/check.h"
#include "src/common/fault.h"
#include "src/common/log.h"
#include "src/common/serialize.h"
#include "src/geom/polygon_ops.h"
#include "src/litho/batch.h"
#include "src/opc/rule_opc.h"
#include "src/par/thread_pool.h"

namespace poc {
namespace {

/// Drive ratios below this are treated as broken devices (pinched gates)
/// rather than fed to the delay scaler as near-zero divisors.
constexpr double kMinDriveRatio = 0.05;

double safe_ratio(double r) { return std::max(r, kMinDriveRatio); }

/// Deterministic OpcStats merge; addition order is fixed by the caller
/// (instance order), which keeps the double sums bit-identical across
/// thread counts.
OpcStats merge_stats(OpcStats acc, const OpcStats& w) {
  acc.windows += w.windows;
  acc.model_based_windows += w.model_based_windows;
  acc.fragments += w.fragments;
  acc.iterations += w.iterations;
  acc.max_abs_epe_nm = std::max(acc.max_abs_epe_nm, w.max_abs_epe_nm);
  acc.rms_epe_sum += w.rms_epe_sum;
  return acc;
}

// Fingerprint feeders for every parameter block that can change a window
// result.  Field order is fixed — it is part of the key.

void hash_optics(FpHasher& h, const OpticalSettings& o) {
  h.f64(o.wavelength_nm)
      .f64(o.na)
      .f64(o.sigma_inner)
      .f64(o.sigma_outer)
      .u64(o.source_rings)
      .u64(o.source_spokes)
      .f64(o.z9_spherical_waves)
      .f64(o.z7_coma_x_waves);
}

void hash_imaging(FpHasher& h, const ImagingOptions& im) {
  h.u64(static_cast<std::uint64_t>(im.mode))
      .u64(im.socs.max_kernels)
      .f64(im.socs.energy_fraction);
}

void hash_sim(FpHasher& h, const LithoSimulator& sim) {
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm).f64(sim.resist().threshold);
}

void hash_exposure(FpHasher& h, const Exposure& e) {
  h.f64(e.focus_nm).f64(e.dose);
}

void hash_opc_options(FpHasher& h, const OpcOptions& o) {
  const FragmentationOptions& f = o.fragmentation;
  h.i64(f.max_fragment_len)
      .i64(f.corner_len)
      .i64(f.min_edge_for_corners)
      .i64(f.line_end_max_len);
  h.u64(o.max_iterations)
      .f64(o.damping)
      .f64(o.epe_tolerance_nm)
      .i64(o.max_bias)
      .i64(o.min_bias)
      .f64(o.probe_inside_nm)
      .f64(o.probe_outside_nm)
      .u64(static_cast<std::uint64_t>(o.sim_quality))
      .u64(static_cast<std::uint64_t>(o.final_quality))
      .f64(o.handoff_epe_nm)
      .u64(o.final_iterations)
      .u64(static_cast<std::uint64_t>(o.sim_imaging))
      .u64(static_cast<std::uint64_t>(o.final_imaging))
      .u64(o.insert_srafs ? 1 : 0)
      .f64(o.abort_epe_nm);
}

void hash_orc_options(FpHasher& h, const OrcOptions& o) {
  h.f64(o.pinch_fraction)
      .f64(o.epe_limit_nm)
      .i64(o.bridge_check_space)
      .u64(o.exclude_corner_fragments ? 1 : 0)
      .u64(static_cast<std::uint64_t>(o.quality));
}

void log_cache(const char* what, const CacheCounters& c) {
  log_info(what, " cache: ", c.hits, " hits / ", c.misses, " misses (",
           c.hit_rate() * 100.0, "% hit rate), ", c.entries, " entries, ",
           c.evictions, " evictions");
}

// Retry-escalation helpers (see RecoveryOptions): sign-off quality instead
// of the nominal setting, and the Abbe reference engine instead of SOCS.

// Escalated retries always jump to the sign-off quality tier.
constexpr LithoQuality kEscalatedQuality = LithoQuality::kFine;

LithoSimulator with_abbe(const LithoSimulator& sim) {
  ImagingOptions im = sim.imaging();
  im.mode = ImagingMode::kAbbe;
  LithoSimulator out = sim;
  out.set_imaging(im);
  return out;
}

// ---- Batched window staging (see "Batched window execution", DESIGN.md) ----
//
// The window pipeline hands parallel_for a chunk equal to the SoA batch
// width, and the worker that owns a chunk of leaders stages it whole at the
// chunk's first index: the phase's stage hook batch-images only the windows
// that would actually compute (no journal record, no cache entry) and parks
// the results in per-index slots for the per-index compute to consume.
// Staged results are bit-identical to the scalar computations they
// replace, so everything downstream — cache insertion order within the
// chunk, journal payloads, containment — is exactly the unbatched loop's.
// Staging is best-effort: any staging failure just clears the slots and
// the per-index compute runs scalar, under its own fault scope.

/// What batch_windows = kBatchWindowsAuto resolves to — and therefore the
/// parallel chunk size of a batching hot loop ("auto = par chunk size").
/// Two full kTileLanes vectors wide: enough to amortize pack/unpack and
/// keep the work-stealing granularity reasonable on small designs.
constexpr std::size_t kAutoBatchWindows = 8;

std::size_t resolved_batch(const ImagingOptions& im) {
  if (im.batch_windows == kBatchWindowsAuto) return kAutoBatchWindows;
  return std::max<std::size_t>(im.batch_windows, 1);
}

/// Batching engages only for the SOCS engine (the Abbe reference never
/// batches) and only without an active fault plan: injected faults are
/// attributed to one (domain, index), which a joint batch computation
/// cannot honor, so the fault harness always sees the scalar loop.
bool batching_enabled(const LithoSimulator& sim) {
  return sim.imaging().batch_windows != 0 &&
         sim.imaging().mode == ImagingMode::kSocs && !fault::enabled();
}

/// Hot-loop chunk size: the batch width when batching, else today's 1.
std::size_t loop_chunk(const LithoSimulator& sim) {
  return batching_enabled(sim) ? resolved_batch(sim.imaging()) : 1;
}

/// OPC window key: the window's local content plus everything the
/// correction depends on.  It keys the OPC cache and the window's
/// single-flight group.
Fingerprint opc_cache_fp(OpcMode mode, const Rect& window,
                         const std::vector<Polygon>& targets,
                         const LithoSimulator& sim,
                         const OpcOptions& opc_options) {
  FpHasher h;
  h.str("opc").u64(static_cast<std::uint64_t>(mode));
  h.i64(window.width()).i64(window.height());
  hash_sim(h, sim);
  hash_opc_options(h, opc_options);
  h.polys(targets, Point{window.xlo, window.ylo});
  return h.digest();
}

/// Latent-image key (see latent_for_window) — ditto for extraction.
Fingerprint latent_window_fp(const LithoSimulator& sim,
                             const std::vector<Rect>& mask,
                             const Rect& window, const Exposure& exposure,
                             LithoQuality quality) {
  const Point anchor{window.xlo, window.ylo};
  FpHasher h;
  h.str("latent");
  hash_optics(h, sim.optics());
  hash_imaging(h, sim.imaging());
  h.f64(sim.resist().diffusion_nm);
  hash_exposure(h, exposure);
  h.u64(static_cast<std::uint64_t>(quality));
  h.i64(window.width()).i64(window.height());
  h.rects(mask, anchor);
  return h.digest();
}

/// Mask rectangles of a polygon set: the drawn (uncorrected) mask of a
/// window's targets — kNone OPC and the degradation fallback when every
/// OPC attempt faulted — and the mask of rule-based corrected polygons.
std::vector<Rect> mask_of(const std::vector<Polygon>& polys) {
  std::vector<Rect> rects;
  for (const Polygon& p : polys) {
    for (const Rect& r : decompose(p)) rects.push_back(r);
  }
  return disjoint_union(rects);
}

/// `img` with its origin moved by (dx, dy): the frame change between a
/// window's local and absolute latent.  Image origins are window corners
/// minus a half-integer centering offset, so the shift is exact.
Image2D rebased(const Image2D& img, double dx, double dy) {
  Image2D out(img.nx(), img.ny(), img.pixel(), img.origin_x() + dx,
              img.origin_y() + dy);
  out.data() = img.data();
  return out;
}

// ---- Single-flight scheduling (see "Content-deduplicated scheduling",
// DESIGN.md) ------------------------------------------------------------------
//
// Window results are exact functions of the window's local content
// (canonical flatten order, window-local OPC/ORC frames, integer
// translation), so loop indices whose content keys match need one
// computation.  The window pipeline builds every index's window content
// and key once, in a pre-pass; equal keys form a group whose lowest index
// — the leader — runs in a first wave.  The other indices — members — run
// the same loop body in a second wave, once every leader is done, and hit
// the entry their leader left in the window cache (translated to their own
// window, as any hit is).  A member whose entry is missing (the leader
// faulted, or the entry was evicted) recomputes, so results never depend
// on the grouping.  Journal records and containment outcomes stay per
// index.

/// One hot-loop index's window content, built once by the pre-pass.
struct WindowWork {
  Rect window;
  std::vector<Polygon> targets;  ///< drawn poly (OPC, scan), canonical order
  /// Local-content key: the window's cache key and its single-flight group.
  /// Unset without a cache or with nothing to compute (no targets,
  /// degraded instance).
  std::optional<Fingerprint> key;
  Fingerprint jfp;  ///< journal record identity (when journaling)
  /// Nothing to stage, compute or journal (extraction: a gate of a
  /// degraded OPC instance).
  bool skip = false;
  Point anchor() const { return {window.xlo, window.ylo}; }
};

/// The grouping of one hot loop's indices.
struct SingleFlight {
  std::vector<std::size_t> leaders;  ///< ascending loop indices
  std::vector<std::size_t> members;  ///< ascending loop indices
};

/// The window pipeline's pre-pass: `build` fills each index's
/// WindowWork (in parallel, one slot per index), then indices with equal
/// keys are grouped, the lowest index leading.  Unkeyed indices lead
/// their own group — without a window cache there are no keys, and the
/// loop runs as one wave of leaders.
SingleFlight plan_windows(
    std::size_t threads, std::vector<WindowWork>& work,
    const std::function<void(std::size_t, WindowWork&)>& build) {
  parallel_for(threads, work.size(), 1,
               [&](std::size_t k) { build(k, work[k]); });
  SingleFlight plan;
  // Dedup follows the batching rule: off under an active fault plan, whose
  // injected faults are attributed to one (domain, index) — a member
  // hitting its leader's entry would hide the injection from the member.
  const bool dedup = !fault::enabled();
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  for (std::size_t k = 0; k < work.size(); ++k) {
    const bool member =
        dedup && work[k].key && !seen.insert(*work[k].key).second;
    (member ? plan.members : plan.leaders).push_back(k);
  }
  return plan;
}

/// Runs `body` over the plan's leaders, then over its members, through
/// parallel_for (fail-fast) or try_parallel_for (containment; escaped
/// errors come back keyed by loop index).  `stage`, when set, is called
/// by the worker owning each leader chunk at the chunk's first position,
/// with the chunk's span of positions in plan.leaders — members hit the
/// cache, so they are never staged.
std::vector<IndexedError> run_single_flight(
    const SingleFlight& plan, bool contain, std::size_t threads,
    std::size_t chunk, const std::function<void(const ChunkSpan&)>& stage,
    const std::function<void(std::size_t)>& body, std::string_view origin,
    const CancelToken* cancel) {
  std::vector<IndexedError> escaped;
  for (const std::vector<std::size_t>* wave : {&plan.leaders, &plan.members}) {
    const std::vector<std::size_t>& order = *wave;
    const bool staging = stage && wave == &plan.leaders;
    const auto at = [&](std::size_t p) {
      if (staging) {
        const ChunkSpan span = chunk_span(order.size(), chunk, p);
        if (span.lo == p) stage(span);
      }
      body(order[p]);
    };
    if (!contain) {
      parallel_for(threads, order.size(), chunk, at, cancel);
      continue;
    }
    for (IndexedError& e :
         try_parallel_for(threads, order.size(), chunk, at, origin, cancel)) {
      e.index = order[e.index];
      e.error.window = e.index;
      escaped.push_back(std::move(e));
    }
  }
  return escaped;
}

/// The per-instance window every OPC and scan index works on.
Rect instance_window(const LayoutDb& layout, std::size_t instance,
                     DbUnit ambit_nm) {
  const Instance& inst = layout.instance(instance);
  return inst.transform.apply(layout.cell(inst.cell).boundary)
      .inflated(ambit_nm);
}

// ---- Run-journal payload codecs --------------------------------------------
//
// Payloads store exactly the bits the hot loops would recompute (integers
// verbatim, doubles as IEEE-754 bit patterns), so a replay is
// indistinguishable from a recompute downstream.  Decoders return false on
// any structural mismatch; the caller then recomputes the window.  The OPC
// payload is the OPC disk-cache entry plus a degraded byte (see the
// disk-tier codecs below).

void encode_rects(ByteWriter& w, const std::vector<Rect>& rects) {
  w.u32(static_cast<std::uint32_t>(rects.size()));
  for (const Rect& r : rects) {
    w.i64(r.xlo);
    w.i64(r.ylo);
    w.i64(r.xhi);
    w.i64(r.yhi);
  }
}

bool decode_rects(ByteReader& r, std::vector<Rect>& rects) {
  const std::uint32_t n = r.u32();
  rects.clear();
  rects.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    Rect rect;
    rect.xlo = r.i64();
    rect.ylo = r.i64();
    rect.xhi = r.i64();
    rect.yhi = r.i64();
    rects.push_back(rect);
  }
  return r.ok();
}

std::vector<std::uint8_t> encode_extract_payload(const GateExtraction& ext) {
  ByteWriter w;
  w.u64(ext.gate);
  w.u32(static_cast<std::uint32_t>(ext.devices.size()));
  for (const DeviceCd& d : ext.devices) {
    w.str(d.device);
    w.u8(d.is_nmos ? 1 : 0);
    w.f64(d.drawn_l_nm);
    w.f64(d.drawn_w_nm);
    w.u32(static_cast<std::uint32_t>(d.profile.slice_cd_nm.size()));
    for (double cd : d.profile.slice_cd_nm) w.f64(cd);
    w.f64(d.profile.slice_width_nm);
    w.f64(d.profile.drawn_cd_nm);
    w.f64(d.eq.width_um);
    w.f64(d.eq.ion_ua);
    w.f64(d.eq.ioff_ua);
    w.f64(d.eq.l_eff_drive_nm);
    w.f64(d.eq.l_eff_leak_nm);
    w.f64(d.eq.l_mean_nm);
    w.u8(d.eq.functional ? 1 : 0);
  }
  return w.take();
}

bool decode_extract_payload(const std::vector<std::uint8_t>& bytes,
                            GateExtraction& ext) {
  ByteReader r(bytes);
  ext.gate = r.u64();
  const std::uint32_t ndev = r.u32();
  ext.devices.clear();
  for (std::uint32_t i = 0; i < ndev && r.ok(); ++i) {
    DeviceCd d;
    d.device = r.str();
    d.is_nmos = r.u8() != 0;
    d.drawn_l_nm = r.f64();
    d.drawn_w_nm = r.f64();
    const std::uint32_t nslices = r.u32();
    for (std::uint32_t s = 0; s < nslices && r.ok(); ++s) {
      d.profile.slice_cd_nm.push_back(r.f64());
    }
    d.profile.slice_width_nm = r.f64();
    d.profile.drawn_cd_nm = r.f64();
    d.eq.width_um = r.f64();
    d.eq.ion_ua = r.f64();
    d.eq.ioff_ua = r.f64();
    d.eq.l_eff_drive_nm = r.f64();
    d.eq.l_eff_leak_nm = r.f64();
    d.eq.l_mean_nm = r.f64();
    d.eq.functional = r.u8() != 0;
    ext.devices.push_back(std::move(d));
  }
  return r.done();
}

std::vector<std::uint8_t> encode_scan_payload(
    const PostOpcFlow::HotspotReport& rep) {
  ByteWriter w;
  w.u64(rep.windows_checked);
  w.u64(rep.pinches);
  w.u64(rep.bridges);
  w.u64(rep.epe_violations);
  w.u32(static_cast<std::uint32_t>(rep.hotspots.size()));
  for (const PostOpcFlow::Hotspot& h : rep.hotspots) {
    w.u64(h.instance);
    w.str(h.exposure_name);
    w.u8(static_cast<std::uint8_t>(h.violation.kind));
    w.i64(h.violation.where.x);
    w.i64(h.violation.where.y);
    w.f64(h.violation.value_nm);
  }
  return w.take();
}

bool decode_scan_payload(const std::vector<std::uint8_t>& bytes,
                         PostOpcFlow::HotspotReport& rep) {
  ByteReader r(bytes);
  rep = {};
  rep.windows_checked = r.u64();
  rep.pinches = r.u64();
  rep.bridges = r.u64();
  rep.epe_violations = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    PostOpcFlow::Hotspot h;
    h.instance = r.u64();
    h.exposure_name = r.str();
    h.violation.kind = static_cast<OrcViolation::Kind>(r.u8());
    h.violation.where.x = r.i64();
    h.violation.where.y = r.i64();
    h.violation.value_nm = r.f64();
    rep.hotspots.push_back(std::move(h));
  }
  return r.done();
}

void hash_mosfet(FpHasher& h, const MosfetParams& p) {
  h.u64(p.is_nmos ? 1 : 0)
      .f64(p.vdd)
      .f64(p.vth_long)
      .f64(p.dvt_rolloff)
      .f64(p.rolloff_lc_nm)
      .f64(p.alpha)
      .f64(p.k_ua_per_um)
      .f64(p.l_ref_nm)
      .f64(p.kv_sat)
      .f64(p.subthreshold_n)
      .f64(p.i0_leak_ua_per_um)
      .f64(p.temp_vt);
}

}  // namespace

/// Containment bookkeeping.  Worker threads only ever touch the sorted
/// degraded-gate set (order-independent); fault entries are appended by the
/// calling thread in window-index order by the window pipeline, so health()
/// is bit-identical at any thread count.
struct PostOpcFlow::HealthState {
  std::mutex mutex;
  std::vector<FlowHealth::WindowFault> faults;
  std::vector<GateIdx> degraded_gates;  ///< sorted, unique
};

struct PostOpcFlow::TimingState {
  std::mutex mutex;
  std::unique_ptr<TimingGraph> graph;  ///< null until first warm re-time
};

/// The three flow-level result caches.  Values are stored in the window's
/// local frame (anchor = window origin subtracted from all coordinates) and
/// translated back on a hit, so one entry serves every placement of the
/// same cell context.  Translation of integer geometry and of half-integer
/// image origins is exact, which keeps hits bit-identical to recomputes.
struct PostOpcFlow::WindowCaches {
  /// ORC report with violation coordinates in the local frame.
  struct OrcEntry {
    OrcReport report;
  };

  ShardedCache<OpcWindowResult> opc;  ///< mask + OPC stats, local frame
  ShardedCache<Image2D> latent;
  ShardedCache<OrcEntry> orc;

  WindowCaches(std::size_t bytes_each, std::size_t shards)
      : opc(bytes_each, shards),
        latent(bytes_each, shards),
        orc(bytes_each, shards) {}
};

namespace {

// ---- Disk-tier codecs ------------------------------------------------------
//
// Same discipline as the journal payload codecs above: integers verbatim,
// doubles as IEEE-754 bit patterns, decoders return null on any structural
// mismatch (the cache then reports a miss and the window recomputes).

std::vector<std::uint8_t> encode_opc_entry(
    const PostOpcFlow::OpcWindowResult& e) {
  ByteWriter w;
  encode_rects(w, e.mask);
  w.u64(e.stats.windows);
  w.u64(e.stats.model_based_windows);
  w.u64(e.stats.fragments);
  w.u64(e.stats.iterations);
  w.f64(e.stats.max_abs_epe_nm);
  w.f64(e.stats.rms_epe_sum);
  return w.take();
}

/// Reads encode_opc_entry's bytes into `e`; they must be all `r` holds.
bool read_opc_entry(ByteReader& r, PostOpcFlow::OpcWindowResult& e) {
  if (!decode_rects(r, e.mask)) return false;
  e.stats.windows = r.u64();
  e.stats.model_based_windows = r.u64();
  e.stats.fragments = r.u64();
  e.stats.iterations = r.u64();
  e.stats.max_abs_epe_nm = r.f64();
  e.stats.rms_epe_sum = r.f64();
  return r.done();
}

std::shared_ptr<PostOpcFlow::OpcWindowResult> decode_opc_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  auto e = std::make_shared<PostOpcFlow::OpcWindowResult>();
  return read_opc_entry(r, *e) ? e : nullptr;
}

/// The OPC journal payload: the window's cache-entry bytes plus a trailing
/// degraded byte.  Decoding reads in place into the window's slot.
std::vector<std::uint8_t> encode_opc_payload(
    const PostOpcFlow::OpcWindowResult& r, bool degraded) {
  std::vector<std::uint8_t> bytes = encode_opc_entry(r);
  bytes.push_back(degraded ? 1 : 0);
  return bytes;
}

bool decode_opc_payload(const std::vector<std::uint8_t>& bytes,
                        PostOpcFlow::OpcWindowResult& r, bool& degraded) {
  if (bytes.empty()) return false;
  ByteReader entry(bytes.data(), bytes.size() - 1);
  degraded = bytes.back() != 0;
  return read_opc_entry(entry, r);
}

std::vector<std::uint8_t> encode_latent_entry(const Image2D& img) {
  ByteWriter w;
  w.u64(img.nx());
  w.u64(img.ny());
  w.f64(img.pixel());
  w.f64(img.origin_x());
  w.f64(img.origin_y());
  for (double v : img.data()) w.f64(v);
  return w.take();
}

std::shared_ptr<Image2D> decode_latent_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint64_t nx = r.u64();
  const std::uint64_t ny = r.u64();
  const double pixel = r.f64();
  const double ox = r.f64();
  const double oy = r.f64();
  if (!r.ok() || nx * ny != r.remaining() / sizeof(double)) return nullptr;
  auto img = std::make_shared<Image2D>(static_cast<std::size_t>(nx),
                                       static_cast<std::size_t>(ny), pixel, ox,
                                       oy);
  for (double& v : img->data()) v = r.f64();
  return r.done() ? img : nullptr;
}

std::vector<std::uint8_t> encode_orc_entry(
    const PostOpcFlow::WindowCaches::OrcEntry& e) {
  ByteWriter w;
  w.f64(e.report.max_abs_epe_nm);
  w.f64(e.report.rms_epe_nm);
  w.u32(static_cast<std::uint32_t>(e.report.violations.size()));
  for (const OrcViolation& v : e.report.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i64(v.where.x);
    w.i64(v.where.y);
    w.f64(v.value_nm);
  }
  return w.take();
}

std::shared_ptr<PostOpcFlow::WindowCaches::OrcEntry> decode_orc_entry(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  auto e = std::make_shared<PostOpcFlow::WindowCaches::OrcEntry>();
  e->report.max_abs_epe_nm = r.f64();
  e->report.rms_epe_nm = r.f64();
  const std::uint32_t n = r.u32();
  e->report.violations.reserve(r.ok() ? n : 0);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    OrcViolation v;
    v.kind = static_cast<OrcViolation::Kind>(r.u8());
    v.where.x = r.i64();
    v.where.y = r.i64();
    v.value_nm = r.f64();
    e->report.violations.push_back(v);
  }
  return r.done() ? e : nullptr;
}

}  // namespace

PostOpcFlow::PostOpcFlow(const PlacedDesign& design, const StdCellLibrary& lib,
                         LithoSimulator sim, FlowOptions options)
    : design_(&design), lib_(&lib), sim_(sim), options_(options) {
  POC_EXPECTS(design.layout.frozen());
  timing_ = std::make_shared<TimingState>();
  // The silicon reference is the OPC model perturbed by the calibration
  // mismatch; with the mismatch disabled they are identical.
  ResistModel silicon_resist = sim.resist();
  if (options_.silicon.enabled) {
    silicon_resist.diffusion_nm += options_.silicon.diffusion_delta_nm;
    silicon_resist.threshold += options_.silicon.threshold_delta;
  }
  // One imaging engine for the whole flow: the OPC model and the silicon
  // reference both honour FlowOptions::imaging (per-phase OpcImaging knobs
  // may still override inside the OPC loop).
  sim_.set_imaging(options_.imaging);
  silicon_sim_ = LithoSimulator(sim.optics(), silicon_resist, options_.imaging);
  if (options_.cache.enabled) {
    caches_ = std::make_shared<WindowCaches>(
        options_.cache.capacity_mb << 20, options_.cache.shards);
    if (!options_.cache.disk_path.empty()) {
      // One store per cache kind, shared across worker processes.  Spill is
      // a pure performance layer: entries round-trip bit-exactly, so a
      // cross-worker hit is indistinguishable from an in-process recompute.
      const std::string& root = options_.cache.disk_path;
      const DiskCacheStore::Options store_options{
          options_.cache.disk_max_bytes};
      caches_->opc.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/opc", store_options),
          encode_opc_entry, decode_opc_entry);
      caches_->latent.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/latent", store_options),
          encode_latent_entry, decode_latent_entry);
      caches_->orc.attach_disk(
          std::make_shared<DiskCacheStore>(root + "/orc", store_options),
          encode_orc_entry, decode_orc_entry);
    }
  }
  health_state_ = std::make_shared<HealthState>();
  if (options_.journal.enabled) {
    try {
      journal_ =
          std::make_shared<RunJournal>(options_.journal, config_fingerprint());
    } catch (...) {
      // A run that cannot journal still runs — undurable, but reported.
      const FlowError err = capture_flow_error(kNoWindowId, "journal.open");
      log_warn("run journal disabled: ", err.to_string());
      FlowHealth::WindowFault f;
      f.phase = "journal";
      f.index = kNoWindowId;
      f.code = err.code;
      f.origin = err.origin;
      f.attempts = 1;
      // Same rule health() applies to append-time issues: losing the
      // journal means losing durability — a degraded mode.
      f.degraded = err.code == FaultCode::kJournalIo;
      health_state_->faults.push_back(std::move(f));
    }
    if (journal_) {
      const RunJournal::Stats js = journal_->stats();
      if (js.loaded_records > 0 || !journal_->issues().empty()) {
        log_info("run journal: replayed ", js.loaded_records,
                 " records from ", options_.journal.path, ", rejected ",
                 js.rejected_records);
      }
      // Replay and append-time issues are surfaced by health(), which reads
      // journal_->issues() live — so an append failure mid-run (ENOSPC)
      // shows up without a second mirroring pass here.
    }
  }
}

const CancelToken* PostOpcFlow::cancel_token() const {
  return options_.cancel != nullptr ? options_.cancel : &global_cancel_token();
}

Fingerprint PostOpcFlow::config_fingerprint() const {
  FpHasher h;
  h.str("poc-run-config-v1");
  hash_sim(h, sim_);
  hash_sim(h, silicon_sim_);
  hash_opc_options(h, options_.opc);
  h.f64(options_.cdx.edge_trim_fraction)
      .u64(options_.cdx.num_slices)
      .f64(options_.cdx.reach_factor);
  h.u64(static_cast<std::uint64_t>(options_.extract_quality));
  h.i64(options_.ambit_nm);
  // Timing knobs do not shape journaled window results, but a record set
  // is only ever resumed into the run that produced it: every option
  // outside the bit-identical performance and durability knobs is part of
  // the run's identity.
  h.f64(options_.sta.clock_period)
      .f64(options_.sta.input_slew)
      .f64(options_.sta.po_load_ff)
      .u64(options_.sta.max_paths)
      .f64(options_.sta.path_window)
      .f64(options_.sta.late_derate);
  h.u64(options_.use_parasitics ? 1 : 0);
  h.u64(options_.seed);
  h.u64(options_.silicon.enabled ? 1 : 0)
      .f64(options_.silicon.diffusion_delta_nm)
      .f64(options_.silicon.threshold_delta)
      .f64(options_.silicon.focus_bias_nm)
      .f64(options_.silicon.dose_scale)
      .f64(options_.silicon.aclv_sigma_nm);
  // Recovery shapes outcomes (retry counts, degradations), so records from
  // a differently-contained run must not replay.  threads and cache/journal
  // knobs are deliberately absent: results are bit-identical across them.
  h.u64(options_.recovery.enabled ? 1 : 0)
      .u64(options_.recovery.max_retries)
      .u64(options_.recovery.escalate_quality ? 1 : 0)
      .u64(options_.recovery.fallback_to_abbe ? 1 : 0);
  // Design identity: placement (cell + transform per instance) and the
  // gate map.  Window geometry itself is hashed per record; this coarse
  // gate catches a swapped design wholesale.
  const LayoutDb& layout = design_->layout;
  h.u64(layout.num_instances());
  for (std::size_t i = 0; i < layout.num_instances(); ++i) {
    const Instance& inst = layout.instance(i);
    h.u64(inst.cell);
    h.u64(static_cast<std::uint64_t>(inst.transform.orient));
    h.i64(inst.transform.offset.x).i64(inst.transform.offset.y);
  }
  h.u64(design_->netlist.num_gates());
  for (const std::size_t inst : design_->gate_to_instance) h.u64(inst);
  // Library characterization feeds the equivalent-gate records.
  const CharParams& cp = lib_->char_params();
  hash_mosfet(h, cp.nmos);
  hash_mosfet(h, cp.pmos);
  h.f64(cp.cgate_ff_per_um).f64(cp.cdiff_ff_per_um);
  return h.digest();
}

RunJournal::Stats PostOpcFlow::journal_stats() const {
  return journal_ ? journal_->stats() : RunJournal::Stats{};
}

std::vector<ReplayIssue> PostOpcFlow::journal_issues() const {
  return journal_ ? journal_->issues() : std::vector<ReplayIssue>{};
}

Fingerprint PostOpcFlow::opc_record_fp(
    std::size_t instance, OpcMode mode, const Rect& window,
    const std::vector<Polygon>& targets) const {
  FpHasher h;
  h.str("jopc").u64(instance).u64(static_cast<std::uint64_t>(mode));
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, sim_);
  hash_opc_options(h, options_.opc);
  h.polys(targets, Point{0, 0});
  return h.digest();
}

Fingerprint PostOpcFlow::extract_record_fp(const LithoSimulator& sim,
                                           const Exposure& exposure,
                                           GateIdx gate) const {
  const std::size_t instance = design_->gate_to_instance[gate];
  const Rect window = design_->litho_window(gate, options_.ambit_nm);
  FpHasher h;
  h.str("jext").u64(gate).u64(instance);
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, sim);
  hash_exposure(h, exposure);
  h.u64(static_cast<std::uint64_t>(options_.extract_quality));
  h.f64(options_.cdx.edge_trim_fraction)
      .u64(options_.cdx.num_slices)
      .f64(options_.cdx.reach_factor);
  // The extraction reads the post-OPC mask, so the record dies with it: a
  // resumed run whose OPC degraded differently can never replay a stale CD.
  h.rects(mask_for_instance(instance), Point{0, 0});
  for (const PlacedGate* pg : design_->gates_of(gate)) {
    h.rect(pg->region, Point{0, 0});
    h.u64(pg->vertical_poly ? 1 : 0);
  }
  return h.digest();
}

Fingerprint PostOpcFlow::scan_record_fp(
    std::size_t instance, const Rect& window,
    const std::vector<Polygon>& targets,
    const std::vector<ProcessCorner>& conditions,
    const OrcOptions& orc_options) const {
  FpHasher h;
  h.str("jscan").u64(instance);
  h.i64(window.xlo).i64(window.ylo).i64(window.xhi).i64(window.yhi);
  hash_sim(h, silicon_sim_);
  hash_sim(h, sim_);
  hash_opc_options(h, options_.opc);
  hash_orc_options(h, orc_options);
  h.polys(targets, Point{0, 0});
  h.rects(mask_for_instance(instance), Point{0, 0});
  h.u64(conditions.size());
  for (const ProcessCorner& c : conditions) {
    h.str(c.name);
    hash_exposure(h, c.exposure);
  }
  return h.digest();
}

FlowHealth PostOpcFlow::health() const {
  FlowHealth h;
  {
    std::lock_guard<std::mutex> lock(health_state_->mutex);
    h.faults = health_state_->faults;
    h.degraded_gates = health_state_->degraded_gates;
  }
  // Journal issues are read live, so an append-time failure (ENOSPC mid-
  // run parking the journal inert) surfaces the same way a replay reject
  // does: one phase-"journal" fault per issue.  kJournalIo means the run
  // lost durability — a degraded mode; kJournalMismatch records were
  // recomputed, which is containment working as designed.
  if (journal_) {
    for (const ReplayIssue& issue : journal_->issues()) {
      FlowHealth::WindowFault f;
      f.phase = "journal";
      f.index = issue.offset;
      f.code = issue.code;
      f.origin = issue.segment;
      f.attempts = 1;
      f.degraded = issue.code == FaultCode::kJournalIo;
      h.faults.push_back(std::move(f));
    }
  }
  // A disk-cache tier that went down after a publish I/O error keeps the
  // run bit-identical (the memory tier serves alone) but is a degraded
  // mode worth one phase-"cache" entry per store, in fixed order.
  if (caches_) {
    const DiskCacheStore* stores[] = {caches_->opc.disk_store(),
                                      caches_->latent.disk_store(),
                                      caches_->orc.disk_store()};
    for (const DiskCacheStore* store : stores) {
      if (store == nullptr || !store->degraded()) continue;
      FlowHealth::WindowFault f;
      f.phase = "cache";
      f.index = kNoWindowId;
      f.code = FaultCode::kCacheIo;
      f.origin = store->dir();
      f.attempts = 1;
      f.degraded = true;
      h.faults.push_back(std::move(f));
    }
  }
  for (const FlowHealth::WindowFault& f : h.faults) {
    if (f.attempts > 1) h.retries += f.attempts - 1;
    if (f.recovered) ++h.recovered_windows;
    if (f.degraded) ++h.degraded_windows;
  }
  return h;
}

void PostOpcFlow::reset_health() const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  health_state_->faults.clear();
  health_state_->degraded_gates.clear();
}

// ---- The window pipeline (see "Window pipeline", DESIGN.md) ---------------
//
// The OPC, extraction and hotspot-scan loops are one driver over three
// phase descriptions, in the shape of the Galois operator/executor split:
// the phase is the operator (what one window computes), the pipeline the
// executor (how windows are scheduled, replayed, retried, degraded and
// reported).  Fail-fast is the same body with one attempt and no degrade.
// Each window's containment outcome is the JournalOutcome its record
// carries, so a replayed window restores it verbatim.

namespace {

/// Records `e` as the window's first fault.
void set_first_error(JournalOutcome& oc, const FlowError& e) {
  oc.faulted = true;
  oc.code = e.code;
  oc.origin = e.origin;
  oc.message = e.message;
}

}  // namespace

/// One hot loop as run_window_pipeline drives it.  Loop index k is a
/// position in `work`; `index[k]` is what the phase reports — instance
/// (opc, scan) or gate (extract) — in fault scopes, journal records and
/// FlowHealth.  Each hook touches only its own loop index's slots (stage:
/// its chunk's), so the pipeline may run it on any worker.
struct PostOpcFlow::WindowPhase {
  WindowPhase(const char* name, JournalPhase journal_phase,
              fault::Domain domain, std::size_t chunk,
              std::vector<std::uint64_t> index)
      : name(name),
        origin(std::string("flow.") + name),
        journal_phase(journal_phase),
        domain(domain),
        chunk(chunk),
        index(std::move(index)),
        work(this->index.size()) {}

  const char* name;    ///< FlowHealth phase: "opc" | "extract" | "scan"
  std::string origin;  ///< capture site of a faulted attempt: "flow.<name>"
  JournalPhase journal_phase;
  fault::Domain domain;
  /// Parallel chunk: the SoA batch width when batching, else 1.
  std::size_t chunk;
  std::vector<std::uint64_t> index;
  std::vector<WindowWork> work;
  /// Pre-pass: fills work[k] — window, targets, content key, journal fp.
  std::function<void(std::size_t, WindowWork&)> build;
  /// Optional batched staging, called once per chunk of leaders by the
  /// worker that owns it, with the chunk's leaders that have no journal
  /// record (ascending).  Best-effort: parks results for compute(k, 0).
  std::function<void(const std::vector<std::size_t>&)> stage;
  /// compute(k, attempt) fills k's result slot.  Attempt 0 runs nominal
  /// settings through the window cache and the staged result; a retry
  /// runs the phase's retry settings with no cache.
  std::function<void(std::size_t, std::size_t)> compute;
  /// Fallback result once every attempt faulted.
  std::function<void(std::size_t)> degrade;
  /// Journal payload of k's result slot, and its inverse (false on a
  /// structural mismatch: the window recomputes).
  std::function<std::vector<std::uint8_t>(std::size_t)> encode;
  std::function<bool(std::size_t, const JournalRecord&)> decode;
};

void PostOpcFlow::run_window_pipeline(WindowPhase& phase) const {
  // Flush on every exit path — including the kCancelled unwind — so a
  // graceful shutdown leaves each drained window durable on disk.
  struct JournalFlusher {
    RunJournal* j;
    ~JournalFlusher() {
      if (j != nullptr) j->flush();
    }
  } flusher{journal_.get()};

  std::vector<WindowWork>& work = phase.work;
  const SingleFlight plan = plan_windows(threads(), work, phase.build);
  // Fail-fast (containment off) is this body with one attempt.
  const bool contain = options_.recovery.enabled;
  const std::size_t max_attempts =
      contain ? 1 + options_.recovery.max_retries : 1;
  std::vector<JournalOutcome> outcomes(work.size());
  const auto append = [&](std::size_t k) {
    if (!journal_) return;
    journal_->append({phase.journal_phase, phase.index[k], work[k].jfp,
                      outcomes[k], phase.encode(k)});
  };

  std::function<void(const ChunkSpan&)> stage;
  if (phase.stage) {
    stage = [&](const ChunkSpan& span) {
      std::vector<std::size_t> pending;
      for (std::size_t p = span.lo; p < span.hi; ++p) {
        const std::size_t k = plan.leaders[p];
        // A journaled window replays rather than computes.
        if (work[k].skip || (journal_ && journal_->has(work[k].jfp))) continue;
        pending.push_back(k);
      }
      if (!pending.empty()) phase.stage(pending);
    };
  }

  const auto body = [&](std::size_t k) {
    if (work[k].skip) return;
    const std::uint64_t index = phase.index[k];
    JournalOutcome& oc = outcomes[k];
    if (journal_) {
      if (const JournalRecord* hit = journal_->find(work[k].jfp)) {
        if (phase.decode(k, *hit)) {
          // The journaled outcome makes health() match the uninterrupted
          // run entry for entry.
          oc = hit->outcome;
          return;
        }
      }
    }
    fault::Scope scope(phase.domain, index);
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      try {
        fault::maybe_throw(fault::Kind::kAlloc);
        phase.compute(k, attempt);
        oc.attempts = static_cast<std::uint32_t>(attempt + 1);
        oc.recovered = attempt > 0;
        append(k);
        return;
      } catch (...) {
        // Fail-fast: the original exception leaves the loop, which skips
        // the rest of its chunk and rethrows the lowest-index error.
        if (!contain) throw;
        if (!oc.faulted) {
          set_first_error(oc, capture_flow_error(index, phase.origin));
        }
        oc.attempts = static_cast<std::uint32_t>(attempt + 1);
      }
    }
    oc.degraded = true;
    phase.degrade(k);
    append(k);
  };
  const std::vector<IndexedError> escaped =
      run_single_flight(plan, contain, threads(), phase.chunk, stage, body,
                        phase.origin, cancel_token());
  // Containment absorbs every attempt, so an escaped error is a bug in the
  // replay or degrade path itself — still fold it in rather than lose it.
  for (const IndexedError& e : escaped) {
    set_first_error(outcomes[e.index], e.error);
    outcomes[e.index].degraded = true;
    try {
      phase.degrade(e.index);
    } catch (...) {
      // The outcome already reports the window degraded; a fallback that
      // throws again leaves the slot as it stands.
    }
  }

  std::lock_guard<std::mutex> lock(health_state_->mutex);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const JournalOutcome& oc = outcomes[k];
    if (!oc.faulted) continue;
    FlowHealth::WindowFault f;
    f.phase = phase.name;
    f.index = phase.index[k];
    f.code = oc.code;
    f.origin = oc.origin;
    f.attempts = oc.attempts;
    f.recovered = oc.recovered;
    f.degraded = oc.degraded;
    log_warn("flow ", phase.name, " window ", f.index, " fault ",
             FlowError{oc.code, f.index, oc.origin, oc.message}.to_string(),
             oc.degraded ? " -> degraded"
                         : (oc.recovered ? " -> recovered" : ""));
    health_state_->faults.push_back(std::move(f));
  }
}

void PostOpcFlow::record_degraded_gate(GateIdx gate) const {
  std::lock_guard<std::mutex> lock(health_state_->mutex);
  std::vector<GateIdx>& v = health_state_->degraded_gates;
  const auto it = std::lower_bound(v.begin(), v.end(), gate);
  if (it == v.end() || *it != gate) v.insert(it, gate);
}

PostOpcFlow::FlowCacheCounters PostOpcFlow::cache_counters() const {
  FlowCacheCounters c;
  if (caches_) {
    c.opc = caches_->opc.counters();
    c.latent = caches_->latent.counters();
    c.orc = caches_->orc.counters();
  }
  return c;
}

Exposure PostOpcFlow::silicon_exposure(const Exposure& e) const {
  if (!options_.silicon.enabled) return e;
  return {e.focus_nm + options_.silicon.focus_bias_nm,
          e.dose * options_.silicon.dose_scale};
}

StaEngine PostOpcFlow::make_sta() const {
  StaEngine engine(design_->netlist, *lib_);
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    engine.set_parasitics(ex.extract_design(*design_));
  }
  return engine;
}

StaReport PostOpcFlow::run_sta(
    const std::vector<DelayAnnotation>* annotations) const {
  StaEngine engine = make_sta();
  if (annotations != nullptr) engine.set_annotations(*annotations);
  return engine.run(options_.sta);
}

StaReport PostOpcFlow::run_sta_incremental(
    const std::vector<DelayAnnotation>* annotations) const {
  std::lock_guard<std::mutex> lock(timing_->mutex);
  if (timing_->graph == nullptr) {
    timing_->graph = std::make_unique<TimingGraph>(
        design_->netlist, *lib_, options_.sta, /*threads=*/threads());
    if (options_.use_parasitics && !design_->routes.empty()) {
      Extractor ex(design_->tech);
      timing_->graph->set_parasitics(ex.extract_design(*design_));
    }
  }
  // set_annotations diffs against the graph's current state, so only the
  // gates this re-time actually moved re-propagate.
  if (annotations != nullptr) {
    timing_->graph->set_annotations(*annotations);
  } else {
    timing_->graph->clear_annotations();
  }
  return timing_->graph->report();
}

TimingService PostOpcFlow::make_timing_service() const {
  TimingService service(design_->netlist, *lib_, options_.sta, threads());
  if (options_.use_parasitics && !design_->routes.empty()) {
    Extractor ex(design_->tech);
    service.set_parasitics(ex.extract_design(*design_));
  }
  return service;
}

std::vector<GateIdx> PostOpcFlow::tag_critical_gates(Ps slack_window) const {
  // Warm-graph re-time with drawn CDs; bit-identical to the old
  // StaEngine::critical_gates since both share TimingGraph's propagation.
  const StaReport report = run_sta_incremental(nullptr);
  std::vector<GateIdx> out;
  for (GateIdx g = 0; g < design_->netlist.num_gates(); ++g) {
    if (report.gate_slack[g] <= report.worst_slack + slack_window) {
      out.push_back(g);
    }
  }
  return out;
}

std::size_t PostOpcFlow::threads() const {
  return resolve_threads(options_.threads);
}

PostOpcFlow::OpcWindowResult PostOpcFlow::opc_window(
    const Rect& window, const std::vector<Polygon>& targets, OpcMode mode,
    const LithoSimulator& sim, const OpcOptions& opc_options,
    const Fingerprint* cache_key, OpcResult* staged) const {
  OpcWindowResult out;
  if (targets.empty()) return out;

  // The cache key covers the window shape + targets in the local frame,
  // plus everything the correction depends on (mode, OPC options, the
  // model simulator).  Retry attempts pass no key and skip both find and
  // insert: their escalated settings must never populate the nominal key.
  const bool cache = cache_key != nullptr && caches_ != nullptr;
  const Point anchor{window.xlo, window.ylo};
  if (cache) {
    if (const auto hit = caches_->opc.find(*cache_key)) {
      return {translated(hit->mask, anchor), hit->stats};
    }
  }

  ++out.stats.windows;
  switch (mode) {
    case OpcMode::kNone:
      out.mask = mask_of(targets);
      break;
    case OpcMode::kRuleBased: {
      std::vector<Fragment> frags =
          fragment_polygons(targets, opc_options.fragmentation);
      out.mask = mask_of(rule_based_opc(targets, frags, RuleOpcTable{}));
      out.stats.fragments += frags.size();
      break;
    }
    case OpcMode::kModelBased: {
      // A staged result comes from the batched pass and is bit-identical to
      // what correct() would return here; consume it instead of re-running
      // the engine.
      OpcEngine engine(sim, opc_options);
      const OpcResult result =
          staged != nullptr ? std::move(*staged)
                            : engine.correct(targets, window);
      out.mask = result.mask_rects();
      ++out.stats.model_based_windows;
      out.stats.fragments += result.fragments.size();
      out.stats.iterations += result.iterations;
      out.stats.max_abs_epe_nm = result.max_abs_epe_body_nm;
      out.stats.rms_epe_sum += result.rms_epe_body_nm;
      break;
    }
  }

  if (cache) {
    auto entry = std::make_shared<OpcWindowResult>(OpcWindowResult{
        translated(out.mask, Point{-anchor.x, -anchor.y}), out.stats});
    const std::size_t cost =
        out.mask.size() * sizeof(Rect) + sizeof(OpcWindowResult);
    caches_->opc.insert(*cache_key, std::move(entry), cost);
  }
  return out;
}

void PostOpcFlow::run_opc_windows(
    const std::function<OpcMode(std::size_t)>& mode_for_instance,
    const std::vector<std::size_t>* subset) {
  const std::size_t n = design_->layout.num_instances();
  // Slots stay design-sized (indexed by instance); the loop index k maps
  // to an instance through phase.index, so a shard's subset shares every
  // line below.  Each window writes its own slot; the per-window stats are
  // merged on the calling thread in instance order, so the aggregate is
  // bit-identical whatever the thread count.
  opc_windows_.assign(n, {});
  opc_degraded_.assign(n, 0);
  const std::size_t m = subset != nullptr ? subset->size() : n;
  std::vector<std::uint64_t> instances(m);
  for (std::size_t k = 0; k < m; ++k) {
    instances[k] = subset != nullptr ? (*subset)[k] : k;
  }
  WindowPhase phase("opc", JournalPhase::kOpc, fault::Domain::kOpc,
                    loop_chunk(sim_), std::move(instances));
  const std::vector<WindowWork>& work = phase.work;

  std::vector<OpcMode> modes(m);
  phase.build = [&](std::size_t k, WindowWork& w) {
    const std::size_t i = phase.index[k];
    modes[k] = mode_for_instance(i);
    w.window = instance_window(design_->layout, i, options_.ambit_nm);
    w.targets = design_->layout.flatten_layer_polys(w.window, Layer::kPoly);
    if (caches_ && !w.targets.empty()) {
      w.key = opc_cache_fp(modes[k], w.window, w.targets, sim_, options_.opc);
    }
    if (journal_) w.jfp = opc_record_fp(i, modes[k], w.window, w.targets);
  };

  // Batched staging: the chunk's model-based windows that would compute
  // run through the lockstep correct_batch.
  std::vector<std::unique_ptr<OpcResult>> staged(m);
  if (batching_enabled(sim_)) {
    phase.stage = [&](const std::vector<std::size_t>& leaders) {
      std::vector<OpcBatchJob> jobs;
      std::vector<std::size_t> ks;
      for (const std::size_t k : leaders) {
        const WindowWork& w = work[k];
        if (modes[k] != OpcMode::kModelBased || w.targets.empty()) continue;
        if (caches_ != nullptr && caches_->opc.peek(*w.key) != nullptr) {
          continue;  // compute will hit the cache
        }
        jobs.push_back({&w.targets, w.window});
        ks.push_back(k);
      }
      if (jobs.empty()) return;
      try {
        const OpcEngine engine(sim_, options_.opc);
        std::vector<OpcResult> results = engine.correct_batch(
            jobs.data(), jobs.size(), Exposure{}, tls_scratch_arena());
        for (std::size_t b = 0; b < ks.size(); ++b) {
          staged[ks[b]] = std::make_unique<OpcResult>(std::move(results[b]));
        }
      } catch (...) {
        for (const std::size_t k : ks) staged[k].reset();
      }
    };
  }

  // Retry settings: sign-off quality for the draft iterations and the Abbe
  // reference engine when the nominal path runs SOCS.
  const RecoveryOptions& rec = options_.recovery;
  OpcOptions retry_opts = options_.opc;
  if (rec.escalate_quality) retry_opts.sim_quality = retry_opts.final_quality;
  LithoSimulator retry_sim = sim_;
  if (rec.fallback_to_abbe && sim_.imaging().mode == ImagingMode::kSocs) {
    retry_sim = with_abbe(sim_);
    retry_opts.sim_imaging = OpcImaging::kAbbe;
    retry_opts.final_imaging = OpcImaging::kAbbe;
  }
  phase.compute = [&](std::size_t k, std::size_t attempt) {
    const WindowWork& w = work[k];
    OpcWindowResult& slot = opc_windows_[phase.index[k]];
    if (attempt > 0) {
      slot = opc_window(w.window, w.targets, modes[k], retry_sim, retry_opts,
                        /*cache_key=*/nullptr);
      return;
    }
    const std::unique_ptr<OpcResult> mine = std::move(staged[k]);
    slot = opc_window(w.window, w.targets, modes[k], sim_, options_.opc,
                      w.key ? &*w.key : nullptr, mine.get());
  };
  // Degrade: keep the run alive on the drawn (uncorrected) mask and flag
  // the instance so its gates fall back to drawn-CD timing instead of
  // extracting CDs from a silently-uncorrected mask.
  phase.degrade = [&](std::size_t k) {
    const std::size_t i = phase.index[k];
    opc_degraded_[i] = 1;
    OpcWindowResult& slot = opc_windows_[i];
    slot.stats = {};
    slot.stats.windows = 1;
    try {
      slot.mask = mask_of(work[k].targets);
    } catch (...) {
      slot.mask.clear();
    }
  };
  phase.encode = [&](std::size_t k) {
    const std::size_t i = phase.index[k];
    return encode_opc_payload(opc_windows_[i], opc_degraded_[i] != 0);
  };
  phase.decode = [&](std::size_t k, const JournalRecord& r) {
    const std::size_t i = phase.index[k];
    bool degraded = false;
    if (!decode_opc_payload(r.payload, opc_windows_[i], degraded)) {
      return false;
    }
    opc_degraded_[i] = degraded ? 1 : 0;
    return true;
  };
  run_window_pipeline(phase);

  opc_stats_ = {};
  for (const OpcWindowResult& w : opc_windows_) {
    opc_stats_ = merge_stats(opc_stats_, w.stats);
  }
  if (caches_) log_cache("OPC window", caches_->opc.counters());
}

void PostOpcFlow::run_opc(OpcMode mode) {
  run_opc_windows([mode](std::size_t) { return mode; });
  log_info("OPC done: ", opc_stats_.windows, " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_subset(OpcMode mode,
                                 const std::vector<std::size_t>& instances) {
  run_opc_windows([mode](std::size_t) { return mode; }, &instances);
  log_info("OPC shard done: ", instances.size(), "/",
           design_->layout.num_instances(), " windows, ",
           opc_stats_.fragments, " fragments, max EPE ",
           opc_stats_.max_abs_epe_nm, " nm");
}

void PostOpcFlow::run_opc_selective(
    const std::vector<GateIdx>& critical_gates) {
  std::vector<bool> is_critical_instance(design_->layout.num_instances(),
                                         false);
  for (GateIdx g : critical_gates) {
    is_critical_instance[design_->gate_to_instance[g]] = true;
  }
  run_opc_windows([&is_critical_instance](std::size_t i) {
    return is_critical_instance[i] ? OpcMode::kModelBased
                                   : OpcMode::kRuleBased;
  });
  log_info("selective OPC done: ", opc_stats_.model_based_windows, "/",
           opc_stats_.windows, " windows model-based");
}

const std::vector<Rect>& PostOpcFlow::mask_for_instance(
    std::size_t instance) const {
  POC_EXPECTS(instance < opc_windows_.size());
  return opc_windows_[instance].mask;
}

GateExtraction PostOpcFlow::extract_gate(GateIdx gate, const Image2D& latent,
                                         double threshold) const {
  GateExtraction ext;
  ext.gate = gate;
  const CharParams& cp = lib_->char_params();
  for (const PlacedGate* pg : design_->gates_of(gate)) {
    const Instance& inst = design_->layout.instance(pg->instance);
    const GateInfo& info =
        design_->layout.cell(inst.cell).gates[pg->gate_in_cell];
    DeviceCd dev;
    dev.device = info.device;
    dev.is_nmos = info.is_nmos;
    dev.drawn_l_nm = static_cast<double>(info.drawn_l);
    dev.drawn_w_nm = static_cast<double>(info.drawn_w);
    dev.profile = extract_gate_cd(latent, threshold, pg->region,
                                  pg->vertical_poly, options_.cdx);
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    ext.devices.push_back(std::move(dev));
  }
  return ext;
}

namespace {

std::vector<GateIdx> all_or_subset(
    const Netlist& nl, const std::optional<std::vector<GateIdx>>& subset) {
  if (subset) return *subset;
  std::vector<GateIdx> gates(nl.num_gates());
  for (GateIdx g = 0; g < gates.size(); ++g) gates[g] = g;
  return gates;
}

}  // namespace

std::vector<GateExtraction> PostOpcFlow::extract_impl(
    const LithoSimulator& sim, const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  POC_EXPECTS(!opc_windows_.empty());  // run_opc first
  const std::vector<GateIdx> gates = all_or_subset(design_->netlist, subset);
  // Per-gate silicon/model litho simulation + CD extraction is the flow's
  // dominant cost; every gate is independent and writes its own slot.
  std::vector<GateExtraction> out(gates.size());
  WindowPhase phase("extract", JournalPhase::kExtract,
                    fault::Domain::kExtract, loop_chunk(sim),
                    {gates.begin(), gates.end()});
  const std::vector<WindowWork>& work = phase.work;
  const auto mask_of_gate = [&](std::size_t k) -> const std::vector<Rect>& {
    return mask_for_instance(design_->gate_to_instance[gates[k]]);
  };

  // Single-flight pre-pass: the key is the latent image's cache key, so
  // gates of one instance — and of every instance repeating its context —
  // share one latent.
  phase.build = [&](std::size_t k, WindowWork& w) {
    const GateIdx g = gates[k];
    // The slot keeps its gate id whatever happens: an empty-device record
    // is exactly the existing "gate without extraction" path in annotate
    // (drawn-CD timing), and it still consumes its ACLV noise draw so every
    // other gate's offset is unchanged.
    out[k].gate = g;
    if (opc_degraded_[design_->gate_to_instance[g]]) {
      // The instance's OPC window already degraded; its drawn-mask
      // fallback must not feed CDs into STA.  Cheap enough that it is
      // recomputed on resume rather than journaled.
      record_degraded_gate(g);
      w.skip = true;
      return;
    }
    w.window = design_->litho_window(g, options_.ambit_nm);
    if (caches_) {
      w.key = latent_window_fp(sim, mask_of_gate(k), w.window, exposure,
                               options_.extract_quality);
    }
    if (journal_) w.jfp = extract_record_fp(sim, exposure, g);
  };

  // Batched staging: the chunk's latents that would compute go through the
  // SoA engine in one latent_batch call.
  std::vector<std::unique_ptr<Image2D>> staged(gates.size());
  if (batching_enabled(sim)) {
    phase.stage = [&](const std::vector<std::size_t>& leaders) {
      std::vector<std::size_t> pending;
      for (const std::size_t k : leaders) {
        if (work[k].key && caches_->latent.peek(*work[k].key) != nullptr) {
          continue;  // compute will hit the cache
        }
        pending.push_back(k);
      }
      if (pending.empty()) return;
      try {
        std::vector<Image2D> masks(pending.size());
        std::vector<const Image2D*> ptrs(pending.size());
        for (std::size_t j = 0; j < pending.size(); ++j) {
          masks[j] = sim.rasterize(mask_of_gate(pending[j]),
                                   work[pending[j]].window,
                                   options_.extract_quality);
          ptrs[j] = &masks[j];
        }
        std::vector<Image2D> latents =
            sim.latent_batch(ptrs.data(), ptrs.size(), exposure,
                             options_.extract_quality, tls_scratch_arena());
        for (std::size_t j = 0; j < pending.size(); ++j) {
          staged[pending[j]] = std::make_unique<Image2D>(std::move(latents[j]));
        }
      } catch (...) {
        for (const std::size_t k : pending) staged[k].reset();
      }
    };
  }

  const RecoveryOptions& rec = options_.recovery;
  const LithoSimulator retry_sim =
      rec.fallback_to_abbe && sim.imaging().mode == ImagingMode::kSocs
          ? with_abbe(sim)
          : sim;
  const LithoQuality retry_quality =
      rec.escalate_quality ? kEscalatedQuality : options_.extract_quality;
  phase.compute = [&](std::size_t k, std::size_t attempt) {
    const bool nominal = attempt == 0;
    const LithoSimulator& s = nominal ? sim : retry_sim;
    const std::unique_ptr<Image2D> mine = std::move(staged[k]);
    const Image2D latent = latent_for_window(
        s, mask_of_gate(k), work[k].window, exposure,
        nominal ? options_.extract_quality : retry_quality,
        nominal && work[k].key ? &*work[k].key : nullptr,
        nominal ? mine.get() : nullptr);
    out[k] = extract_gate(gates[k], latent, s.print_threshold());
  };
  phase.degrade = [&](std::size_t k) {
    out[k].devices.clear();
    record_degraded_gate(gates[k]);
  };
  phase.encode = [&](std::size_t k) { return encode_extract_payload(out[k]); };
  phase.decode = [&](std::size_t k, const JournalRecord& r) {
    if (!decode_extract_payload(r.payload, out[k])) return false;
    if (r.outcome.degraded) record_degraded_gate(gates[k]);
    return true;
  };
  run_window_pipeline(phase);

  if (caches_) {
    const CacheCounters c = caches_->latent.counters();
    log_debug("latent cache: ", c.hits, " hits / ", c.misses, " misses (",
              c.hit_rate() * 100.0, "% hit rate)");
  }
  return out;
}

Image2D PostOpcFlow::latent_for_window(
    const LithoSimulator& sim, const std::vector<Rect>& mask,
    const Rect& window, const Exposure& exposure, LithoQuality quality,
    const Fingerprint* cache_key, Image2D* staged) const {
  // The latent image depends on optics, resist diffusion (the threshold
  // only applies downstream, at contour extraction), exposure, quality and
  // the mask in the local frame.  Image origins are window.xlo/ylo minus a
  // half-integer centering offset, so rebasing them between frames is exact
  // in doubles: a translated replay equals a recompute bit for bit.
  const bool cache = caches_ != nullptr && cache_key != nullptr;
  const double ax = static_cast<double>(window.xlo);
  const double ay = static_cast<double>(window.ylo);
  if (cache) {
    if (const auto hit = caches_->latent.find(*cache_key)) {
      return rebased(*hit, ax, ay);
    }
  }
  Image2D latent = staged != nullptr
                       ? std::move(*staged)
                       : sim.latent(mask, window, exposure, quality);
  if (cache) {
    const std::size_t cost =
        latent.nx() * latent.ny() * sizeof(double) + sizeof(Image2D);
    caches_->latent.insert(
        *cache_key, std::make_shared<const Image2D>(rebased(latent, -ax, -ay)),
        cost);
  }
  return latent;
}

std::vector<GateExtraction> PostOpcFlow::extract(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(silicon_sim_, silicon_exposure(exposure), subset);
}

std::vector<GateExtraction> PostOpcFlow::extract_with_model(
    const Exposure& exposure,
    const std::optional<std::vector<GateIdx>>& subset) const {
  return extract_impl(sim_, exposure, subset);
}

namespace {

/// Recomputes the equivalent gate with a uniform CD offset (ACLV noise).
EquivalentGate eq_with_offset(const DeviceCd& dev, double offset_nm,
                              const MosfetParams& params) {
  GateCdProfile shifted = dev.profile;
  for (double& cd : shifted.slice_cd_nm) {
    if (cd > 0.0) cd = std::max(1.0, cd + offset_nm);
  }
  return equivalent_gate(shifted, dev.drawn_w_nm, params);
}

}  // namespace

std::vector<DelayAnnotation> PostOpcFlow::annotate(
    const std::vector<GateExtraction>& extractions) const {
  Rng no_noise(0);
  return annotate_with_aclv(extractions, 0.0, no_noise);
}

std::vector<DelayAnnotation> PostOpcFlow::annotate_with_aclv(
    const std::vector<GateExtraction>& extractions, double aclv_sigma_nm,
    Rng& rng) const {
  const Netlist& nl = design_->netlist;
  const CharParams& cp = lib_->char_params();
  std::vector<DelayAnnotation> ann(nl.num_gates());
  for (const GateExtraction& ext : extractions) {
    POC_EXPECTS(ext.gate < ann.size());
    const double offset =
        aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
    double n_drive = 0.0, p_drive = 0.0, leak_num = 0.0, leak_den = 0.0;
    std::size_t n_count = 0, p_count = 0;
    for (const DeviceCd& dev : ext.devices) {
      const MosfetParams& mp = dev.is_nmos ? cp.nmos : cp.pmos;
      const EquivalentGate eq =
          offset == 0.0 ? dev.eq : eq_with_offset(dev, offset, mp);
      const double drive = eq.drive_ratio_vs(dev.drawn_l_nm, mp);
      const double leak = eq.leak_ratio_vs(dev.drawn_l_nm, mp);
      if (dev.is_nmos) {
        n_drive += drive;
        ++n_count;
      } else {
        p_drive += drive;
        ++p_count;
      }
      // Weight leakage ratios by the device's drawn leakage contribution.
      const double base = mp.ioff_per_um(dev.drawn_l_nm) * eq.width_um;
      leak_num += leak * base;
      leak_den += base;
    }
    DelayAnnotation& a = ann[ext.gate];
    if (n_count > 0) {
      a.fall_scale = 1.0 / safe_ratio(n_drive / static_cast<double>(n_count));
    }
    if (p_count > 0) {
      a.rise_scale = 1.0 / safe_ratio(p_drive / static_cast<double>(p_count));
    }
    if (leak_den > 0.0) a.leak_scale = leak_num / leak_den;
  }
  return ann;
}

TimingComparison PostOpcFlow::compare_timing(const Exposure& exposure) {
  TimingComparison cmp;
  // Both re-times go through the warm graph: the drawn run marks whatever
  // the previous state left dirty, the annotated run re-propagates only the
  // gates whose extracted CDs moved off drawn.  Reports stay bit-identical
  // to stateless run_sta (GoldenT2 pins this).
  cmp.drawn = run_sta_incremental(nullptr);
  const std::vector<GateExtraction> ext = extract(exposure);
  // Silicon CDs carry the across-chip random component on top of the
  // systematic residual; deterministic in the flow seed.
  Rng rng(options_.seed);
  const std::vector<DelayAnnotation> ann = annotate_with_aclv(
      ext, options_.silicon.enabled ? options_.silicon.aclv_sigma_nm : 0.0,
      rng);
  cmp.annotated = run_sta_incremental(&ann);
  cmp.ranks =
      compare_path_ranks(design_->netlist, cmp.drawn.paths,
                         cmp.annotated.paths);
  if (cmp.drawn.worst_slack != 0.0) {
    cmp.worst_slack_change_pct =
        (cmp.annotated.worst_slack - cmp.drawn.worst_slack) /
        std::abs(cmp.drawn.worst_slack) * 100.0;
  }
  if (cmp.drawn.total_leakage_ua > 0.0) {
    cmp.leakage_change_pct = (cmp.annotated.total_leakage_ua -
                              cmp.drawn.total_leakage_ua) /
                             cmp.drawn.total_leakage_ua * 100.0;
  }
  cmp.health = health();
  if (!cmp.health.clean()) {
    log_warn("flow health: ", cmp.health.faults.size(), " faulted windows, ",
             cmp.health.recovered_windows, " recovered, ",
             cmp.health.degraded_windows, " degraded (",
             cmp.health.degraded_gates.size(), " gates on drawn-CD timing)");
  }
  return cmp;
}

PostOpcFlow::HotspotReport PostOpcFlow::scan_hotspots(
    const std::vector<ProcessCorner>& conditions,
    const OrcOptions& orc_options) const {
  POC_EXPECTS(!opc_windows_.empty());  // run_opc first
  const OpcEngine engine(sim_, options_.opc);
  const std::size_t n = design_->layout.num_instances();
  std::vector<std::uint64_t> instances(n);
  for (std::size_t i = 0; i < n; ++i) instances[i] = i;
  WindowPhase phase("scan", JournalPhase::kScan,
                    fault::Domain::kScan, loop_chunk(silicon_sim_),
                    std::move(instances));
  const std::vector<WindowWork>& work = phase.work;

  // Single-flight pre-pass.  The key covers both simulators (run_orc
  // probes pinch/bridge with the silicon latent and measures EPE through
  // the engine's model sim), the options, and the window's targets and
  // post-OPC mask in the local frame; the corners are shared by every
  // window, and each corner's ORC cache key extends it by the exposure.
  phase.build = [&](std::size_t i, WindowWork& w) {
    w.window = instance_window(design_->layout, i, options_.ambit_nm);
    w.targets = design_->layout.flatten_layer_polys(w.window, Layer::kPoly);
    if (caches_ && !w.targets.empty()) {
      FpHasher h;
      h.str("orc");
      hash_sim(h, silicon_sim_);
      hash_sim(h, sim_);
      hash_opc_options(h, options_.opc);
      hash_orc_options(h, orc_options);
      h.i64(w.window.width()).i64(w.window.height());
      h.polys(w.targets, w.anchor());
      h.rects(mask_for_instance(i), w.anchor());
      w.key = h.digest();
    }
    if (journal_) {
      w.jfp = scan_record_fp(i, w.window, w.targets, conditions, orc_options);
    }
  };
  // Hotspots are judged against the silicon reference, not the model.
  std::vector<Exposure> exposures;
  for (const ProcessCorner& c : conditions) {
    exposures.push_back(silicon_exposure(c.exposure));
  }
  const auto corner_fp = [&](std::size_t i, std::size_t c) {
    FpHasher h;
    h.u64(work[i].key->hi).u64(work[i].key->lo);
    hash_exposure(h, exposures[c]);
    return h.digest();
  };

  // Per-window ORC across all corners; partial reports land in per-window
  // slots and merge in instance order, so violation order and counts match
  // the serial scan exactly.  Retries (`use_cache` false) rerun the nominal
  // simulators but bypass the ORC cache and the staged latents.
  std::vector<std::vector<std::unique_ptr<OrcLatents>>> staged(n);
  const auto scan_window = [&](std::size_t i, bool use_cache) {
    HotspotReport partial;
    const WindowWork& w = work[i];
    if (w.targets.empty()) return partial;
    ++partial.windows_checked;
    const bool cache_window = caches_ != nullptr && use_cache;
    const Point anchor = w.anchor();
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      OrcReport orc;
      bool cached = false;
      Fingerprint fp;
      if (cache_window) {
        fp = corner_fp(i, c);
        if (const auto hit = caches_->orc.find(fp)) {
          orc = hit->report;
          for (OrcViolation& v : orc.violations) {
            v.where = v.where + anchor;
          }
          cached = true;
        }
      }
      if (!cached) {
        std::unique_ptr<OrcLatents> mine;
        if (use_cache && staged[i].size() == conditions.size()) {
          mine = std::move(staged[i][c]);
        }
        orc = mine != nullptr
                  ? run_orc_staged(silicon_sim_, engine, w.targets, w.window,
                                   *mine, orc_options)
                  : run_orc(silicon_sim_, engine, w.targets,
                            mask_for_instance(i), w.window, exposures[c],
                            orc_options);
        if (cache_window) {
          auto entry = std::make_shared<WindowCaches::OrcEntry>();
          entry->report = orc;
          const Point to_local{-anchor.x, -anchor.y};
          for (OrcViolation& v : entry->report.violations) {
            v.where = v.where + to_local;
          }
          const std::size_t cost =
              orc.violations.size() * sizeof(OrcViolation) +
              sizeof(WindowCaches::OrcEntry);
          caches_->orc.insert(fp, std::move(entry), cost);
        }
      }
      for (const OrcViolation& v : orc.violations) {
        switch (v.kind) {
          case OrcViolation::Kind::kPinch: ++partial.pinches; break;
          case OrcViolation::Kind::kBridge: ++partial.bridges; break;
          case OrcViolation::Kind::kEpe: ++partial.epe_violations; break;
        }
        partial.hotspots.push_back({i, conditions[c].name, v});
      }
    }
    return partial;
  };

  // Batched staging: per (window, corner) the scan consumes two latent
  // images — the silicon print and the OPC model's view (EPE probes).  The
  // worker owning a chunk of leaders images both through the SoA engine for
  // every cache-missing pair and parks them as OrcLatents; rasterization is
  // sim-independent, so one raster per window feeds both batches.  Rasters
  // are of the window-local frame, which run_orc_staged expects.  Corners
  // cannot share a batch (defocus changes the TCC kernels), so batching
  // runs across the chunk's windows within each corner.
  if (batching_enabled(silicon_sim_)) {
    phase.stage = [&](const std::vector<std::size_t>& leaders) {
      std::vector<std::size_t> wins;
      for (const std::size_t i : leaders) {
        if (!work[i].targets.empty()) wins.push_back(i);
      }
      if (wins.empty()) return;
      try {
        ScratchArena& arena = tls_scratch_arena();
        std::vector<Image2D> rasters(wins.size());
        for (std::size_t j = 0; j < wins.size(); ++j) {
          const Rect& window = work[wins[j]].window;
          const Point to_local{-window.xlo, -window.ylo};
          rasters[j] = silicon_sim_.rasterize(
              translated(mask_for_instance(wins[j]), to_local),
              window.translated(to_local), orc_options.quality);
          staged[wins[j]].resize(conditions.size());
        }
        for (std::size_t c = 0; c < conditions.size(); ++c) {
          std::vector<std::size_t> missing;
          std::vector<const Image2D*> ptrs;
          for (std::size_t j = 0; j < wins.size(); ++j) {
            // Mirrors the key scan_window builds, so peeks hit iff find
            // will.
            if (caches_ != nullptr &&
                caches_->orc.peek(corner_fp(wins[j], c)) != nullptr) {
              continue;
            }
            missing.push_back(wins[j]);
            ptrs.push_back(&rasters[j]);
          }
          if (missing.empty()) continue;
          std::vector<Image2D> silicon = silicon_sim_.latent_batch(
              ptrs.data(), ptrs.size(), exposures[c], orc_options.quality,
              arena);
          std::vector<Image2D> model = sim_.latent_batch(
              ptrs.data(), ptrs.size(), exposures[c], orc_options.quality,
              arena);
          for (std::size_t s = 0; s < missing.size(); ++s) {
            staged[missing[s]][c] = std::make_unique<OrcLatents>(
                OrcLatents{std::move(silicon[s]), std::move(model[s])});
          }
        }
      } catch (...) {
        for (const std::size_t i : wins) staged[i].clear();
      }
    };
  }

  std::vector<HotspotReport> slots(n);
  phase.compute = [&](std::size_t i, std::size_t attempt) {
    slots[i] = scan_window(i, /*use_cache=*/attempt == 0);
  };
  // Degrade: the window's violations are dropped (conservative for
  // timing, not for ORC — the fault record is the signal).
  phase.degrade = [&](std::size_t i) { slots[i] = {}; };
  phase.encode = [&](std::size_t i) { return encode_scan_payload(slots[i]); };
  phase.decode = [&](std::size_t i, const JournalRecord& r) {
    return decode_scan_payload(r.payload, slots[i]);
  };
  run_window_pipeline(phase);

  HotspotReport report;
  for (HotspotReport& w : slots) {
    report.windows_checked += w.windows_checked;
    report.pinches += w.pinches;
    report.bridges += w.bridges;
    report.epe_violations += w.epe_violations;
    report.hotspots.insert(report.hotspots.end(),
                           std::make_move_iterator(w.hotspots.begin()),
                           std::make_move_iterator(w.hotspots.end()));
  }
  log_info("hotspot scan: ", report.hotspots.size(), " violations over ",
           report.windows_checked, " windows x ", conditions.size(),
           " conditions");
  if (caches_) log_cache("ORC", caches_->orc.counters());
  return report;
}

std::vector<PostOpcFlow::DeviceResponse> PostOpcFlow::fit_responses(
    const std::optional<std::vector<GateIdx>>& subset) const {
  const std::vector<Exposure> grid = response_fit_grid();
  POC_EXPECTS(!grid.empty());
  // Extraction per grid point; the grid point closest to nominal (focus 0,
  // dose 1) provides the slice shape.  Nearest-point selection (distances
  // normalized by typical process-window half-widths: 150 nm focus, 10 %
  // dose) keeps this correct for grids that do not sample nominal exactly
  // — the old exact-match scan silently fell back to grid[0], the extreme
  // negative-focus/low-dose corner.
  std::vector<std::vector<GateExtraction>> per_exposure;
  per_exposure.reserve(grid.size());
  for (const Exposure& e : grid) {
    per_exposure.push_back(extract(e, subset));
  }
  std::size_t nominal_idx = 0;
  double nominal_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double df = grid[i].focus_nm / 150.0;
    const double dd = (grid[i].dose - 1.0) / 0.10;
    const double dist = df * df + dd * dd;
    if (dist < nominal_dist) {
      nominal_dist = dist;
      nominal_idx = i;
    }
  }
  std::vector<DeviceResponse> out;
  const std::size_t num_gates = per_exposure.front().size();
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    const GateExtraction& nominal = per_exposure[nominal_idx][gi];
    for (std::size_t di = 0; di < nominal.devices.size(); ++di) {
      DeviceResponse resp;
      resp.gate = nominal.gate;
      resp.device = nominal.devices[di].device;
      resp.is_nmos = nominal.devices[di].is_nmos;
      resp.drawn_l_nm = nominal.devices[di].drawn_l_nm;
      resp.drawn_w_nm = nominal.devices[di].drawn_w_nm;
      std::vector<std::pair<Exposure, double>> samples;
      for (std::size_t e = 0; e < grid.size(); ++e) {
        samples.emplace_back(grid[e],
                             per_exposure[e][gi].devices[di].profile.mean_cd());
      }
      resp.mean_cd = fit_cd_response(samples);
      const GateCdProfile& prof = nominal.devices[di].profile;
      const double mean = prof.mean_cd();
      for (double cd : prof.slice_cd_nm) {
        resp.slice_offsets_nm.push_back(cd > 0.0 ? cd - mean : 0.0);
      }
      resp.slice_width_nm = prof.slice_width_nm;
      out.push_back(std::move(resp));
    }
  }
  return out;
}

std::vector<GateExtraction> PostOpcFlow::mc_extraction(
    const std::vector<DeviceResponse>& responses, const Exposure& exposure,
    double aclv_sigma_nm, Rng& rng) const {
  const CharParams& cp = lib_->char_params();
  std::vector<GateExtraction> out;
  std::unordered_map<std::size_t, std::size_t> gate_slot;
  std::unordered_map<std::size_t, double> gate_aclv;
  for (const DeviceResponse& r : responses) {
    if (!gate_slot.contains(r.gate)) {
      gate_slot[r.gate] = out.size();
      gate_aclv[r.gate] =
          aclv_sigma_nm > 0.0 ? rng.normal(0.0, aclv_sigma_nm) : 0.0;
      GateExtraction ext;
      ext.gate = r.gate;
      out.push_back(std::move(ext));
    }
    DeviceCd dev;
    dev.device = r.device;
    dev.is_nmos = r.is_nmos;
    dev.drawn_l_nm = r.drawn_l_nm;
    dev.drawn_w_nm = r.drawn_w_nm;
    const double mean = r.mean_cd.eval(exposure) + gate_aclv[r.gate];
    dev.profile.drawn_cd_nm = r.drawn_l_nm;
    dev.profile.slice_width_nm = r.slice_width_nm;
    for (double off : r.slice_offsets_nm) {
      dev.profile.slice_cd_nm.push_back(std::max(1.0, mean + off));
    }
    dev.eq = equivalent_gate(dev.profile, dev.drawn_w_nm,
                             dev.is_nmos ? cp.nmos : cp.pmos);
    out[gate_slot[r.gate]].devices.push_back(std::move(dev));
  }
  return out;
}

}  // namespace poc
