// The paper's contribution: an automated flow that (1) tags critical gates
// from a baseline STA, (2) runs OPC and patterning simulation over each
// placed instance's layout window, (3) extracts per-gate post-OPC critical
// dimensions, (4) back-annotates silicon-calibrated device strengths into
// the netlist through the equivalent-gate model, and (5) re-runs timing to
// expose the drawn-vs-printed discrepancy (speed-path reordering, worst-
// slack shift).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/result_cache.h"
#include "src/common/error.h"
#include "src/cdx/cd_extract.h"
#include "src/device/nonrect.h"
#include "src/litho/simulator.h"
#include "src/opc/opc_engine.h"
#include "src/opc/orc.h"
#include "src/pnr/design.h"
#include "src/run/journal.h"
#include "src/sta/paths.h"
#include "src/sta/service.h"
#include "src/sta/sta.h"
#include "src/sta/timing_graph.h"
#include "src/var/variation.h"

namespace poc {

class CancelToken;

enum class OpcMode { kNone, kRuleBased, kModelBased };

/// OPC-model-to-silicon calibration mismatch.  The paper's flow exists
/// because the mask is corrected against an (imperfect) OPC model while the
/// silicon prints with the real process: the residual CD error it extracts
/// is dominated by exactly this gap.  The defaults are a representative
/// 2005-era model-accuracy budget: a couple of nm of resist-diffusion
/// mis-calibration, a fraction of a percent on the development threshold,
/// tens of nm of uncorrected focus offset and ~1 % dose calibration error.
/// Setting enabled=false makes the extraction simulator identical to the
/// OPC model (residuals collapse to the sub-nm convergence floor — see the
/// ablation in bench_t2).
struct SiliconMismatch {
  bool enabled = true;
  double diffusion_delta_nm = 1.5;
  double threshold_delta = -0.002;
  double focus_bias_nm = 30.0;
  double dose_scale = 1.006;
  /// Across-chip linewidth variation of the silicon (random per-gate CD
  /// component measured on top of the systematic residual); applied by
  /// compare_timing and the Monte-Carlo mode.
  double aclv_sigma_nm = 1.8;
};

/// Content-addressed window-result cache (src/cache).  A placed design
/// repeats the same cells — and the same local poly context — thousands of
/// times, so the flow memoizes per-window results (OPC masks, latent
/// images, ORC reports) under a fingerprint of the window's translated-to-
/// local-frame geometry plus every parameter that affects the result.  A
/// hit replays bits a recompute would produce, so flow outputs are
/// bit-identical with the cache on or off, at any thread count (see the
/// determinism contract in DESIGN.md).  Purely a performance knob.
struct CacheOptions {
  bool enabled = true;
  /// LRU budget per cache (there are three: OPC windows, latent images,
  /// ORC reports).  0 keeps the cache code path live but stores nothing —
  /// every insert is rejected (the capacity-0 path of the tests).
  std::size_t capacity_mb = 256;
  std::size_t shards = 16;  ///< concurrency granularity of each cache
  /// Shared spill-to-disk tier (sharded multi-process runs): when set,
  /// every cache entry is also published — serialized, content-addressed
  /// by its fingerprint, first-insert-wins — under this directory, and a
  /// memory miss probes the directory before computing.  Point every
  /// worker of a sharded run at the same path so repeated cells hit across
  /// processes.  Purely a performance knob: a disk hit restores the exact
  /// bits a recompute would produce.  Empty = no disk tier.
  std::string disk_path;
  /// Size quota per disk store (there are three under disk_path).  When a
  /// publish pushes a store past the quota, its oldest entries are pruned
  /// — a pruned window is just a future recompute.  0 = unbounded.
  std::uint64_t disk_max_bytes = 0;
};

/// Per-window fault containment policy for the hot loops.  When enabled
/// (the default), a window that throws — CheckError, bad_alloc, non-finite
/// intensity, OPC non-convergence — is retried up to `max_retries` times,
/// then degraded instead of aborting the run: an OPC window falls back to
/// the drawn (uncorrected) mask, an extraction window falls back to the
/// drawn-CD annotation for its gate, and a scan window is skipped.  OPC
/// and extraction retries run escalated settings (the two knobs below); a
/// scan retry reruns the nominal simulators.  Every retry bypasses the
/// window caches, so a retry result is never served under the nominal
/// fingerprint.  Every fault, retry and degradation is recorded in
/// FlowHealth.  Fault-free results are bit-identical with containment on
/// or off; disabling restores fail-fast semantics (one attempt, no
/// degrade, the first error by window index is rethrown).
struct RecoveryOptions {
  bool enabled = true;
  std::size_t max_retries = 1;
  /// OPC and extraction retries use sign-off litho quality instead of the
  /// nominal (draft / standard) setting.
  bool escalate_quality = true;
  /// OPC and extraction retries use the Abbe reference imaging engine when
  /// the faulting window was running the SOCS fast path.
  bool fallback_to_abbe = true;
};

/// Containment outcome of one run: which windows faulted, what happened to
/// them, and which gates lost their extraction to the drawn-CD fallback.
/// Deterministic — entries are merged in window-index order, so the report
/// is bit-identical at any thread count.
struct FlowHealth {
  struct WindowFault {
    std::string phase;            ///< "opc" | "extract" | "scan"
    std::uint64_t index = 0;      ///< instance (opc/scan) or gate (extract)
    FaultCode code = FaultCode::kUnknown;
    std::string origin;
    std::size_t attempts = 0;     ///< total tries, including the first
    bool recovered = false;       ///< a retry eventually succeeded
    bool degraded = false;        ///< all retries failed; fallback applied
  };
  std::vector<WindowFault> faults;
  std::size_t retries = 0;            ///< extra attempts across all windows
  std::size_t recovered_windows = 0;
  std::size_t degraded_windows = 0;
  /// Gates annotated with drawn-CD timing because their own extraction
  /// degraded or their instance's OPC window degraded.  Sorted, unique.
  std::vector<GateIdx> degraded_gates;

  bool clean() const { return faults.empty(); }
};

struct FlowOptions {
  OpcOptions opc;
  CdExtractOptions cdx;
  LithoQuality extract_quality = LithoQuality::kStandard;
  /// Imaging engine for BOTH flow simulators (the OPC model and the silicon
  /// extraction): kAbbe (reference, the default) or kSocs (fast TCC-kernel
  /// path) plus the SOCS truncation knobs.  Applied at construction; the
  /// per-phase OpcImaging knobs in `opc` can still override the engine for
  /// OPC draft/sign-off iterations.  Hashed into every window fingerprint.
  ImagingOptions imaging;
  DbUnit ambit_nm = 600;        ///< optical context around each instance
  StaOptions sta;
  bool use_parasitics = true;
  std::uint64_t seed = 42;      ///< ACLV noise stream
  SiliconMismatch silicon;
  CacheOptions cache;
  RecoveryOptions recovery;
  /// Write-ahead run journal (src/run): when enabled, every completed
  /// window of the three hot loops is appended — content fingerprint,
  /// serialized result bits, containment outcome — and a restarted flow
  /// with the same config replays completed windows instead of recomputing
  /// them.  Records from a different flow config (imaging mode, OPC knobs,
  /// seed, ...) are rejected at replay via the config fingerprint; the
  /// thread count is deliberately NOT part of that fingerprint, so a run
  /// may resume at any thread count.  See "Durable runs & resume" in
  /// DESIGN.md.
  JournalOptions journal;
  /// Cooperative cancellation token polled by the hot loops at chunk
  /// boundaries.  Null routes to global_cancel_token() — the one the
  /// SIGINT/SIGTERM bridge (ScopedGracefulShutdown) trips.  On
  /// cancellation, in-flight windows drain and are journaled, the journal
  /// is flushed, and the loop raises FlowException(kCancelled).
  const CancelToken* cancel = nullptr;
  /// Threads for the window-shaped hot loops (OPC, extraction, hotspot
  /// scan, Monte Carlo).  0 = hardware concurrency; 1 = serial.  Results
  /// are bit-identical for every value — see the determinism contract in
  /// DESIGN.md.
  std::size_t threads = 0;
};

/// Aggregate OPC cost/quality over all instance windows.
struct OpcStats {
  std::size_t windows = 0;
  std::size_t model_based_windows = 0;
  std::size_t fragments = 0;
  std::size_t iterations = 0;   ///< summed litho-simulated iterations
  double max_abs_epe_nm = 0.0;
  double rms_epe_sum = 0.0;     ///< sum over windows (divide by windows)
};

/// Extracted CDs and equivalent-gate model for one transistor.
struct DeviceCd {
  std::string device;
  bool is_nmos = true;
  double drawn_l_nm = 0.0;
  double drawn_w_nm = 0.0;
  GateCdProfile profile;
  EquivalentGate eq;
};

/// All devices of one netlist gate instance.
struct GateExtraction {
  GateIdx gate = kNoIndex;
  std::vector<DeviceCd> devices;
};

/// Drawn-vs-annotated STA comparison (the headline result, T2/F4).
struct TimingComparison {
  StaReport drawn;
  StaReport annotated;
  PathRankComparison ranks;
  /// Relative growth of the worst-case slack magnitude: the paper reports
  /// +36.4 % on its test design.
  double worst_slack_change_pct = 0.0;
  double leakage_change_pct = 0.0;
  /// Containment outcome of the run that produced this comparison (empty
  /// when every window completed nominally).
  FlowHealth health;
};

class PostOpcFlow {
 public:
  PostOpcFlow(const PlacedDesign& design, const StdCellLibrary& lib,
              LithoSimulator sim = {}, FlowOptions options = {});

  const FlowOptions& options() const { return options_; }
  const OpcStats& opc_stats() const { return opc_stats_; }
  const PlacedDesign& design() const { return *design_; }

  /// The "silicon truth" simulator extraction verifies against (the OPC
  /// model plus the configured calibration mismatch).
  const LithoSimulator& silicon_sim() const { return silicon_sim_; }
  /// Maps a requested scanner condition onto the silicon simulator's frame
  /// (adds the mismatch's focus/dose calibration error).
  Exposure silicon_exposure(const Exposure& e) const;

  /// Step 1 (paper): tag critical gates from the drawn-CD baseline STA.
  std::vector<GateIdx> tag_critical_gates(Ps slack_window) const;

  /// Step 2: OPC the poly layer window-by-window.  `mode` applies to all
  /// instances; the selective variant uses model-based OPC only on windows
  /// containing tagged gates and rule-based elsewhere (experiment T4).
  void run_opc(OpcMode mode);
  void run_opc_selective(const std::vector<GateIdx>& critical_gates);

  /// Shard-range execution (sharded multi-process runs, see
  /// src/core/flow_shard): OPC only the given instance windows, in `mode`.
  /// Untouched instances keep empty masks and must not be extracted in
  /// this process — a shard worker extracts only the gates whose instances
  /// it owns.  Journal records carry the same fingerprints run_opc(mode)
  /// would produce, so a coordinator replaying the merged journal restores
  /// every shard's windows bit-identically.
  void run_opc_subset(OpcMode mode, const std::vector<std::size_t>& instances);

  /// Step 3: post-OPC patterning simulation + CD extraction at `exposure`
  /// for all gates, or only `subset` (the paper's selective extraction).
  std::vector<GateExtraction> extract(
      const Exposure& exposure,
      const std::optional<std::vector<GateIdx>>& subset = std::nullopt) const;

  /// Same extraction but through the OPC model's own simulator (no silicon
  /// mismatch, no exposure remapping) — what the model *predicts* will
  /// print.  Metrology-driven calibration compares this against measured
  /// silicon (src/metro).
  std::vector<GateExtraction> extract_with_model(
      const Exposure& exposure,
      const std::optional<std::vector<GateIdx>>& subset = std::nullopt) const;

  /// Step 4: equivalent-gate back-annotation.  Gates without extraction
  /// keep drawn-CD timing (scale 1.0).  `aclv_nm` adds a per-gate random CD
  /// offset before the device model (Monte-Carlo mode).
  std::vector<DelayAnnotation> annotate(
      const std::vector<GateExtraction>& extractions) const;
  std::vector<DelayAnnotation> annotate_with_aclv(
      const std::vector<GateExtraction>& extractions, double aclv_sigma_nm,
      Rng& rng) const;

  /// Step 5: drawn vs post-OPC timing (runs steps 3-4 at the exposure).
  TimingComparison compare_timing(const Exposure& exposure = {});

  /// STA engine preloaded with this design's parasitics.
  StaEngine make_sta() const;
  /// From-scratch STA (fresh graph per call) — stateless, safe to call
  /// concurrently; the Monte-Carlo loop depends on that.
  StaReport run_sta(const std::vector<DelayAnnotation>* annotations) const;

  /// Re-times through the flow's warm incremental TimingGraph: only gates
  /// whose annotations differ from the graph's current state re-propagate
  /// (full re-time = everything differs = mark everything dirty).  Reports
  /// are bit-identical to run_sta over the same annotations.  Serialized
  /// internally — compare_timing and tag_critical_gates use it; the
  /// concurrent Monte-Carlo loop must keep using run_sta.
  StaReport run_sta_incremental(
      const std::vector<DelayAnnotation>* annotations) const;

  /// Long-lived timing-query service over this design (own warm graph,
  /// parasitics preloaded): retime / slack / paths / whatif against it,
  /// feeding whatif candidates from extract() + annotate().
  TimingService make_timing_service() const;

  /// Process-window response surfaces: fits cd(focus, dose) per device from
  /// a 3x3 exposure grid so Monte-Carlo timing needs no further litho
  /// simulation.  Returns per-gate fitted extractions evaluable via
  /// mc_extraction().
  struct DeviceResponse {
    GateIdx gate = kNoIndex;
    std::string device;
    bool is_nmos = true;
    double drawn_l_nm = 0.0;
    double drawn_w_nm = 0.0;
    CdResponse mean_cd;
    std::vector<double> slice_offsets_nm;  ///< nominal slice - mean shape
    double slice_width_nm = 0.0;
  };
  std::vector<DeviceResponse> fit_responses(
      const std::optional<std::vector<GateIdx>>& subset = std::nullopt) const;

  /// Evaluates fitted responses at an exposure (+ per-gate ACLV noise) into
  /// extraction records suitable for annotate().
  std::vector<GateExtraction> mc_extraction(
      const std::vector<DeviceResponse>& responses, const Exposure& exposure,
      double aclv_sigma_nm, Rng& rng) const;

  /// Post-OPC mask rectangles for one instance's window (after run_opc).
  const std::vector<Rect>& mask_for_instance(std::size_t instance) const;

  /// Full-chip litho hotspot scan: verifies every instance window (post-OPC
  /// mask vs drawn targets) at each exposure and collects ORC violations —
  /// the physical-verification side of the paper's methodology.
  struct Hotspot {
    std::size_t instance = 0;
    std::string exposure_name;
    OrcViolation violation;
  };
  struct HotspotReport {
    std::vector<Hotspot> hotspots;
    std::size_t windows_checked = 0;
    std::size_t pinches = 0;
    std::size_t bridges = 0;
    std::size_t epe_violations = 0;
  };
  HotspotReport scan_hotspots(const std::vector<ProcessCorner>& conditions,
                              const OrcOptions& orc_options = {}) const;

  /// Threads the hot loops actually use (options().threads resolved).
  std::size_t threads() const;

  /// Containment record accumulated since construction (or the last
  /// reset_health()): faults, retries, recoveries, degraded gates.  Empty
  /// on a fault-free run.
  FlowHealth health() const;
  void reset_health() const;

  /// Window-cache counters per hot path (all zero when the cache is
  /// disabled).  Hit rates climb with instance repetition: a row of
  /// identical cells collapses to one computed window each for OPC,
  /// latent-image and ORC work.
  struct FlowCacheCounters {
    CacheCounters opc;     ///< corrected masks + per-window OpcStats
    CacheCounters latent;  ///< extraction latent images
    CacheCounters orc;     ///< per-corner ORC reports
    CacheCounters total() const {
      CacheCounters t = opc;
      t += latent;
      t += orc;
      return t;
    }
  };
  FlowCacheCounters cache_counters() const;

  /// Fingerprint of everything that makes journal records replayable into
  /// this flow: both simulators, OPC/CD-extraction/recovery/STA knobs,
  /// seed, silicon mismatch, design placement and library characterization
  /// — but NOT the thread count (resume is thread-independent) and NOT the
  /// cache/journal/batch-width knobs (pure performance).  Stamped into
  /// every journal segment header and validated at replay.
  Fingerprint config_fingerprint() const;

  /// Journal counters for this run (all zero when journaling is off):
  /// records replayed vs appended, rejects, fsyncs.
  RunJournal::Stats journal_stats() const;
  /// Records/segments rejected during journal replay (empty when the
  /// journal is off or replay was clean).  Mirrored into health() as
  /// phase "journal" faults.
  std::vector<ReplayIssue> journal_issues() const;

  /// One instance's OPC window result: its OPC-cache entry (in the
  /// window-local frame), its journal payload (plus the degraded flag) and
  /// its per-instance slot; run_opc merges the stats in instance order.
  struct OpcWindowResult {
    std::vector<Rect> mask;
    OpcStats stats;
  };
  /// Content-addressed window caches (see CacheOptions).  Defined in
  /// flow.cpp; declared public, like OpcWindowResult, only so the
  /// file-local codecs there can name the entry types — the caches_ handle
  /// stays private.
  struct WindowCaches;

 private:
  /// One instance's OPC window over its prebuilt content (the window and
  /// its drawn targets), computed without touching shared state.
  /// `cache_key` (the window's local-content key), when non-null, routes
  /// the result through the OPC cache; retries pass null — a result
  /// produced under escalated settings must never be stored under the
  /// nominal key.  `staged`, when non-null, is a correction result the
  /// batched staging pass already computed for this window (bit-identical
  /// to what engine.correct would produce — see OpcEngine::correct_batch);
  /// the window consumes it instead of re-running the engine.
  OpcWindowResult opc_window(const Rect& window,
                             const std::vector<Polygon>& targets, OpcMode mode,
                             const LithoSimulator& sim,
                             const OpcOptions& opc_options,
                             const Fingerprint* cache_key,
                             OpcResult* staged = nullptr) const;
  /// `subset`, when non-null, restricts the loop to those instance indices
  /// (ascending); opc_windows_/opc_degraded_ stay design-sized either way.
  void run_opc_windows(
      const std::function<OpcMode(std::size_t)>& mode_for_instance,
      const std::vector<std::size_t>* subset = nullptr);
  GateExtraction extract_gate(GateIdx gate, const Image2D& latent,
                              double threshold) const;
  std::vector<GateExtraction> extract_impl(
      const LithoSimulator& sim, const Exposure& exposure,
      const std::optional<std::vector<GateIdx>>& subset) const;
  /// sim.latent() memoized through the window cache under `cache_key`
  /// (bit-identical either way); a plain call when the cache is disabled or
  /// the key is null (retry attempts).  `staged`, when non-null, is the
  /// window's latent as computed by the batched staging pass (bit-identical
  /// to the scalar sim.latent) and is consumed — moved from — in place of
  /// the scalar call on a cache miss.
  Image2D latent_for_window(const LithoSimulator& sim,
                            const std::vector<Rect>& mask, const Rect& window,
                            const Exposure& exposure, LithoQuality quality,
                            const Fingerprint* cache_key,
                            Image2D* staged = nullptr) const;

  /// The one driver of the three hot loops (OPC, extraction, hotspot
  /// scan): single-flight scheduling, journal replay/append, fault scope,
  /// retry, degrade and the FlowHealth merge.  A WindowPhase (defined in
  /// flow.cpp) supplies only what differs per loop.
  struct WindowPhase;
  void run_window_pipeline(WindowPhase& phase) const;
  void record_degraded_gate(GateIdx gate) const;

  /// Effective cancellation token for the hot loops (options().cancel, or
  /// the process-global token when unset and journaling wants one).
  const CancelToken* cancel_token() const;
  /// Per-window journal record identities.  Each covers everything the
  /// window's result depends on (and its index), so a replayed record is
  /// bit-equal to a recompute or it does not match at all.
  /// `window`/`targets` are the instance's window and drawn poly, as the
  /// loops' pre-pass built them.
  Fingerprint opc_record_fp(std::size_t instance, OpcMode mode,
                            const Rect& window,
                            const std::vector<Polygon>& targets) const;
  Fingerprint extract_record_fp(const LithoSimulator& sim,
                                const Exposure& exposure, GateIdx gate) const;
  Fingerprint scan_record_fp(std::size_t instance, const Rect& window,
                             const std::vector<Polygon>& targets,
                             const std::vector<ProcessCorner>& conditions,
                             const OrcOptions& orc_options) const;

  const PlacedDesign* design_;
  const StdCellLibrary* lib_;
  LithoSimulator sim_;          ///< the model OPC converges against
  LithoSimulator silicon_sim_;  ///< the process extraction measures
  FlowOptions options_;

  /// Per layout instance: corrected poly mask and OPC stats for its window
  /// (pre-sized slots — the parallel engine's write targets).  Empty until
  /// run_opc.
  std::vector<OpcWindowResult> opc_windows_;
  OpcStats opc_stats_;

  /// Instances whose OPC window degraded to the drawn mask; their gates
  /// skip extraction (drawn-CD annotation) so a silently-uncorrected mask
  /// never feeds CDs into STA.  Sized with opc_windows_ by run_opc.
  std::vector<char> opc_degraded_;

  /// Containment record (see health()).  Behind a shared_ptr — like
  /// caches_ — so the flow stays movable/copyable despite the mutex;
  /// extraction and the scan are const, but a faulted window still has to
  /// be reported.
  struct HealthState;
  std::shared_ptr<HealthState> health_state_;

  /// Window-cache storage (see WindowCaches above); null when disabled.
  /// shared_ptr so flow copies share one cache — the memoized values are
  /// pure functions of the fingerprinted inputs, so sharing is always
  /// sound.
  std::shared_ptr<WindowCaches> caches_;

  /// Write-ahead run journal (see JournalOptions); null when disabled or
  /// when opening it failed (the failure is recorded in health, and the
  /// run proceeds undurable).  shared_ptr for the same copyability reason
  /// as the caches; appends are internally synchronized.
  std::shared_ptr<RunJournal> journal_;

  /// Warm incremental timing graph, built lazily on the first
  /// run_sta_incremental call (parasitics extraction included) and reused
  /// across re-times so only changed-annotation cones re-propagate.
  /// Mutex-guarded behind a shared_ptr (copyability, const re-times).
  struct TimingState;
  std::shared_ptr<TimingState> timing_;
};

}  // namespace poc
