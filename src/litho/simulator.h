// Facade tying mask rasterization, Abbe imaging and the resist model into
// one call: layout rectangles in a window -> latent image ready for contour
// extraction.  Quality presets trade accuracy for speed: OPC inner loops run
// kDraft; sign-off extraction runs kStandard or kFine.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "src/geom/rect.h"
#include "src/litho/image.h"
#include "src/litho/imaging.h"
#include "src/litho/optics.h"
#include "src/litho/resist.h"

namespace poc {

class ScratchArena;  // src/litho/batch.h

enum class LithoQuality { kDraft, kStandard, kFine };

struct QualityParams {
  double pixel_nm;
  std::size_t source_rings;
  std::size_t source_spokes;
};

QualityParams quality_params(LithoQuality q);

class LithoSimulator {
 public:
  LithoSimulator() { init_quality_contexts(); }
  LithoSimulator(OpticalSettings optics, ResistModel resist,
                 ImagingOptions imaging = {})
      : optics_(optics), resist_(resist), imaging_(imaging) {
    init_quality_contexts();
  }

  const OpticalSettings& optics() const { return optics_; }
  const ResistModel& resist() const { return resist_; }

  /// Imaging engine (Abbe reference or SOCS fast path) used by aerial and
  /// latent unless a per-call mode override is given.  Part of the window
  /// fingerprints downstream, so flipping it can never alias cached images.
  const ImagingOptions& imaging() const { return imaging_; }
  void set_imaging(const ImagingOptions& imaging) { imaging_ = imaging; }

  /// Aerial intensity for chrome features in `window` at the given defocus.
  /// `mode` overrides the simulator-level imaging mode for this call (the
  /// SOCS truncation knobs still come from imaging()).
  Image2D aerial(const std::vector<Rect>& features, const Rect& window,
                 double defocus_nm,
                 LithoQuality quality = LithoQuality::kStandard,
                 std::optional<ImagingMode> mode = std::nullopt) const;

  /// Latent (blurred, dose-scaled) image; features print where the value is
  /// below resist().threshold.
  Image2D latent(const std::vector<Rect>& features, const Rect& window,
                 const Exposure& exposure,
                 LithoQuality quality = LithoQuality::kStandard,
                 std::optional<ImagingMode> mode = std::nullopt) const;

  /// The mask transmission grid latent() images: rasterized at the quality
  /// preset's pixel pitch.  The batched hot loops rasterize per window and
  /// hand the rasters to latent_batch below.
  Image2D rasterize(const std::vector<Rect>& features, const Rect& window,
                    LithoQuality quality = LithoQuality::kStandard) const;

  /// latent() for a batch of pre-rasterized masks of any shapes: groups
  /// them by shape (grid size and pixel) in first-appearance order, images
  /// each group through the batched SoA engine (SOCS; the Abbe reference
  /// falls back to per-mask scalar calls inside the batch layer) and
  /// finishes each image in ascending batch order.  Element w is
  /// bit-identical to latent() over the features that rasterized masks[w]
  /// — batching never changes values, only amortizes the transforms.
  /// Scratch comes from `arena` (per worker; see tls_scratch_arena).
  std::vector<Image2D> latent_batch(const Image2D* const* masks,
                                    std::size_t count,
                                    const Exposure& exposure,
                                    LithoQuality quality, ScratchArena& arena,
                                    std::optional<ImagingMode> mode =
                                        std::nullopt) const;

  /// The resist-side tail of latent(): dose scaling plus the non-finite
  /// guard (and its fault-injection probe).  latent() and latent_batch()
  /// share it so a batched window finishes through exactly the scalar code.
  void finish_latent(Image2D& latent, const Exposure& exposure) const;

  /// The print threshold contour level in the latent image.
  double print_threshold() const { return resist_.threshold; }

 private:
  /// Per-quality imaging resources, built once at construction: the
  /// quality-adjusted optical settings and the discretized source.  The
  /// window loops call aerial/latent millions of times; recomputing the
  /// source sampling (and copying OpticalSettings) per call was pure waste
  /// since both depend only on (optics, quality).
  struct QualityContext {
    OpticalSettings optics;
    std::vector<SourcePoint> source;
  };
  void init_quality_contexts();
  const QualityContext& quality_context(LithoQuality q) const {
    return quality_[static_cast<std::size_t>(q)];
  }

  OpticalSettings optics_;
  ResistModel resist_;
  ImagingOptions imaging_;
  std::array<QualityContext, 3> quality_;
};

}  // namespace poc
