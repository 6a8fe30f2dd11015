#include "src/litho/simulator.h"

#include <limits>

#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/litho/batch.h"
#include "src/litho/imaging.h"
#include "src/litho/mask.h"

namespace poc {

QualityParams quality_params(LithoQuality q) {
  switch (q) {
    case LithoQuality::kDraft: return {10.0, 1, 6};
    case LithoQuality::kStandard: return {8.0, 2, 8};
    case LithoQuality::kFine: return {5.0, 3, 12};
  }
  return {8.0, 2, 8};
}

void LithoSimulator::init_quality_contexts() {
  for (const LithoQuality q : {LithoQuality::kDraft, LithoQuality::kStandard,
                               LithoQuality::kFine}) {
    const QualityParams qp = quality_params(q);
    QualityContext& ctx = quality_[static_cast<std::size_t>(q)];
    ctx.optics = optics_;
    ctx.optics.source_rings = qp.source_rings;
    ctx.optics.source_spokes = qp.source_spokes;
    ctx.source = sample_source(ctx.optics);
  }
}

Image2D LithoSimulator::aerial(const std::vector<Rect>& features,
                               const Rect& window, double defocus_nm,
                               LithoQuality quality,
                               std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  const Image2D mask =
      rasterize_mask(features, window, quality_params(quality).pixel_nm);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  return aerial_image_blurred(mask, ctx.optics, defocus_nm, 0.0, ctx.source,
                              imaging);
}

Image2D LithoSimulator::latent(const std::vector<Rect>& features,
                               const Rect& window, const Exposure& exposure,
                               LithoQuality quality,
                               std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  const Image2D mask =
      rasterize_mask(features, window, quality_params(quality).pixel_nm);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  // Blur applied in the imaging upsample pass; only the dose scale remains.
  Image2D latent = aerial_image_blurred(mask, ctx.optics, exposure.focus_nm,
                                        resist_.diffusion_nm, ctx.source,
                                        imaging);
  finish_latent(latent, exposure);
  return latent;
}

Image2D LithoSimulator::rasterize(const std::vector<Rect>& features,
                                  const Rect& window,
                                  LithoQuality quality) const {
  return rasterize_mask(features, window, quality_params(quality).pixel_nm);
}

std::vector<Image2D> LithoSimulator::latent_batch(
    const Image2D* const* masks, std::size_t count, const Exposure& exposure,
    LithoQuality quality, ScratchArena& arena,
    std::optional<ImagingMode> mode) const {
  const QualityContext& ctx = quality_context(quality);
  ImagingOptions imaging = imaging_;
  if (mode) imaging.mode = *mode;
  // Same-shape groups in first-appearance order; each is one SoA batch.
  std::vector<Image2D> out(count);
  std::vector<char> grouped(count, 0);
  std::vector<const Image2D*> group;
  std::vector<std::size_t> slots;
  for (std::size_t j = 0; j < count; ++j) {
    if (grouped[j]) continue;
    const Image2D& ref = *masks[j];
    group.clear();
    slots.clear();
    for (std::size_t t = j; t < count; ++t) {
      const Image2D& m = *masks[t];
      if (!grouped[t] && m.nx() == ref.nx() && m.ny() == ref.ny() &&
          m.pixel() == ref.pixel()) {
        grouped[t] = 1;
        group.push_back(&m);
        slots.push_back(t);
      }
    }
    std::vector<Image2D> images = aerial_image_blurred_batch(
        group.data(), group.size(), ctx.optics, exposure.focus_nm,
        resist_.diffusion_nm, ctx.source, imaging, arena);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      out[slots[s]] = std::move(images[s]);
    }
  }
  for (Image2D& latent : out) finish_latent(latent, exposure);
  return out;
}

void LithoSimulator::finish_latent(Image2D& latent,
                                   const Exposure& exposure) const {
  for (double& v : latent.data()) v *= exposure.dose;
  if (fault::enabled() && fault::should(fault::Kind::kNanPixel)) {
    latent.data()[0] = std::numeric_limits<double>::quiet_NaN();
  }
  // Boundary guard: contour extraction bisects this image for CDs, and a
  // NaN CD would flow silently into the device model and STA.  Raise the
  // structured fault here, where the window loops can contain it.
  if (!latent.all_finite()) {
    throw FlowException(FlowError{FaultCode::kNonFinite, kNoWindowId,
                                  "litho.latent",
                                  "non-finite intensity in latent image"});
  }
}

}  // namespace poc
