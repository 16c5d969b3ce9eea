/**
 * @file
 * The ray tracing pipeline driver: builds the acceleration structure,
 * lays the scene out in GPU memory, and renders with one of the
 * LumiBench shaders (PT / SH / AO) by launching the ray generation
 * kernel on the simulated GPU.
 *
 * Mirrors the structure of Fig. 1: the ray generation shader runs on
 * the SIMT cores, traceRay executes in the RT unit, and the
 * closest-hit / miss shading work follows each traceRay on the cores.
 */

#ifndef LUMI_RT_PIPELINE_HH
#define LUMI_RT_PIPELINE_HH

#include <string>
#include <vector>

#include "bvh/accel.hh"
#include "gpu/gpu.hh"
#include "rt/shader.hh"
#include "scene/scene.hh"

namespace lumi
{

/**
 * Write @p pixels (linear radiance, row-major, @p width x @p height)
 * as a gamma-2.2 binary PPM; returns success.
 */
bool writePpm(const std::string &path, const std::vector<Vec3> &pixels,
              int width, int height);

/** Renders a scene on a simulated GPU. */
class RayTracingPipeline
{
  public:
    /**
     * Builds BLAS/TLAS for @p scene and lays everything out in
     * @p gpu's address space. Both must outlive the pipeline.
     */
    RayTracingPipeline(Gpu &gpu, const Scene &scene,
                       const RenderParams &params);

    /** Render one frame with @p kind; timing lands in gpu().stats(). */
    void render(ShaderKind kind);

    /**
     * Dynamic-scene support: after the caller re-poses instances
     * (Scene::setInstanceTransform), rebuild the TLAS in place and
     * clear the framebuffer for the next frame. BLASes are reused.
     */
    void beginFrame();

    const AccelStructure &accel() const { return accel_; }
    const SceneGpuLayout &layout() const { return layout_; }
    const RenderParams &params() const { return params_; }
    Gpu &gpu() { return gpu_; }

    /** The rendered image (linear radiance, one entry per pixel). */
    const std::vector<Vec3> &framebuffer() const
    {
        return framebuffer_;
    }

  private:
    void pathTracingWarp(WarpContext &ctx);
    void shadowWarp(WarpContext &ctx);
    void aoWarp(WarpContext &ctx);

    /** Per-lane deterministic sample in [0,1). */
    float sample01(uint32_t thread, uint32_t salt) const;

    /** Emit the camera ray setup; fills rays/pixels per lane. */
    void rayGeneration(WarpContext &ctx, Ray *rays, int *pixels);

    /** Accumulate a finished sample into the framebuffer. */
    void splat(int pixel, const Vec3 &color);

    Gpu &gpu_;
    const Scene &scene_;
    RenderParams params_;
    AccelStructure accel_;
    SceneGpuLayout layout_;
    std::vector<Vec3> framebuffer_;
    float aoRadius_ = 1.0f;
};

} // namespace lumi

#endif // LUMI_RT_PIPELINE_HH
