#include "rt/pipeline.hh"

#include <cmath>
#include <cstdio>
#include <limits>

#include "math/rng.hh"
#include "math/sampling.hh"
#include "rt/shading.hh"

namespace lumi
{

namespace
{
constexpr float infinity = std::numeric_limits<float>::max();
constexpr int warpSize = WarpContext::warpSize;
} // namespace

RayTracingPipeline::RayTracingPipeline(Gpu &gpu, const Scene &scene,
                                       const RenderParams &params)
    : gpu_(gpu), scene_(scene), params_(params)
{
    accel_.build(scene_);
    layout_ = SceneGpuLayout::create(gpu_.addressSpace(), accel_,
                                     params_.pixels(),
                                     params_.totalSamples());
    framebuffer_.assign(params_.pixels(), Vec3(0.0f));
    aoRadius_ = params_.aoRadiusScale *
                length(scene_.worldBounds().extent());
    if (aoRadius_ <= 0.0f)
        aoRadius_ = 1.0f;
}

float
RayTracingPipeline::sample01(uint32_t thread, uint32_t salt) const
{
    uint32_t h = hashCombine(hashCombine(params_.seed, thread), salt);
    return static_cast<float>(h >> 8) * (1.0f / 16777216.0f);
}

void
RayTracingPipeline::splat(int pixel, const Vec3 &color)
{
    framebuffer_[pixel] += color * (1.0f / params_.samplesPerPixel);
}

void
RayTracingPipeline::rayGeneration(WarpContext &ctx, Ray *rays,
                                  int *pixels)
{
    // Pixel index arithmetic, jitter hashing, camera basis math.
    ctx.alu(12);
    ctx.sfu(2);
    for (int lane = 0; lane < warpSize; lane++) {
        if (!ctx.laneActive(lane))
            continue;
        uint32_t tid = ctx.threadIndex(lane);
        int pixel = static_cast<int>(tid / params_.samplesPerPixel);
        int px = pixel % params_.width;
        int py = pixel / params_.width;
        float jx = sample01(tid, 0xa1);
        float jy = sample01(tid, 0xa2);
        rays[lane] = scene_.camera.generateRay(px, py, params_.width,
                                               params_.height, jx, jy);
        pixels[lane] = pixel;
    }
}

void
RayTracingPipeline::beginFrame()
{
    accel_.refitTlas();
    framebuffer_.assign(params_.pixels(), Vec3(0.0f));
}

void
RayTracingPipeline::render(ShaderKind kind)
{
    int total = params_.totalSamples();
    KernelLaunch launch;
    launch.name = shaderName(kind);
    launch.warpCount = (total + warpSize - 1) / warpSize;
    int tail = total % warpSize;
    launch.lanesInLastWarp = tail == 0 ? warpSize : tail;
    launch.layout = &layout_;
    launch.program = [this, kind](WarpContext &ctx) {
        switch (kind) {
          case ShaderKind::PathTracing:
            pathTracingWarp(ctx);
            break;
          case ShaderKind::Shadow:
            shadowWarp(ctx);
            break;
          case ShaderKind::AmbientOcclusion:
            aoWarp(ctx);
            break;
          case ShaderKind::PointContainment:
          case ShaderKind::Knn:
            // Query kernels run through rtq::RtqPipeline, never here.
            break;
        }
    };
    gpu_.run(launch);
}

// --------------------------------------------------------------------
// Path tracing (PT): recursive bounces with next-event estimation.
// Rays diverge progressively -- the SIMT-efficiency stress (Fig. 9).
// --------------------------------------------------------------------

void
RayTracingPipeline::pathTracingWarp(WarpContext &ctx)
{
    Ray rays[warpSize];
    int pixels[warpSize];
    Vec3 throughput[warpSize];
    Vec3 radiance[warpSize];
    bool alive[warpSize] = {};
    HitInfo hits[warpSize];
    SurfaceInteraction surfaces[warpSize];
    uint32_t salts[warpSize] = {};

    rayGeneration(ctx, rays, pixels);
    for (int lane = 0; lane < warpSize; lane++) {
        throughput[lane] = Vec3(1.0f);
        radiance[lane] = Vec3(0.0f);
        alive[lane] = ctx.laneActive(lane);
    }

    int num_lights = static_cast<int>(scene_.lights.size());
    for (int depth = 0; depth < params_.maxDepth; depth++) {
        ctx.branch(
            [&](int lane) { return alive[lane]; },
            [&] {
                RayKind kind = depth == 0 ? RayKind::Primary
                                          : RayKind::Secondary;
                ctx.traceRay([&](int lane) { return rays[lane]; },
                             [](int) { return infinity; }, false,
                             kind, hits);
                ctx.branch(
                    [&](int lane) { return hits[lane].hit; },
                    [&] {
                        // Closest-hit: fetch material + geometry and
                        // reconstruct the surface frame.
                        for (int lane = 0; lane < warpSize; lane++) {
                            if (!ctx.laneActive(lane))
                                continue;
                            surfaces[lane] = computeSurface(
                                scene_, hits[lane], rays[lane]);
                        }
                        ctx.load(16, [&](int lane) {
                            return layout_.materialAddress(
                                surfaces[lane].materialId);
                        });
                        ctx.load(48, [&](int lane) {
                            return layout_.triangleAddress(
                                hits[lane].geometryId,
                                hits[lane].primIndex);
                        });
                        ctx.alu(18); // barycentrics, normal, frame
                        ctx.branch(
                            [&](int lane) {
                                const Material &m =
                                    scene_.materials[surfaces[lane]
                                                         .materialId];
                                return m.textureId >= 0;
                            },
                            [&] {
                                ctx.load(4, [&](int lane) {
                                    const Material &m =
                                        scene_.materials
                                            [surfaces[lane]
                                                 .materialId];
                                    const Texture &t =
                                        scene_.textures[m.textureId];
                                    uint64_t off = t.texelOffset(
                                        surfaces[lane].uv.x,
                                        surfaces[lane].uv.y);
                                    return layout_.texelAddress(
                                        m.textureId, off);
                                });
                                ctx.alu(4); // filtering + modulate
                            });

                        // Emission pickup (path termination on
                        // emissive surfaces).
                        for (int lane = 0; lane < warpSize; lane++) {
                            if (!ctx.laneActive(lane))
                                continue;
                            const Material &m =
                                scene_.materials[surfaces[lane]
                                                     .materialId];
                            radiance[lane] +=
                                throughput[lane] * m.emission;
                        }

                        // Next-event estimation: one shadow ray at a
                        // light sampled per lane.
                        if (num_lights > 0) {
                            Ray shadow_rays[warpSize];
                            float shadow_tmax[warpSize];
                            Vec3 contrib[warpSize];
                            HitInfo occl[warpSize];
                            ctx.alu(10);
                            ctx.sfu(2); // direction normalize, dist
                            for (int lane = 0; lane < warpSize;
                                 lane++) {
                                if (!ctx.laneActive(lane))
                                    continue;
                                uint32_t tid = ctx.threadIndex(lane);
                                int li = static_cast<int>(
                                             hashCombine(
                                                 tid,
                                                 0xbeef + depth +
                                                     salts[lane]++)) %
                                         num_lights;
                                if (li < 0)
                                    li += num_lights;
                                const Light &light =
                                    scene_.lights[li];
                                const SurfaceInteraction &s =
                                    surfaces[lane];
                                Vec3 dir;
                                float dist;
                                if (light.type ==
                                    Light::Type::Point) {
                                    Vec3 to = light.positionOrDir -
                                              s.position;
                                    dist = length(to);
                                    dir = dist > 0.0f ? to / dist
                                                      : Vec3(0, 1, 0);
                                } else {
                                    dir = light.positionOrDir;
                                    dist = infinity;
                                }
                                shadow_rays[lane] = {
                                    s.position + s.normal * 1e-3f,
                                    dir};
                                shadow_tmax[lane] =
                                    dist == infinity
                                        ? infinity
                                        : dist - 1e-3f;
                                float cos_term = std::max(
                                    0.0f, dot(s.normal, dir));
                                float falloff =
                                    light.type == Light::Type::Point
                                        ? 1.0f /
                                              std::max(1.0f,
                                                       dist * dist)
                                        : 1.0f;
                                Vec3 albedo = surfaceAlbedo(scene_,
                                                            s);
                                contrib[lane] =
                                    throughput[lane] * albedo *
                                    light.intensity *
                                    (cos_term * falloff *
                                     num_lights);
                            }
                            ctx.load(32, [&](int lane) {
                                uint32_t tid = ctx.threadIndex(lane);
                                int li =
                                    static_cast<int>(hashCombine(
                                        tid, 0xbeef + depth +
                                                 salts[lane] - 1)) %
                                    num_lights;
                                if (li < 0)
                                    li += num_lights;
                                return layout_.lightAddress(li);
                            });
                            ctx.traceRay(
                                [&](int lane) {
                                    return shadow_rays[lane];
                                },
                                [&](int lane) {
                                    return shadow_tmax[lane];
                                },
                                true, RayKind::Shadow, occl);
                            ctx.branch(
                                [&](int lane) {
                                    return !occl[lane].hit;
                                },
                                [&] {
                                    ctx.alu(6);
                                    for (int lane = 0;
                                         lane < warpSize; lane++) {
                                        if (ctx.laneActive(lane))
                                            radiance[lane] +=
                                                contrib[lane];
                                    }
                                });
                        }

                        // Bounce: mirror for reflective materials,
                        // cosine-weighted diffuse otherwise.
                        ctx.alu(8);
                        ctx.sfu(2);
                        for (int lane = 0; lane < warpSize; lane++) {
                            if (!ctx.laneActive(lane))
                                continue;
                            const SurfaceInteraction &s =
                                surfaces[lane];
                            const Material &m =
                                scene_.materials[s.materialId];
                            uint32_t tid = ctx.threadIndex(lane);
                            float pick = sample01(
                                tid, 0xc0de + depth * 7 +
                                         salts[lane]++);
                            Vec3 new_dir;
                            if (pick < m.reflectivity) {
                                new_dir = reflect(rays[lane].dir,
                                                  s.normal);
                            } else {
                                float u1 = sample01(
                                    tid, 0xd1 + depth * 13 +
                                             salts[lane]++);
                                float u2 = sample01(
                                    tid, 0xd2 + depth * 17 +
                                             salts[lane]++);
                                Onb onb = Onb::fromNormal(s.normal);
                                new_dir = onb.toWorld(
                                    cosineSampleHemisphere(u1, u2));
                            }
                            rays[lane] = {s.position +
                                              s.normal * 1e-3f,
                                          new_dir};
                            throughput[lane] =
                                throughput[lane] *
                                surfaceAlbedo(scene_, s);
                        }
                    },
                    [&] {
                        // Miss shader: sky contribution, path ends.
                        ctx.alu(5);
                        for (int lane = 0; lane < warpSize; lane++) {
                            if (!ctx.laneActive(lane))
                                continue;
                            radiance[lane] +=
                                throughput[lane] *
                                scene_.background(rays[lane].dir);
                            alive[lane] = false;
                        }
                    });
            });
    }

    // Write back the accumulated radiance.
    ctx.alu(4);
    ctx.store(SceneGpuLayout::pixelStride, [&](int lane) {
        return layout_.pixelAddress(pixels[lane]);
    });
    for (int lane = 0; lane < warpSize; lane++) {
        if (ctx.laneActive(lane))
            splat(pixels[lane], radiance[lane]);
    }
}

// --------------------------------------------------------------------
// Shadows (SH): one occlusion ray per light from the primary hit.
// Coherent secondary rays; first-hit termination (Sec. 3.3.3).
// --------------------------------------------------------------------

void
RayTracingPipeline::shadowWarp(WarpContext &ctx)
{
    Ray rays[warpSize];
    int pixels[warpSize];
    Vec3 radiance[warpSize];
    HitInfo hits[warpSize];
    SurfaceInteraction surfaces[warpSize];

    rayGeneration(ctx, rays, pixels);
    for (int lane = 0; lane < warpSize; lane++)
        radiance[lane] = Vec3(0.0f);

    ctx.traceRay([&](int lane) { return rays[lane]; },
                 [](int) { return infinity; }, false,
                 RayKind::Primary, hits);

    ctx.branch(
        [&](int lane) { return hits[lane].hit; },
        [&] {
            for (int lane = 0; lane < warpSize; lane++) {
                if (ctx.laneActive(lane))
                    surfaces[lane] = computeSurface(scene_,
                                                    hits[lane],
                                                    rays[lane]);
            }
            ctx.load(16, [&](int lane) {
                return layout_.materialAddress(
                    surfaces[lane].materialId);
            });
            ctx.load(48, [&](int lane) {
                return layout_.triangleAddress(hits[lane].geometryId,
                                               hits[lane].primIndex);
            });
            ctx.alu(18);

            // Ambient base term.
            for (int lane = 0; lane < warpSize; lane++) {
                if (ctx.laneActive(lane)) {
                    radiance[lane] = surfaceAlbedo(scene_,
                                                   surfaces[lane]) *
                                     0.1f;
                }
            }

            // One (or more) shadow rays per light, all lights.
            for (size_t li = 0; li < scene_.lights.size(); li++) {
                const Light &light = scene_.lights[li];
                ctx.loadUniform(layout_.lightAddress(
                                    static_cast<int>(li)),
                                SceneGpuLayout::lightStride);
                for (int s = 0; s < params_.shadowRaysPerLight;
                     s++) {
                    Ray shadow_rays[warpSize];
                    float shadow_tmax[warpSize];
                    Vec3 contrib[warpSize];
                    HitInfo occl[warpSize];
                    ctx.alu(9);
                    ctx.sfu(2);
                    for (int lane = 0; lane < warpSize; lane++) {
                        if (!ctx.laneActive(lane))
                            continue;
                        const SurfaceInteraction &surf =
                            surfaces[lane];
                        Vec3 dir;
                        float dist;
                        if (light.type == Light::Type::Point) {
                            Vec3 to = light.positionOrDir -
                                      surf.position;
                            dist = length(to);
                            dir = dist > 0.0f ? to / dist
                                              : Vec3(0, 1, 0);
                        } else {
                            dir = light.positionOrDir;
                            dist = infinity;
                        }
                        shadow_rays[lane] = {surf.position +
                                                 surf.normal * 1e-3f,
                                             dir};
                        shadow_tmax[lane] = dist == infinity
                                                ? infinity
                                                : dist - 1e-3f;
                        float cos_term = std::max(0.0f,
                                                  dot(surf.normal,
                                                      dir));
                        float falloff =
                            light.type == Light::Type::Point
                                ? 1.0f / std::max(1.0f, dist * dist)
                                : 1.0f;
                        contrib[lane] =
                            surfaceAlbedo(scene_, surf) *
                            light.intensity *
                            (cos_term * falloff /
                             params_.shadowRaysPerLight);
                    }
                    ctx.traceRay(
                        [&](int lane) { return shadow_rays[lane]; },
                        [&](int lane) { return shadow_tmax[lane]; },
                        true, RayKind::Shadow, occl);
                    ctx.branch(
                        [&](int lane) { return !occl[lane].hit; },
                        [&] {
                            ctx.alu(5);
                            for (int lane = 0; lane < warpSize;
                                 lane++) {
                                if (ctx.laneActive(lane))
                                    radiance[lane] += contrib[lane];
                            }
                        });
                }
            }
        },
        [&] {
            ctx.alu(5);
            for (int lane = 0; lane < warpSize; lane++) {
                if (ctx.laneActive(lane))
                    radiance[lane] =
                        scene_.background(rays[lane].dir);
            }
        });

    ctx.alu(4);
    ctx.store(SceneGpuLayout::pixelStride, [&](int lane) {
        return layout_.pixelAddress(pixels[lane]);
    });
    for (int lane = 0; lane < warpSize; lane++) {
        if (ctx.laneActive(lane))
            splat(pixels[lane], radiance[lane]);
    }
}

// --------------------------------------------------------------------
// Ambient occlusion (AO): short random occlusion rays from the
// primary hit; divergent directions, early termination (Sec. 3.3.4).
// --------------------------------------------------------------------

void
RayTracingPipeline::aoWarp(WarpContext &ctx)
{
    Ray rays[warpSize];
    int pixels[warpSize];
    Vec3 radiance[warpSize];
    HitInfo hits[warpSize];
    SurfaceInteraction surfaces[warpSize];
    int occluded[warpSize] = {};

    rayGeneration(ctx, rays, pixels);
    ctx.traceRay([&](int lane) { return rays[lane]; },
                 [](int) { return infinity; }, false,
                 RayKind::Primary, hits);

    ctx.branch(
        [&](int lane) { return hits[lane].hit; },
        [&] {
            for (int lane = 0; lane < warpSize; lane++) {
                if (ctx.laneActive(lane))
                    surfaces[lane] = computeSurface(scene_,
                                                    hits[lane],
                                                    rays[lane]);
            }
            ctx.load(16, [&](int lane) {
                return layout_.materialAddress(
                    surfaces[lane].materialId);
            });
            ctx.load(48, [&](int lane) {
                return layout_.triangleAddress(hits[lane].geometryId,
                                               hits[lane].primIndex);
            });
            ctx.alu(18);

            for (int s = 0; s < params_.aoRays; s++) {
                Ray ao_rays[warpSize];
                HitInfo occl[warpSize];
                ctx.alu(8);
                ctx.sfu(2); // hemisphere sample
                for (int lane = 0; lane < warpSize; lane++) {
                    if (!ctx.laneActive(lane))
                        continue;
                    uint32_t tid = ctx.threadIndex(lane);
                    float u1 = sample01(tid, 0xa0 + s * 31);
                    float u2 = sample01(tid, 0xb0 + s * 37);
                    Onb onb =
                        Onb::fromNormal(surfaces[lane].normal);
                    Vec3 dir = onb.toWorld(
                        cosineSampleHemisphere(u1, u2));
                    ao_rays[lane] = {surfaces[lane].position +
                                         surfaces[lane].normal *
                                             1e-3f,
                                     dir};
                }
                ctx.traceRay(
                    [&](int lane) { return ao_rays[lane]; },
                    [&](int) { return aoRadius_; }, true,
                    RayKind::AmbientOcclusion, occl);
                ctx.alu(2); // occlusion counter update
                for (int lane = 0; lane < warpSize; lane++) {
                    if (ctx.laneActive(lane) && occl[lane].hit)
                        occluded[lane]++;
                }
            }
            ctx.alu(6); // visibility average + modulate
            for (int lane = 0; lane < warpSize; lane++) {
                if (!ctx.laneActive(lane))
                    continue;
                float visibility =
                    1.0f - static_cast<float>(occluded[lane]) /
                               params_.aoRays;
                radiance[lane] =
                    surfaceAlbedo(scene_, surfaces[lane]) *
                    visibility;
            }
        },
        [&] {
            ctx.alu(5);
            for (int lane = 0; lane < warpSize; lane++) {
                if (ctx.laneActive(lane))
                    radiance[lane] =
                        scene_.background(rays[lane].dir);
            }
        });

    ctx.alu(4);
    ctx.store(SceneGpuLayout::pixelStride, [&](int lane) {
        return layout_.pixelAddress(pixels[lane]);
    });
    for (int lane = 0; lane < warpSize; lane++) {
        if (ctx.laneActive(lane))
            splat(pixels[lane], radiance[lane]);
    }
}

bool
writePpm(const std::string &path, const std::vector<Vec3> &pixels,
         int width, int height)
{
    FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    bool ok = std::fprintf(file, "P6\n%d %d\n255\n", width, height) >= 0;
    for (const Vec3 &pixel : pixels) {
        auto encode = [](float v) {
            // Gamma 2.2 with clamp.
            v = std::pow(std::max(0.0f, std::min(1.0f, v)),
                         1.0f / 2.2f);
            return static_cast<unsigned char>(v * 255.0f + 0.5f);
        };
        unsigned char rgb[3] = {encode(pixel.x), encode(pixel.y),
                                encode(pixel.z)};
        if (std::fwrite(rgb, 1, 3, file) != 3)
            ok = false;
    }
    if (std::fclose(file) != 0)
        ok = false;
    return ok;
}

} // namespace lumi
