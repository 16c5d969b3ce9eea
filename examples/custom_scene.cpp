/**
 * @file
 * Building a custom workload through the public API: construct a
 * scene from scratch (geometry, materials, instances, lights), add a
 * procedural-sphere BLAS and an alpha-masked canopy, then render it
 * with all three LumiBench shaders and compare their behavior.
 *
 * This is the path a researcher takes to add a new benchmark scene
 * to the suite (Sec. 4.2: "workloads can be customized").
 */

#include <cstdio>

#include "geometry/shapes.hh"
#include "gpu/gpu.hh"
#include "math/rng.hh"
#include "rt/pipeline.hh"

using namespace lumi;

namespace
{

Scene
buildGallery()
{
    Scene scene;
    scene.name = "GALLERY";
    scene.enclosed = true;
    Rng rng(2024);

    // Materials: matte walls, a mirror column, an alpha-masked
    // banner (exercises anyhit), plus a light gray floor.
    int wall_tex = scene.addTexture(Texture(Texture::Kind::Noise,
                                            256, 256,
                                            {0.8f, 0.78f, 0.72f},
                                            {0.65f, 0.62f, 0.58f},
                                            12.0f));
    int banner_tex = scene.addTexture(Texture(
        Texture::Kind::FrondMask, 256, 256, {0.2f, 0.3f, 0.7f},
        {0.5f, 0.6f, 0.9f}, 3.0f));
    Material walls;
    walls.albedo = {0.75f, 0.73f, 0.68f};
    walls.textureId = wall_tex;
    int walls_mat = scene.addMaterial(walls);
    Material mirror;
    mirror.albedo = {0.9f, 0.9f, 0.9f};
    mirror.reflectivity = 0.85f;
    int mirror_mat = scene.addMaterial(mirror);
    Material banner;
    banner.albedo = {0.3f, 0.4f, 0.8f};
    banner.textureId = banner_tex;
    banner.alphaTextureId = banner_tex; // non-opaque -> anyhit
    int banner_mat = scene.addMaterial(banner);
    Material glass;
    glass.albedo = {0.7f, 0.85f, 0.8f};
    glass.reflectivity = 0.5f;
    int glass_mat = scene.addMaterial(glass);

    // The room.
    TriangleMesh room = shapes::roomShell({-6.0f, 0.0f, -4.0f},
                                          {6.0f, 4.0f, 4.0f}, 10);
    room.materialId = walls_mat;
    scene.addInstance(scene.addGeometry(std::move(room)),
                      Mat4::identity());

    // A mirrored column, instanced four times.
    TriangleMesh column = shapes::cylinder({0.0f, 0.0f, 0.0f}, 0.3f,
                                           4.0f, 24, 4);
    column.materialId = mirror_mat;
    int column_id = scene.addGeometry(std::move(column));
    for (int i = 0; i < 4; i++) {
        float x = (i % 2) ? 3.0f : -3.0f;
        float z = (i / 2) ? 2.0f : -2.0f;
        scene.addInstance(column_id, Mat4::translate({x, 0.0f, z}));
    }

    // Hanging alpha-masked banners.
    TriangleMesh card = shapes::texturedQuad({-0.6f, -1.0f, 0.0f},
                                             {1.2f, 0.0f, 0.0f},
                                             {0.0f, 2.0f, 0.0f});
    card.materialId = banner_mat;
    int card_id = scene.addGeometry(std::move(card));
    for (int i = 0; i < 6; i++) {
        scene.addInstance(card_id,
                          Mat4::translate({-4.0f + 1.6f * i, 2.6f,
                                           (i % 2) ? 1.0f : -1.0f}) *
                              Mat4::rotateY(rng.nextRange(-0.4f,
                                                          0.4f)));
    }

    // A procedural-sphere exhibit (exercises intersection shaders).
    ProceduralSpheres exhibit;
    exhibit.materialId = glass_mat;
    for (int i = 0; i < 60; i++) {
        Vec3 center = rng.nextInBox({-1.2f, 0.4f, -1.2f},
                                    {1.2f, 2.8f, 1.2f});
        exhibit.spheres.push_back(
            Vec4(center, rng.nextRange(0.08f, 0.25f)));
    }
    scene.addInstance(scene.addGeometry(std::move(exhibit)),
                      Mat4::identity());

    scene.lights.push_back({Light::Type::Point, {0.0f, 3.8f, 0.0f},
                            {14.0f, 14.0f, 13.0f}});
    scene.lights.push_back({Light::Type::Point, {-4.5f, 2.0f, 3.0f},
                            {5.0f, 4.5f, 4.0f}});
    scene.camera = Camera({5.0f, 2.0f, 3.2f}, {-1.5f, 1.4f, -0.8f},
                          {0.0f, 1.0f, 0.0f}, 62.0f);
    return scene;
}

} // namespace

int
main()
{
    Scene scene = buildGallery();
    std::printf("custom scene '%s': %zu prims, %zu instances, "
                "anyhit=%s, procedural=%s\n\n",
                scene.name.c_str(), scene.uniquePrimitives(),
                scene.instances.size(),
                scene.usesAnyHit() ? "yes" : "no",
                scene.proceduralGeometryCount() ? "yes" : "no");

    RenderParams params;
    params.width = 64;
    params.height = 64;

    std::printf("%-6s %10s %8s %8s %8s %10s %10s\n", "shader",
                "cycles", "rays", "rt_eff", "simt", "anyhit",
                "isect");
    for (ShaderKind shader : {ShaderKind::PathTracing,
                              ShaderKind::Shadow,
                              ShaderKind::AmbientOcclusion}) {
        // Fresh GPU per shader so the statistics are independent.
        Gpu gpu(GpuConfig::mobile());
        RayTracingPipeline pipeline(gpu, scene, params);
        pipeline.render(shader);
        const GpuStats &s = gpu.stats();
        std::printf("%-6s %10llu %8llu %8.3f %8.3f %10llu %10llu\n",
                    shaderName(shader),
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.raysTraced),
                    s.rtEfficiency(), s.simtEfficiency(),
                    static_cast<unsigned long long>(
                        s.anyHitInvocations),
                    static_cast<unsigned long long>(
                        s.intersectionInvocations));
        std::string path = std::string("gallery_") +
                           shaderName(shader) + ".ppm";
        writePpm(path, pipeline.framebuffer(), params.width,
                 params.height);
    }
    std::printf("\nwrote gallery_PT.ppm / gallery_SH.ppm / "
                "gallery_AO.ppm\n");
    return 0;
}
