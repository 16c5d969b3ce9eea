/**
 * @file
 * Render a user-supplied Wavefront OBJ mesh on the simulated GPU --
 * the bridge from the procedural benchmark scenes to real assets
 * (the paper's application loads OBJ scene files).
 *
 *     ./build/examples/obj_viewer mesh.obj [PT|SH|AO] [out.ppm]
 *
 * The mesh is centered, lit with a three-point setup, and rendered
 * with the requested LumiBench shader; characterization statistics
 * print afterwards.
 */

#include <cstdio>
#include <cstring>

#include "geometry/obj_loader.hh"
#include "geometry/shapes.hh"
#include "gpu/gpu.hh"
#include "rt/pipeline.hh"

using namespace lumi;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: obj_viewer mesh.obj [PT|SH|AO] "
                     "[out.ppm]\n");
        return 2;
    }
    ShaderKind shader = ShaderKind::Shadow;
    if (argc > 2) {
        if (std::strcmp(argv[2], "PT") == 0)
            shader = ShaderKind::PathTracing;
        else if (std::strcmp(argv[2], "AO") == 0)
            shader = ShaderKind::AmbientOcclusion;
    }
    const char *out_path = argc > 3 ? argv[3] : "obj_viewer.ppm";

    ObjLoadResult loaded = loadObjFile(argv[1]);
    if (!loaded.ok) {
        std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                     loaded.error.c_str());
        return 1;
    }
    std::printf("loaded %s: %zu triangles, %zu vertices"
                " (%d directives skipped)\n",
                argv[1], loaded.mesh.triangleCount(),
                loaded.mesh.positions.size(),
                loaded.skippedDirectives);

    // Build a minimal stage around the mesh: a ground plane sized
    // to the model and a three-point light rig.
    Scene scene;
    scene.name = "OBJ";
    Material surface;
    surface.albedo = {0.7f, 0.7f, 0.72f};
    loaded.mesh.materialId = scene.addMaterial(surface);
    Aabb bounds = loaded.mesh.bounds();
    Vec3 center = bounds.center();
    float radius = length(bounds.extent()) * 0.5f + 1e-4f;
    scene.addInstance(scene.addGeometry(std::move(loaded.mesh)),
                      Mat4::identity());

    Material ground_mat;
    ground_mat.albedo = {0.45f, 0.45f, 0.45f};
    TriangleMesh ground = shapes::gridPlane(radius * 8.0f,
                                            radius * 8.0f, 8, 8);
    ground.transform(Mat4::translate({center.x, bounds.lo.y,
                                      center.z}));
    ground.materialId = scene.addMaterial(ground_mat);
    scene.addInstance(scene.addGeometry(std::move(ground)),
                      Mat4::identity());

    scene.lights.push_back(
        {Light::Type::Directional,
         normalize(Vec3{0.4f, 1.0f, 0.3f}), {2.6f, 2.6f, 2.5f}});
    scene.lights.push_back(
        {Light::Type::Point,
         center + Vec3(radius * 2.0f, radius * 2.0f, radius),
         Vec3(6.0f, 6.0f, 5.5f) * (radius * radius)});
    scene.frame({0.8f, 0.35f, 1.0f}, 1.6f);

    Gpu gpu(GpuConfig::mobile());
    RenderParams params;
    params.width = 128;
    params.height = 128;
    RayTracingPipeline pipeline(gpu, scene, params);
    pipeline.render(shader);

    const GpuStats &stats = gpu.stats();
    AccelStats accel = pipeline.accel().computeStats();
    std::printf("%s render: %llu cycles, %llu rays, BVH depth %d, "
                "%.1f nodes/ray, RT efficiency %.3f\n",
                shaderName(shader),
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.raysTraced),
                accel.totalDepth, stats.avgTraversalLength(),
                stats.rtEfficiency());
    if (writePpm(out_path, pipeline.framebuffer(), params.width,
                 params.height))
        std::printf("wrote %s\n", out_path);
    return 0;
}
