/**
 * @file
 * Quickstart: render one LumiBench workload on the simulated GPU and
 * print the headline statistics.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart [SCENE] [PT|SH|AO]
 *
 * Writes the rendered frame to quickstart.ppm in the working
 * directory.
 */

#include <cstdio>
#include <cstring>

#include "gpu/gpu.hh"
#include "rt/pipeline.hh"
#include "scene/scene_library.hh"

using namespace lumi;

int
main(int argc, char **argv)
{
    // Pick the workload: default BUNNY_AO, the simplest Table 2
    // entry.
    SceneId scene_id = SceneId::BUNNY;
    ShaderKind shader = ShaderKind::AmbientOcclusion;
    if (argc > 1) {
        for (SceneId id : lumiScenes()) {
            if (std::strcmp(argv[1], sceneName(id)) == 0)
                scene_id = id;
        }
    }
    if (argc > 2) {
        if (std::strcmp(argv[2], "PT") == 0)
            shader = ShaderKind::PathTracing;
        else if (std::strcmp(argv[2], "SH") == 0)
            shader = ShaderKind::Shadow;
        else if (std::strcmp(argv[2], "AO") == 0)
            shader = ShaderKind::AmbientOcclusion;
    }

    // 1. Build the scene (procedural, deterministic).
    Scene scene = buildScene(scene_id, 1.0f);
    std::printf("scene %s: %zu unique primitives, %zu instances, "
                "%zu lights\n",
                scene.name.c_str(), scene.uniquePrimitives(),
                scene.instances.size(), scene.lights.size());

    // 2. Create the simulated GPU (Table 4 mobile configuration).
    Gpu gpu(GpuConfig::mobile());

    // 3. Build the pipeline: BLAS/TLAS construction + GPU layout.
    RenderParams params;
    params.width = 96;
    params.height = 96;
    params.samplesPerPixel = 1;
    RayTracingPipeline pipeline(gpu, scene, params);
    AccelStats accel = pipeline.accel().computeStats();
    std::printf("BVH: %zu BLAS nodes, %zu TLAS nodes, depth %d\n",
                accel.blasNodes, accel.tlasNodes, accel.totalDepth);

    // 4. Render one frame (simulates every cycle).
    pipeline.render(shader);

    // 5. Inspect the results.
    const GpuStats &stats = gpu.stats();
    std::printf("\n%s_%s on %s:\n", scene.name.c_str(),
                shaderName(shader), gpu.config().name.c_str());
    std::printf("  cycles            %llu\n",
                static_cast<unsigned long long>(stats.cycles));
    std::printf("  rays traced       %llu (%.1f%% hit)\n",
                static_cast<unsigned long long>(stats.raysTraced),
                100.0 * stats.raysHit /
                    std::max<uint64_t>(1, stats.raysTraced));
    std::printf("  IPC (thread)      %.2f\n",
                static_cast<double>(stats.threadInstructions) /
                    std::max<uint64_t>(1, stats.cycles));
    std::printf("  SIMT efficiency   %.3f\n", stats.simtEfficiency());
    std::printf("  RT occupancy      %.2f of %d warps\n",
                stats.rtOccupancy(gpu.config().numSms),
                gpu.config().rtMaxWarps);
    std::printf("  RT efficiency     %.3f\n", stats.rtEfficiency());
    std::printf("  nodes per ray     %.1f\n",
                stats.avgTraversalLength());
    const DramStats &dram = gpu.memSystem().dram().stats();
    std::printf("  DRAM efficiency   %.3f, utilization %.3f\n",
                dram.efficiency(), dram.utilization(stats.cycles));

    if (writePpm("quickstart.ppm", pipeline.framebuffer(), params.width,
                 params.height))
        std::printf("\nwrote quickstart.ppm\n");
    return 0;
}
