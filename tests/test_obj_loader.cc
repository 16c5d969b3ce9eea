/**
 * @file
 * Tests for the Wavefront OBJ importer: index forms, fan
 * triangulation, relative indices, attribute splitting, error
 * handling, and end-to-end use in a renderable scene.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "bvh/traversal.hh"
#include "geometry/obj_loader.hh"
#include "math/rng.hh"
#include "scene/scene.hh"

namespace lumi
{
namespace
{

TEST(ObjLoader, PositionsOnlyTriangle)
{
    ObjLoadResult result = parseObj("v 0 0 0\n"
                                    "v 1 0 0\n"
                                    "v 0 1 0\n"
                                    "f 1 2 3\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.triangleCount(), 1u);
    EXPECT_EQ(result.mesh.positions.size(), 3u);
    // Normals synthesized when the file has none.
    ASSERT_EQ(result.mesh.normals.size(), 3u);
    EXPECT_NEAR(result.mesh.normals[0].z, 1.0f, 1e-4f);
    // No vt records: uvs stay empty.
    EXPECT_TRUE(result.mesh.uvs.empty());
}

TEST(ObjLoader, QuadIsFanTriangulated)
{
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 1 1 0\n"
                                    "v 0 1 0\n"
                                    "f 1 2 3 4\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.triangleCount(), 2u);
    // Fan: (1,2,3) and (1,3,4).
    EXPECT_EQ(result.mesh.indices[0], result.mesh.indices[3]);
}

TEST(ObjLoader, FullCornerForm)
{
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "vt 0 0\nvt 1 0\nvt 0 1\n"
                                    "vn 0 0 1\n"
                                    "f 1/1/1 2/2/1 3/3/1\n");
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.mesh.uvs.size(), 3u);
    EXPECT_FLOAT_EQ(result.mesh.uvs[1].x, 1.0f);
    EXPECT_FLOAT_EQ(result.mesh.normals[2].z, 1.0f);
}

TEST(ObjLoader, NormalOnlyFormAndComments)
{
    ObjLoadResult result = parseObj("# a comment\n"
                                    "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "vn 0 1 0\n"
                                    "f 1//1 2//1 3//1  # trailing\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FLOAT_EQ(result.mesh.normals[0].y, 1.0f);
}

TEST(ObjLoader, NegativeRelativeIndices)
{
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "f -3 -2 -1\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.triangleCount(), 1u);
    EXPECT_FLOAT_EQ(result.mesh.positions[1].x, 1.0f);
}

TEST(ObjLoader, SharedPositionDifferentNormalsSplit)
{
    // The same position with two normals becomes two vertices.
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "vn 0 0 1\nvn 0 0 -1\n"
                                    "f 1//1 2//1 3//1\n"
                                    "f 1//2 2//2 3//2\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.triangleCount(), 2u);
    EXPECT_EQ(result.mesh.positions.size(), 6u);
}

TEST(ObjLoader, SharedCornersAreReused)
{
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 1 1 0\n"
                                    "v 0 1 0\n"
                                    "f 1 2 3\nf 1 3 4\n");
    ASSERT_TRUE(result.ok) << result.error;
    // Corners 1 and 3 are shared: only 4 emitted vertices.
    EXPECT_EQ(result.mesh.positions.size(), 4u);
}

TEST(ObjLoader, UnsupportedDirectivesAreCounted)
{
    ObjLoadResult result = parseObj("mtllib foo.mtl\n"
                                    "o thing\ng part\ns off\n"
                                    "usemtl bar\n"
                                    "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "f 1 2 3\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.skippedDirectives, 5);
}

TEST(ObjLoader, Errors)
{
    EXPECT_FALSE(parseObj("").ok);
    EXPECT_FALSE(parseObj("v 0 0 0\n").ok); // no faces
    // Out-of-range index.
    ObjLoadResult bad = parseObj("v 0 0 0\nf 1 2 3\n");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("out of range"), std::string::npos);
    // Malformed vertex, or a number with trailing junk.
    EXPECT_FALSE(parseObj("v 0 0\nf 1 1 1\n").ok);
    EXPECT_FALSE(parseObj("v 0 0 0abc\nv 1 0 0\nv 0 1 0\n"
                          "f 1 2 3\n")
                     .ok);
    // Degenerate face.
    EXPECT_FALSE(parseObj("v 0 0 0\nv 1 0 0\nf 1 2\n").ok);
    // Missing file.
    EXPECT_FALSE(loadObjFile("/nonexistent/mesh.obj").ok);
    // A directory opens but cannot be read.
    ObjLoadResult dir = loadObjFile(::testing::TempDir());
    EXPECT_FALSE(dir.ok);
    EXPECT_NE(dir.error.find("cannot read"), std::string::npos);
    // Corner indices are whole integers that fit in an int.
    for (const char *face : {"f 1x 2 3\n", "f 1 2 3abc\n",
                             "f 4294967297 2 3\n", "f 1/ 2 3\n",
                             "f 1// 2 3\n", "f 1/1x 2 3\n"}) {
        ObjLoadResult corner =
            parseObj(std::string("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                 "vt 0 0\nvn 0 0 1\n") +
                     face);
        EXPECT_FALSE(corner.ok) << face;
        EXPECT_NE(corner.error.find("bad face corner"),
                  std::string::npos)
            << face;
    }
}

TEST(ObjLoader, MutatedInputsFailClosed)
{
    // Seeded byte mutations of this file's fixtures: each mutant
    // loads with every index in range or fails with a message.
    const char *const fixtures[] = {
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 0 1\n"
        "vn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n",
        "# a comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 1 0\n"
        "f 1//1 2//1 3//1  # trailing\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 -1\n"
        "f 1//1 2//1 3//1\nf 1//2 2//2 3//2\n",
        "mtllib foo.mtl\no thing\ng part\ns off\nusemtl bar\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\n"
        "f -3 -2 -1\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    };
    const char inserts[] = "0123456789-/";
    Rng rng(12);
    for (const char *fixture : fixtures) {
        for (int mutant = 0; mutant < 300; mutant++) {
            std::string text = fixture;
            for (uint32_t edit = rng.nextBelow(3); edit < 3; edit++) {
                size_t at = rng.nextBelow(
                    static_cast<uint32_t>(text.size()));
                uint32_t op = rng.nextBelow(4);
                if (op == 0)
                    text[at] ^= static_cast<char>(1 << rng.nextBelow(8));
                else if (op == 1)
                    text.erase(at, 1);
                else
                    text.insert(at, 1,
                                op == 2 ? text[at]
                                        : inserts[rng.nextBelow(12)]);
            }
            ObjLoadResult result = parseObj(text);
            if (!result.ok) {
                EXPECT_FALSE(result.error.empty()) << text;
                continue;
            }
            const TriangleMesh &mesh = result.mesh;
            EXPECT_EQ(mesh.normals.size(), mesh.positions.size());
            EXPECT_TRUE(mesh.uvs.empty() ||
                        mesh.uvs.size() == mesh.positions.size());
            for (uint32_t index : mesh.indices)
                ASSERT_LT(index, mesh.positions.size()) << text;
        }
    }
}

TEST(ObjLoader, RelativeIndicesResolveAtTheirLine)
{
    // -1 names the latest position when the face is read, so the
    // second face is (2, 3, 4) and reuses two emitted vertices.
    ObjLoadResult result = parseObj("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                                    "f -3 -2 -1\n"
                                    "v 1 1 0\n"
                                    "f -3 -2 -1\n");
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.mesh.positions.size(), 4u);
    EXPECT_FLOAT_EQ(result.mesh.positions[result.mesh.indices[5]].y,
                    1.0f);
    EXPECT_EQ(result.mesh.indices[3], result.mesh.indices[1]);
}

TEST(ObjLoader, SharedCornersOnLargeGrid)
{
    // An n x n quad grid: every interior corner is shared by four
    // quads and emitted once.
    const int n = 200;
    std::string text;
    char line[64];
    for (int i = 0; i < (n + 1) * (n + 1); i++) {
        std::snprintf(line, sizeof(line), "v %d %d 0\n", i % (n + 1),
                      i / (n + 1));
        text += line;
    }
    for (int i = 0; i < n * n; i++) {
        int a = i / n * (n + 1) + i % n + 1, b = a + n + 1;
        std::snprintf(line, sizeof(line), "f %d %d %d %d\n", a, a + 1,
                      b + 1, b);
        text += line;
    }
    ObjLoadResult result = parseObj(text);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.positions.size(), 40401u);
    EXPECT_EQ(result.mesh.triangleCount(), 80000u);
    // First use emits: the first quad's corners are vertices 0..3.
    std::vector<uint32_t> first(result.mesh.indices.begin(),
                                result.mesh.indices.begin() + 6);
    EXPECT_EQ(first, (std::vector<uint32_t>{0, 1, 2, 0, 2, 3}));
}

TEST(ObjLoader, LoadFileAndRender)
{
    // Write a small tetrahedron, load it, and trace rays at it
    // through a real acceleration structure.
    std::string path = ::testing::TempDir() + "/tetra.obj";
    {
        std::ofstream out(path);
        out << "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
               "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n";
    }
    ObjLoadResult result = loadObjFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.mesh.triangleCount(), 4u);

    Scene scene;
    Material material;
    result.mesh.materialId = scene.addMaterial(material);
    scene.addInstance(scene.addGeometry(std::move(result.mesh)),
                      Mat4::identity());
    scene.lights.push_back({Light::Type::Point, {2, 2, 2},
                            {1, 1, 1}});
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);
    Ray ray{{0.2f, 0.2f, 5.0f}, {0.0f, 0.0f, -1.0f}};
    HitInfo hit = TraversalStateMachine::traceFunctional(accel, ray,
                                                         false);
    ASSERT_TRUE(hit.hit);
    EXPECT_GT(hit.t, 3.0f);
    EXPECT_LT(hit.t, 5.0f);
}

} // namespace
} // namespace lumi
