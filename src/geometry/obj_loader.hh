/**
 * @file
 * Wavefront OBJ import.
 *
 * The paper's RayTracingInVulkan application loads OBJ scene files
 * (Sec. 4, artifact appendix); this loader lets users run the suite
 * on their own meshes instead of the procedural stand-ins. Supports
 * the common subset: v / vn / vt records, polygonal f records with
 * v, v/vt, v//vn and v/vt/vn forms (fans triangulated), negative
 * (relative) indices, comments and blank lines. A malformed record
 * (junk after a number, an index that does not fit) fails with its
 * line number. Materials (mtllib) are intentionally ignored; assign
 * a Material on the returned mesh.
 */

#ifndef LUMI_GEOMETRY_OBJ_LOADER_HH
#define LUMI_GEOMETRY_OBJ_LOADER_HH

#include <string>

#include "geometry/mesh.hh"

namespace lumi
{

/** Result of an OBJ parse. */
struct ObjLoadResult
{
    bool ok = false;
    std::string error;
    TriangleMesh mesh;
    /** Lines skipped because they were unsupported record types. */
    int skippedDirectives = 0;
};

/** Parse OBJ text (the file's contents, not a path). */
ObjLoadResult parseObj(const std::string &text);

/** Load an OBJ file from disk. */
ObjLoadResult loadObjFile(const std::string &path);

} // namespace lumi

#endif // LUMI_GEOMETRY_OBJ_LOADER_HH
