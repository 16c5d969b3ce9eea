#include "geometry/mesh.hh"

#include <cmath>

namespace lumi
{

Vec3
TriangleMesh::triangleCentroid(size_t tri) const
{
    const Vec3 &a = positions[indices[tri * 3 + 0]];
    const Vec3 &b = positions[indices[tri * 3 + 1]];
    const Vec3 &c = positions[indices[tri * 3 + 2]];
    return (a + b + c) * (1.0f / 3.0f);
}

Aabb
TriangleMesh::bounds() const
{
    Aabb box;
    for (const Vec3 &p : positions)
        box.extend(p);
    return box;
}

Vec3
TriangleMesh::faceNormal(size_t tri) const
{
    const Vec3 &a = positions[indices[tri * 3 + 0]];
    const Vec3 &b = positions[indices[tri * 3 + 1]];
    const Vec3 &c = positions[indices[tri * 3 + 2]];
    return normalize(cross(b - a, c - a));
}

Vec3
TriangleMesh::shadingNormal(size_t tri, float u, float v) const
{
    if (normals.empty())
        return faceNormal(tri);
    const Vec3 &na = normals[indices[tri * 3 + 0]];
    const Vec3 &nb = normals[indices[tri * 3 + 1]];
    const Vec3 &nc = normals[indices[tri * 3 + 2]];
    return normalize(na * (1.0f - u - v) + nb * u + nc * v);
}

Vec2
TriangleMesh::uvAt(size_t tri, float u, float v) const
{
    if (uvs.empty())
        return {0.0f, 0.0f};
    const Vec2 &ta = uvs[indices[tri * 3 + 0]];
    const Vec2 &tb = uvs[indices[tri * 3 + 1]];
    const Vec2 &tc = uvs[indices[tri * 3 + 2]];
    return ta * (1.0f - u - v) + tb * u + tc * v;
}

bool
TriangleMesh::intersect(size_t tri, const Vec3 &origin, const Vec3 &dir,
                        float t_min, float t_max, TriangleHit &hit) const
{
    const Vec3 &a = positions[indices[tri * 3 + 0]];
    const Vec3 &b = positions[indices[tri * 3 + 1]];
    const Vec3 &c = positions[indices[tri * 3 + 2]];

    Vec3 e1 = b - a;
    Vec3 e2 = c - a;
    Vec3 pvec = cross(dir, e2);
    float det = dot(e1, pvec);
    if (std::fabs(det) < 1e-12f)
        return false;
    float inv_det = 1.0f / det;
    Vec3 tvec = origin - a;
    float u = dot(tvec, pvec) * inv_det;
    if (u < 0.0f || u > 1.0f)
        return false;
    Vec3 qvec = cross(tvec, e1);
    float v = dot(dir, qvec) * inv_det;
    if (v < 0.0f || u + v > 1.0f)
        return false;
    float t = dot(e2, qvec) * inv_det;
    if (t <= t_min || t >= t_max)
        return false;
    hit.t = t;
    hit.u = u;
    hit.v = v;
    return true;
}

void
TriangleMesh::computeVertexNormals()
{
    normals.assign(positions.size(), Vec3(0.0f));
    for (size_t tri = 0; tri < triangleCount(); tri++) {
        const Vec3 &a = positions[indices[tri * 3 + 0]];
        const Vec3 &b = positions[indices[tri * 3 + 1]];
        const Vec3 &c = positions[indices[tri * 3 + 2]];
        // Area-weighted: the cross product length is twice the area.
        Vec3 n = cross(b - a, c - a);
        for (int k = 0; k < 3; k++)
            normals[indices[tri * 3 + k]] += n;
    }
    for (Vec3 &n : normals) {
        // Vertices referenced only by degenerate triangles (e.g.
        // sphere poles) accumulate a zero normal; give them a
        // well-defined unit fallback.
        if (lengthSquared(n) < 1e-20f)
            n = {0.0f, 1.0f, 0.0f};
        else
            n = normalize(n);
    }
}

void
TriangleMesh::append(const TriangleMesh &other)
{
    uint32_t base = static_cast<uint32_t>(positions.size());
    positions.insert(positions.end(), other.positions.begin(),
                     other.positions.end());
    for (uint32_t idx : other.indices)
        indices.push_back(base + idx);
    if (!normals.empty() || !other.normals.empty()) {
        normals.resize(base, Vec3(0.0f, 1.0f, 0.0f));
        if (other.normals.empty()) {
            normals.resize(positions.size(), Vec3(0.0f, 1.0f, 0.0f));
        } else {
            normals.insert(normals.end(), other.normals.begin(),
                           other.normals.end());
        }
    }
    if (!uvs.empty() || !other.uvs.empty()) {
        uvs.resize(base, Vec2(0.0f, 0.0f));
        if (other.uvs.empty()) {
            uvs.resize(positions.size(), Vec2(0.0f, 0.0f));
        } else {
            uvs.insert(uvs.end(), other.uvs.begin(), other.uvs.end());
        }
    }
}

void
TriangleMesh::transform(const Mat4 &xform)
{
    for (Vec3 &p : positions)
        p = xform.transformPoint(p);
    if (!normals.empty()) {
        // Affine scene transforms here are rotation+uniform-scale, so
        // transforming the direction and renormalizing is exact.
        for (Vec3 &n : normals)
            n = normalize(xform.transformVector(n));
    }
}

size_t
TriangleMesh::dataBytes() const
{
    size_t bytes = positions.size() * sizeof(Vec3) +
                   indices.size() * sizeof(uint32_t) +
                   normals.size() * sizeof(Vec3) +
                   uvs.size() * sizeof(Vec2);
    return bytes;
}

Aabb
ProceduralSpheres::sphereBounds(size_t i) const
{
    const Vec4 &s = spheres[i];
    Aabb box;
    box.extend(Vec3(s.x - s.w, s.y - s.w, s.z - s.w));
    box.extend(Vec3(s.x + s.w, s.y + s.w, s.z + s.w));
    return box;
}

Aabb
ProceduralSpheres::bounds() const
{
    Aabb box;
    for (size_t i = 0; i < spheres.size(); i++)
        box.extend(sphereBounds(i));
    return box;
}

bool
ProceduralSpheres::intersect(size_t i, const Vec3 &origin, const Vec3 &dir,
                             float t_min, float t_max, float &t) const
{
    const Vec4 &s = spheres[i];
    Vec3 oc = origin - Vec3(s.x, s.y, s.z);
    float a = dot(dir, dir);
    float half_b = dot(oc, dir);
    float c = dot(oc, oc) - s.w * s.w;
    if (a == 0.0f) {
        // Zero-direction probe: the quadratic degenerates and the
        // general path below would divide by zero. Treat it as a
        // point-containment test at the origin.
        if (c > 0.0f)
            return false;
        t = t_min;
        return true;
    }
    float disc = half_b * half_b - a * c;
    if (disc < 0.0f)
        return false;
    float sqrt_d = std::sqrt(disc);
    float root = (-half_b - sqrt_d) / a;
    if (root <= t_min || root >= t_max) {
        root = (-half_b + sqrt_d) / a;
        if (root <= t_min || root >= t_max)
            return false;
    }
    t = root;
    return true;
}

Vec3
ProceduralSpheres::normalAt(size_t i, const Vec3 &p) const
{
    const Vec4 &s = spheres[i];
    return normalize(p - Vec3(s.x, s.y, s.z));
}

Aabb
ProceduralBoxes::bounds() const
{
    Aabb box;
    for (const Aabb &b : boxes)
        box.extend(b);
    return box;
}

bool
ProceduralBoxes::intersect(size_t i, const Vec3 &origin, const Vec3 &dir,
                           float t_min, float t_max, float &t) const
{
    const Aabb &box = boxes[i];
    float t0 = t_min;
    float t1 = t_max;
    for (int axis = 0; axis < 3; axis++) {
        float o = origin[axis];
        float d = dir[axis];
        float lo = box.lo[axis];
        float hi = box.hi[axis];
        if (d == 0.0f) {
            // Parallel to the slab: reject iff the origin is outside.
            // Exact comparisons keep degenerate rays deterministic.
            if (o < lo || o > hi)
                return false;
            continue;
        }
        float inv = 1.0f / d;
        float near = (lo - o) * inv;
        float far = (hi - o) * inv;
        if (near > far) {
            float tmp = near;
            near = far;
            far = tmp;
        }
        if (near > t0)
            t0 = near;
        if (far < t1)
            t1 = far;
        if (t0 > t1)
            return false;
    }
    // A fully-degenerate direction never tightens the interval, so an
    // inverted input window (t_min > t_max) must still reject.
    if (t0 > t1)
        return false;
    t = t0;
    return true;
}

Vec3
ProceduralBoxes::normalAt(size_t i, const Vec3 &p) const
{
    const Aabb &box = boxes[i];
    Vec3 center = box.center();
    Vec3 half = box.extent() * 0.5f;
    Vec3 rel = p - center;
    // Pick the face whose relative offset is largest; degenerate
    // boxes fall back to +Y.
    float best = -1.0f;
    Vec3 n{0.0f, 1.0f, 0.0f};
    for (int axis = 0; axis < 3; axis++) {
        float extent = half[axis] > 0.0f ? half[axis] : 1.0f;
        float d = std::fabs(rel[axis]) / extent;
        if (d > best) {
            best = d;
            float sign = rel[axis] >= 0.0f ? 1.0f : -1.0f;
            n = Vec3(axis == 0 ? sign : 0.0f, axis == 1 ? sign : 0.0f,
                     axis == 2 ? sign : 0.0f);
        }
    }
    return n;
}

bool
ProceduralBoxes::contains(size_t i, const Vec3 &p) const
{
    const Aabb &box = boxes[i];
    return p.x >= box.lo.x && p.x <= box.hi.x && p.y >= box.lo.y &&
           p.y <= box.hi.y && p.z >= box.lo.z && p.z <= box.hi.z;
}

} // namespace lumi
