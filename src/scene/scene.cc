#include "scene/scene.hh"

namespace lumi
{

int
Scene::addGeometry(TriangleMesh mesh)
{
    Geometry geom;
    geom.kind = Geometry::Kind::Triangles;
    geom.mesh = std::move(mesh);
    geometries.push_back(std::move(geom));
    return static_cast<int>(geometries.size()) - 1;
}

int
Scene::addGeometry(ProceduralSpheres spheres)
{
    Geometry geom;
    geom.kind = Geometry::Kind::Procedural;
    geom.spheres = std::move(spheres);
    geometries.push_back(std::move(geom));
    return static_cast<int>(geometries.size()) - 1;
}

int
Scene::addGeometry(ProceduralBoxes boxes)
{
    Geometry geom;
    geom.kind = Geometry::Kind::Boxes;
    geom.boxes = std::move(boxes);
    geometries.push_back(std::move(geom));
    return static_cast<int>(geometries.size()) - 1;
}

int
Scene::addMaterial(const Material &material)
{
    materials.push_back(material);
    return static_cast<int>(materials.size()) - 1;
}

int
Scene::addTexture(const Texture &texture)
{
    textures.push_back(texture);
    return static_cast<int>(textures.size()) - 1;
}

void
Scene::addInstance(int geometry_id, const Mat4 &transform)
{
    Instance inst;
    inst.geometryId = geometry_id;
    inst.transform = transform;
    inst.invTransform = transform.inverse();
    instances.push_back(inst);
}

void
Scene::setInstanceTransform(size_t index, const Mat4 &transform)
{
    Instance &inst = instances[index];
    inst.transform = transform;
    inst.invTransform = transform.inverse();
}

Vec3
Scene::background(const Vec3 &dir) const
{
    if (enclosed)
        return {0.0f, 0.0f, 0.0f};
    float t = 0.5f * (dir.y + 1.0f);
    return lerp(skyHorizon, skyZenith, t);
}

size_t
Scene::uniquePrimitives() const
{
    size_t count = 0;
    for (const Geometry &g : geometries)
        count += g.primitiveCount();
    return count;
}

size_t
Scene::instancedPrimitives() const
{
    size_t count = 0;
    for (const Instance &inst : instances)
        count += geometries[inst.geometryId].primitiveCount();
    return count;
}

size_t
Scene::proceduralGeometryCount() const
{
    size_t count = 0;
    for (const Geometry &g : geometries) {
        if (g.isProcedural())
            count++;
    }
    return count;
}

bool
Scene::usesAnyHit() const
{
    for (const Material &m : materials) {
        if (m.needsAnyHit())
            return true;
    }
    return false;
}

Aabb
Scene::worldBounds() const
{
    // Each geometry's local box once, however many instances share it.
    std::vector<Aabb> local;
    local.reserve(geometries.size());
    for (const Geometry &geom : geometries)
        local.push_back(geom.bounds());
    Aabb box;
    for (const Instance &inst : instances)
        box.extend(local[inst.geometryId].transformed(inst.transform));
    return box;
}

void
Scene::frame(const Vec3 &view_dir, float distance_scale,
             float vfov_degrees)
{
    Aabb box = worldBounds();
    Vec3 center = box.center();
    float radius = length(box.extent()) * 0.5f;
    Vec3 eye = center + normalize(view_dir) * (radius * distance_scale);
    // Aim below the bounds center so the ground fills most of the
    // frame, as game cameras do -- otherwise open scenes waste half
    // the primary rays on sky.
    Vec3 target = center;
    target.y = box.lo.y + 0.22f * box.extent().y;
    camera = Camera(eye, target, {0.0f, 1.0f, 0.0f}, vfov_degrees);
}

} // namespace lumi
