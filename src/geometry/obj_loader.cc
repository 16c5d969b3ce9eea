#include "geometry/obj_loader.hh"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lumi
{

namespace
{

/** One corner reference of an f record. */
struct Corner
{
    int v = 0;  ///< position index (1-based; negative = relative)
    int vt = 0; ///< texcoord index or 0
    int vn = 0; ///< normal index or 0
};

/** A whole-token, non-zero, in-range OBJ index ("12", "-3"). */
bool
parseIndex(std::string_view text, int &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end && out != 0;
}

/** Parse "v", "v/vt", "v//vn" or "v/vt/vn"; anything else fails. */
bool
parseCorner(std::string_view token, Corner &corner)
{
    corner = Corner{};
    size_t first = token.find('/');
    if (!parseIndex(token.substr(0, first), corner.v))
        return false;
    if (first == std::string_view::npos)
        return true;
    std::string_view rest = token.substr(first + 1);
    size_t second = rest.find('/');
    if (second == std::string_view::npos)
        return parseIndex(rest, corner.vt);
    if (second > 0 && !parseIndex(rest.substr(0, second), corner.vt))
        return false;
    return parseIndex(rest.substr(second + 1), corner.vn);
}

/** Read @p n floats, each a whole whitespace-separated token. */
bool
readFloats(std::istream &in, float *out, int n)
{
    for (int i = 0; i < n; i++) {
        if (!(in >> out[i]))
            return false;
        int next = in.get();
        if (next != std::istream::traits_type::eof() && !std::isspace(next))
            return false;
    }
    return true;
}

/** Resolve a possibly-relative 1-based index to 0-based. */
bool
resolveIndex(int raw, size_t count, uint32_t &out)
{
    long resolved = raw > 0
                        ? raw - 1
                        : static_cast<long>(count) + raw;
    if (resolved < 0 || resolved >= static_cast<long>(count))
        return false;
    out = static_cast<uint32_t>(resolved);
    return true;
}

/** A resolved corner: 0-based indices, UINT32_MAX for no vt/vn. */
struct CornerKey
{
    uint32_t v = 0, vt = UINT32_MAX, vn = UINT32_MAX;
    bool operator==(const CornerKey &) const = default;
};

} // namespace

ObjLoadResult
parseObj(const std::string &text)
{
    ObjLoadResult result;
    std::vector<Vec3> positions;
    std::vector<Vec3> normals;
    std::vector<Vec2> texcoords;

    // Emitted vertices: OBJ indexes positions/normals/uvs
    // independently, our mesh uses one index stream, so each unique
    // resolved (v, vt, vn) corner becomes one output vertex, emitted
    // at its first use.
    auto hash = [](const CornerKey &k) {
        uint64_t h = uint64_t{k.v} << 32 | k.vt;
        return std::hash<uint64_t>()(h ^ k.vn * 0x9e3779b97f4a7c15ull);
    };
    std::unordered_map<CornerKey, uint32_t, decltype(hash)> emitted;
    auto emit = [&](const Corner &corner,
                    uint32_t &out_index) -> bool {
        CornerKey key;
        if (!resolveIndex(corner.v, positions.size(), key.v) ||
            (corner.vt != 0 &&
             !resolveIndex(corner.vt, texcoords.size(), key.vt)) ||
            (corner.vn != 0 &&
             !resolveIndex(corner.vn, normals.size(), key.vn))) {
            return false;
        }
        auto [it, inserted] = emitted.try_emplace(
            key, static_cast<uint32_t>(result.mesh.positions.size()));
        out_index = it->second;
        if (!inserted)
            return true;
        result.mesh.positions.push_back(positions[key.v]);
        result.mesh.uvs.push_back(
            corner.vt != 0 ? texcoords[key.vt] : Vec2(0.0f, 0.0f));
        result.mesh.normals.push_back(
            corner.vn != 0 ? normals[key.vn] : Vec3(0.0f, 1.0f, 0.0f));
        return true;
    };

    std::istringstream stream(text);
    std::string line;
    int line_number = 0;
    auto fail = [&](const std::string &what) {
        result.error = what + " at line " + std::to_string(line_number);
        return std::move(result);
    };
    while (std::getline(stream, line)) {
        line_number++;
        // Strip comments and whitespace.
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream tokens(line);
        std::string keyword;
        if (!(tokens >> keyword))
            continue;

        if (keyword == "v" || keyword == "vn" || keyword == "vt") {
            float f[3];
            if (!readFloats(tokens, f, keyword == "vt" ? 2 : 3))
                return fail("bad " + keyword + " record");
            if (keyword == "v")
                positions.emplace_back(f[0], f[1], f[2]);
            else if (keyword == "vn")
                normals.push_back(normalize(Vec3(f[0], f[1], f[2])));
            else
                texcoords.emplace_back(f[0], f[1]);
        } else if (keyword == "f") {
            std::vector<uint32_t> face;
            std::string token;
            while (tokens >> token) {
                Corner corner;
                if (!parseCorner(token, corner))
                    return fail("bad face corner");
                uint32_t index;
                if (!emit(corner, index))
                    return fail("face index out of range");
                face.push_back(index);
            }
            if (face.size() < 3)
                return fail("degenerate face");
            // Fan triangulation for polygons.
            for (size_t k = 1; k + 1 < face.size(); k++) {
                result.mesh.indices.push_back(face[0]);
                result.mesh.indices.push_back(face[k]);
                result.mesh.indices.push_back(face[k + 1]);
            }
        } else {
            // o / g / s / usemtl / mtllib and friends.
            result.skippedDirectives++;
        }
    }

    if (result.mesh.triangleCount() == 0) {
        result.error = "no faces";
        return result;
    }
    if (normals.empty())
        result.mesh.computeVertexNormals();
    if (texcoords.empty())
        result.mesh.uvs.clear();
    result.ok = true;
    return result;
}

ObjLoadResult
loadObjFile(const std::string &path)
{
    ObjLoadResult result;
    FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        result.error = "cannot open " + path;
        return result;
    }
    // Read to EOF in chunks: a directory or a pipe has no size to
    // seek to, and a read error must not pass for a short file.
    std::string text;
    char chunk[1 << 16];
    while (size_t got = std::fread(chunk, 1, sizeof(chunk), file))
        text.append(chunk, got);
    bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
        result.error = "cannot read " + path;
        return result;
    }
    return parseObj(text);
}

} // namespace lumi
