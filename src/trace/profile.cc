#include "trace/profile.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"

namespace chopin
{

namespace
{

std::vector<BenchmarkProfile>
makeProfiles()
{
    std::vector<BenchmarkProfile> v;

    // Table III of the paper: resolution, draw count and triangle count are
    // the published values. The remaining knobs are chosen per game to
    // reflect the behaviours the paper reports (see DESIGN.md).
    BenchmarkProfile cod2;
    cod2.name = "cod2";
    cod2.full_name = "Call of Duty 2";
    cod2.width = 640;
    cod2.height = 480;
    cod2.num_draws = 1005;
    cod2.num_triangles = 219950;
    cod2.seed = 0xc0d2;
    cod2.overdraw = 3.4;
    cod2.rt_passes = 2;
    v.push_back(cod2);

    BenchmarkProfile cry;
    cry.name = "cry";
    cry.full_name = "Crysis";
    cry.width = 800;
    cry.height = 600;
    cry.num_draws = 1427;
    cry.num_triangles = 800948;
    cry.seed = 0xc717;
    cry.overdraw = 6.5;   // dense vegetation: heavy overdraw          // dense vegetation: tiny triangles
    cry.draw_size_sigma = 1.25;
    cry.transparent_draw_frac = 0.09;
    cry.rt_passes = 4;
    v.push_back(cry);

    BenchmarkProfile grid;
    grid.name = "grid";
    grid.full_name = "GRID";
    grid.width = 1280;
    grid.height = 1024;
    grid.num_draws = 2623;
    grid.num_triangles = 466806;
    grid.seed = 0x9e1d;
    // Racing game: long road/terrain triangles covering large screen areas;
    // this is what gives grid its outsized composition traffic (Fig. 17).
    grid.large_triangle_frac = 0.05;
    grid.large_triangle_area = 4000.0;
    grid.overdraw = 2.0;
    grid.cluster_radius_frac = 0.06;
    grid.rt_passes = 3;
    v.push_back(grid);

    BenchmarkProfile mirror;
    mirror.name = "mirror";
    mirror.full_name = "Mirror's Edge";
    mirror.width = 1280;
    mirror.height = 1024;
    mirror.num_draws = 1257;
    mirror.num_triangles = 381422;
    mirror.seed = 0x31407;
    mirror.overdraw = 1.7;       // clean architectural scenes
    mirror.transparent_draw_frac = 0.08; // glass
    mirror.rt_passes = 4;        // bloom-heavy art style
    mirror.stencil_draws = 6;    // stencil-masked reflections
    v.push_back(mirror);

    BenchmarkProfile nfs;
    nfs.name = "nfs";
    nfs.full_name = "Need for Speed: Undercover";
    nfs.width = 1280;
    nfs.height = 1024;
    nfs.num_draws = 1858;
    nfs.num_triangles = 534121;
    nfs.seed = 0x4f5;
    nfs.large_triangle_frac = 0.02;
    nfs.large_triangle_area = 2500.0;
    nfs.overdraw = 1.9;
    nfs.cluster_radius_frac = 0.035;
    v.push_back(nfs);

    BenchmarkProfile stal;
    stal.name = "stal";
    stal.full_name = "S.T.A.L.K.E.R.: Call of Pripyat";
    stal.width = 1280;
    stal.height = 1024;
    stal.num_draws = 1086;
    stal.num_triangles = 546733;
    stal.seed = 0x57a1;
    stal.draw_size_sigma = 1.35; // few draws, very uneven sizes
    stal.overdraw = 1.8;
    stal.shader_discard_frac = 0.10; // foliage alpha test
    v.push_back(stal);

    BenchmarkProfile ut3;
    ut3.name = "ut3";
    ut3.full_name = "Unreal Tournament 3";
    ut3.width = 1280;
    ut3.height = 1024;
    ut3.num_draws = 1944;
    ut3.num_triangles = 630302;
    ut3.seed = 0x073;
    ut3.overdraw = 2.1;
    ut3.transparent_draw_frac = 0.10; // effect-heavy
    ut3.additive_frac = 0.5;
    ut3.rt_passes = 4;
    v.push_back(ut3);

    BenchmarkProfile wolf;
    wolf.name = "wolf";
    wolf.full_name = "Wolfenstein";
    wolf.width = 640;
    wolf.height = 480;
    wolf.num_draws = 1697;
    wolf.num_triangles = 243052;
    wolf.seed = 0x301f;
    wolf.overdraw = 4.2;
    wolf.rt_passes = 2;
    v.push_back(wolf);

    return v;
}

} // namespace

const std::vector<BenchmarkProfile> &
allBenchmarkProfiles()
{
    static const std::vector<BenchmarkProfile> profiles = makeProfiles();
    return profiles;
}

const BenchmarkProfile &
benchmarkProfile(const std::string &name)
{
    for (const BenchmarkProfile &p : allBenchmarkProfiles())
        if (p.name == name)
            return p;
    CHOPIN_CHECK(false, "unknown benchmark '", name,
                 "' (expected one of: cod2 cry grid mirror nfs stal ut3 "
                 "wolf)");
}

BenchmarkProfile
scaleProfile(const BenchmarkProfile &p, int divisor)
{
    CHOPIN_CHECK(divisor >= 1);
    BenchmarkProfile s = p;
    s.num_draws = std::max(64, p.num_draws / divisor);
    s.num_triangles = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(s.num_draws) * 4,
        p.num_triangles / divisor);
    // Shrink the screen with the workload so the geometry : fragment :
    // composition balance of the full-size frame is preserved — a scaled
    // trace is a proportional miniature, not a sparser frame.
    double res_div = std::sqrt(static_cast<double>(divisor));
    s.width = std::max(
        192, static_cast<int>(static_cast<double>(p.width) / res_div));
    s.height = std::max(
        160, static_cast<int>(static_cast<double>(p.height) / res_div));
    if (s.num_draws < 200) {
        // Keep the frame structure feasible at tiny draw counts.
        s.rt_passes = 1;
        s.depth_readonly_draws = std::min(p.depth_readonly_draws, 1);
        s.depth_func_changes = std::min(p.depth_func_changes, 1);
        s.stencil_draws = std::min(p.stencil_draws, 2);
    }
    return s;
}

} // namespace chopin
