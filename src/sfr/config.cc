#include "sfr/config.hh"

#include "util/fingerprint.hh"

namespace chopin
{

std::uint64_t
SystemConfig::fingerprint() const
{
    Fingerprinter fp;
    // A bumpable layout tag: if a field changes *meaning*, bump it. An
    // added field that is missing here is caught by the perturbation test
    // in tests/sfr/config_fingerprint_test.cc.
    fp.str("SystemConfig/v1");
    fp.u64(num_gpus);

    fp.str("timing");
    fp.f64(timing.shader_lanes)
        .f64(timing.vert_shader_ops)
        .f64(timing.frag_shader_ops)
        .f64(timing.tri_setup_rate)
        .f64(timing.tri_traverse_rate)
        .f64(timing.coarse_reject_rate)
        .f64(timing.raster_frag_rate)
        .f64(timing.early_z_rate)
        .f64(timing.rop_rate)
        .u64(timing.draw_setup_cycles)
        .u64(timing.batch_tris)
        .u64(timing.driver_issue_cycles)
        .f64(timing.proj_ops_per_vert)
        .f64(timing.tex_rate)
        .f64(timing.compose_rate);

    fp.str("link");
    fp.f64(link.bytes_per_cycle).u64(link.latency);

    fp.str("sfr");
    fp.i64(tile_size)
        .u64(static_cast<std::uint64_t>(tile_assignment))
        .u64(group_threshold)
        .u64(sched_update_tris)
        .f64(cull_retention)
        .u64(static_cast<std::uint64_t>(comp_payload))
        .u64(gpupd_batch_prims)
        .boolean(gpupd_runahead);
    return fp.value();
}

std::string
toString(CompPayload p)
{
    switch (p) {
      case CompPayload::WrittenPixels: return "written-pixels";
      case CompPayload::SubTiles:      return "8x8-subtiles";
      case CompPayload::FullTiles:     return "full-tiles";
    }
    return "?";
}

std::string
toString(Scheme s)
{
    switch (s) {
      case Scheme::SingleGpu:        return "SingleGPU";
      case Scheme::Duplication:      return "Duplication";
      case Scheme::Gpupd:            return "GPUpd";
      case Scheme::GpupdIdeal:       return "IdealGPUpd";
      case Scheme::ChopinRoundRobin: return "CHOPIN_Round_Robin";
      case Scheme::Chopin:           return "CHOPIN";
      case Scheme::ChopinCompSched:  return "CHOPIN+CompSched";
      case Scheme::ChopinIdeal:      return "IdealCHOPIN";
    }
    return "?";
}

} // namespace chopin
