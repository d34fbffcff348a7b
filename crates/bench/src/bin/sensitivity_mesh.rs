//! Sensitivity study (beyond the paper): how the proposal scales with the
//! mesh size on a communication-bound and a compute-bound application.
//!
//! Under the default full-map directory the sweep covers 2×2, 4×4 and
//! 8×8 tiles — the presence vector caps the machine at 64 tiles. With
//! `--directory sparse[:N]` the sweep extends to the 16×16 and 32×32
//! meshes the sparse organisation unlocks. `--side N` (repeatable)
//! overrides the side list, which is how the CI smoke pins a single
//! 16×16 row under a wall deadline.

use addr_compression::CompressionScheme;
use cmp_common::config::CmpConfig;
use cmp_common::geometry::MeshShape;
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::report::{fmt_ratio, TableBuilder};
use tcmp_core::sim::{CmpSimulator, SimConfig};
use wire_model::wires::VlWidth;

fn main() {
    let opts = cmp_bench::Options::parse();
    let apps = if opts.apps.is_empty() {
        vec![workloads::apps::mp3d(), workloads::apps::water_nsq()]
    } else {
        opts.selected_apps()
    };
    let directory = opts.directory_or_default();
    let sides: Vec<u16> = if !opts.sides.is_empty() {
        opts.sides.clone()
    } else if matches!(
        directory,
        cmp_common::config::DirectoryConfig::Sparse { .. }
    ) {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![2, 4, 8]
    };

    let mut t = TableBuilder::new(
        &format!(
            "Sensitivity — mesh size (proposal vs baseline, 4-entry DBRC 2B LO, {} directory)",
            directory.label()
        ),
        &[
            "application",
            "mesh",
            "directory",
            "norm exec time",
            "norm link ED2P",
            "baseline cycles",
        ],
    );
    for app in &apps {
        for &side in &sides {
            let cmp = CmpConfig {
                mesh: MeshShape::square(side),
                directory,
                ..CmpConfig::default()
            };
            if let Err(e) = cmp.validate() {
                panic!("{side}x{side} with --directory {}: {e}", directory.label());
            }
            let run = |interconnect, scheme| {
                let mut cfg = SimConfig::new(interconnect, scheme);
                cfg.cmp = cmp.clone();
                let mut sim = CmpSimulator::new(cfg, app, opts.seed, opts.scale);
                sim.run()
                    .unwrap_or_else(|e| panic!("{} {side}x{side}: {e}", app.name))
            };
            let base = run(InterconnectChoice::Baseline, CompressionScheme::None);
            let prop = run(
                InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
                CompressionScheme::Dbrc {
                    entries: 4,
                    low_bytes: 2,
                },
            );
            eprintln!("  {:<12} {side}x{side} done", app.name);
            t.row(vec![
                app.name.to_string(),
                format!("{side}x{side}"),
                directory.label(),
                fmt_ratio(prop.cycles as f64 / base.cycles as f64),
                fmt_ratio(prop.link_ed2p() / base.link_ed2p()),
                base.cycles.to_string(),
            ]);
        }
    }
    println!("{}", t.to_markdown());
    println!(
        "expectation: bigger meshes mean more hops per message, so the\n\
         VL-Wire latency advantage compounds and the proposal's win grows.\n"
    );
    if let Some(path) = &opts.csv {
        t.write_csv(path).expect("write csv");
        eprintln!("wrote {path}");
    }
}
