//! The in-process simulator workloads — the Figure-6 sweep and the
//! 16×16 MP3D pair — and the traced engine pass every workload shares.

use std::time::Instant;

use addr_compression::CompressionScheme;
use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use mesh_noc::config::ChannelKind;
use tcmp_core::experiment::{figure6_configs, geomean, normalize_partial, ConfigSpec, RunSpec};
use tcmp_core::sim::{CmpSimulator, PhaseProfile, SimConfig, SimError, SimResult};
use tcmp_core::supervisor::{run_matrix_supervised, RunPolicy};
use tcmp_core::InterconnectChoice;
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;

use crate::check::{self, digest, Digests};
use crate::stats::median;
use crate::WorkloadRun;

/// Repetitions of the set-up measurement; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Batches every in-process run makes at least, so the repeat metric
/// and the batch-to-batch determinism check always have a second batch.
const MIN_BATCHES: usize = 2;

/// The label every check and digest file uses for a cell.
pub fn label(app: &AppProfile, config: &ConfigSpec) -> String {
    format!("{}/{}", app.name, config.label)
}

/// The configuration Figure 6's geomeans and the sensitivity study
/// report: 4-entry DBRC with 2 low-order bytes on 5-byte VL wires.
pub fn proposal() -> ConfigSpec {
    ConfigSpec::compressed(CompressionScheme::Dbrc {
        entries: 4,
        low_bytes: 2,
    })
}

/// One simulated cell with its host-time spans around the public API.
pub struct CellRun {
    pub result: SimResult,
    pub new_s: f64,
    pub step_s: f64,
    pub finish_s: f64,
    pub b_flits: u64,
    pub vl_flits: u64,
    pub profile: Option<PhaseProfile>,
}

/// Build, step to completion and finish one cell, timing each call. A
/// panic inside the simulator becomes [`SimError::Panic`], as in the
/// supervised matrix, so it counts as a failed cell.
pub fn run_cell(
    cmp: &CmpConfig,
    config: &ConfigSpec,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    profile: bool,
) -> Result<CellRun, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        step_cell(cmp, config, app, seed, scale, profile)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(SimError::Panic { message })
    })
}

fn step_cell(
    cmp: &CmpConfig,
    config: &ConfigSpec,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    profile: bool,
) -> Result<CellRun, SimError> {
    let mut cfg = SimConfig::new(config.interconnect, config.scheme);
    cfg.cmp = cmp.clone();
    let t = Instant::now();
    let mut sim = CmpSimulator::new(cfg, app, seed, scale);
    let new_s = t.elapsed().as_secs_f64();
    if profile {
        sim.enable_profiling();
    }
    let t = Instant::now();
    while sim.step()? {}
    let step_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let result = sim.finish();
    let finish_s = t.elapsed().as_secs_f64();
    let flits = |kind| -> u64 { sim.link_flit_counts(kind).iter().map(|l| l.2).sum() };
    let vl_flits = match config.interconnect {
        InterconnectChoice::Heterogeneous(_) => flits(ChannelKind::Vl),
        _ => 0,
    };
    Ok(CellRun {
        b_flits: flits(ChannelKind::B),
        vl_flits,
        profile: sim.phase_profile().cloned(),
        result,
        new_s,
        step_s,
        finish_s,
    })
}

/// Host seconds `CmpSimulator::new` takes for all `cells`, as the median
/// of [`SETUP_REPS`] repetitions.
fn setup_seconds(
    cmp: &CmpConfig,
    cells: &[(AppProfile, ConfigSpec)],
    seed: u64,
    scale: f64,
) -> f64 {
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            cells
                .iter()
                .map(|(app, config)| {
                    let mut cfg = SimConfig::new(config.interconnect, config.scheme);
                    cfg.cmp = cmp.clone();
                    let t = Instant::now();
                    let sim = CmpSimulator::new(cfg, app, seed, scale);
                    let s = t.elapsed().as_secs_f64();
                    drop(std::hint::black_box(sim));
                    s
                })
                .sum()
        })
        .collect();
    median(&reps)
}

/// Geomeans over applications of the proposal's execution time and
/// link ED²P, each normalised to the application's baseline.
pub fn proposal_geomeans(results: &[SimResult]) -> (f64, f64) {
    let want = proposal().label;
    let rows: Vec<_> = normalize_partial(results)
        .rows
        .into_iter()
        .filter(|r| r.config == want)
        .collect();
    if rows.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    (
        geomean(rows.iter().map(|r| r.exec_time)),
        geomean(rows.iter().map(|r| r.link_ed2p)),
    )
}

/// Trace instructions per application, for the conservation check.
pub fn trace_instructions(
    apps: &[AppProfile],
    cores: usize,
    seed: u64,
    scale: f64,
) -> Vec<(String, u64)> {
    apps.iter()
        .map(|a| {
            let t = check::walk_trace(a, cores, seed, scale, false);
            (a.name.to_string(), t.instructions)
        })
        .collect()
}

fn conservation(expected: &[(String, u64)], label: &str, r: &SimResult) -> Option<String> {
    let want = expected
        .iter()
        .find(|(a, _)| *a == r.app)
        .map_or(0, |e| e.1);
    check::instructions_conserved(label, r, want)
}

/// Matrix workers: one per core of the 2-core host the benchmark was
/// tuned on, the cell-level parallelism the figure binaries use.
const WORKERS: usize = 2;

/// Sizes of the Figure-6 sweep.
#[derive(Clone)]
pub struct SweepPlan {
    pub apps: Vec<AppProfile>,
    pub scale: f64,
}

impl SweepPlan {
    /// The benchmark's sweep: 13 apps × 8 configurations on the 4×4
    /// full-map machine.
    pub fn standard() -> Self {
        SweepPlan {
            apps: workloads::apps::all_apps(),
            scale: 0.01,
        }
    }
}

/// `fig6_sweep`, untraced: whole supervised sweeps, repeated until
/// `seconds` have passed.
pub fn fig6(plan: &SweepPlan, seed: u64, seconds: f64) -> WorkloadRun {
    let cmp = CmpConfig::default();
    let configs = figure6_configs(true);
    let specs: Vec<RunSpec> = plan
        .apps
        .iter()
        .flat_map(|app| {
            configs.iter().map(|config| RunSpec {
                app: app.clone(),
                config: config.clone(),
                seed,
                scale: plan.scale,
            })
        })
        .collect();
    let labels: Vec<String> = specs.iter().map(|s| label(&s.app, &s.config)).collect();
    let cells: Vec<(AppProfile, ConfigSpec)> = specs
        .iter()
        .map(|s| (s.app.clone(), s.config.clone()))
        .collect();
    let setup_s = setup_seconds(&cmp, &cells, seed, plan.scale);
    let instructions = trace_instructions(&plan.apps, cmp.tiles(), seed, plan.scale);

    let mut run = WorkloadRun::default();
    let (mut walls, mut cycles, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let report =
            run_matrix_supervised(&cmp, &specs, Some(WORKERS), &RunPolicy::default(), None);
        let wall = t.elapsed().as_secs_f64();
        run.attempted += specs.len() as u64;
        let mut digests = Digests::new();
        for (i, (label, slot)) in labels.iter().zip(&report.results).enumerate() {
            match slot {
                Some(r) => {
                    digests.insert(label.clone(), digest(r));
                    run.failures.extend(conservation(&instructions, label, r));
                }
                None => {
                    let why = report
                        .failures
                        .iter()
                        .find(|f| f.index == i)
                        .map_or_else(|| "not attempted".to_string(), |f| f.error.brief());
                    run.failures.push(format!("{label}: {why}"));
                }
            }
        }
        eprintln!("fig6_sweep: batch {} took {wall:.3} s", walls.len() + 1);
        walls.push(wall);
        cycles.push(
            report
                .results
                .iter()
                .flatten()
                .map(|r| r.cycles as f64)
                .sum::<f64>(),
        );
        if first.is_empty() {
            first = report.completed();
        }
        run.batches.push(digests);
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_BATCHES && elapsed + wall > seconds {
            break;
        }
    }
    let n = specs.len() as f64;
    let per_s: Vec<f64> = walls.iter().map(|w| n / w).collect();
    let cyc_per_s: Vec<f64> = cycles.iter().zip(&walls).map(|(c, w)| c / w).collect();
    let (exec, ed2p) = proposal_geomeans(&first);
    let m = &mut run.metrics;
    m.put("cells_per_s", "1/s", median(&per_s));
    m.put("sim_cycles_per_s", "1/s", median(&cyc_per_s));
    m.put("repeat_cells_per_s", "1/s", median(&per_s[1..]));
    // A figure exists once its whole sweep has finished.
    m.put("first_result_s", "s", median(&walls));
    m.put("setup_s", "s", setup_s);
    m.put("peak_rss_mb", "MB", crate::host::peak_rss_mb("self"));
    m.put("norm_exec_time_geomean", "ratio", exec);
    m.put("norm_link_ed2p_geomean", "ratio", ed2p);
    run
}

/// Sizes of the 16×16 MP3D pair.
#[derive(Clone)]
pub struct MeshPlan {
    pub app: AppProfile,
    pub side: u16,
    pub scale: f64,
}

impl MeshPlan {
    /// The benchmark's pair: MP3D on the 16×16 sparse-directory mesh.
    pub fn standard() -> Self {
        MeshPlan {
            app: workloads::apps::mp3d(),
            side: 16,
            scale: 0.0075,
        }
    }

    pub fn cmp(&self) -> CmpConfig {
        CmpConfig {
            mesh: MeshShape::square(self.side),
            directory: DirectoryConfig::sparse(),
            ..CmpConfig::default()
        }
    }

    /// Baseline, then the proposal (4-entry DBRC, 2 B LO, 5-byte VL).
    pub fn cells(&self) -> Vec<(AppProfile, ConfigSpec)> {
        let prop = proposal();
        debug_assert_eq!(
            prop.interconnect,
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes)
        );
        vec![
            (self.app.clone(), ConfigSpec::baseline()),
            (self.app.clone(), prop),
        ]
    }
}

/// `mesh16_mp3d`, untraced: the baseline/proposal pair on one thread,
/// repeated until `seconds` have passed.
pub fn mesh16(plan: &MeshPlan, seed: u64, seconds: f64) -> WorkloadRun {
    let cmp = plan.cmp();
    let cells = plan.cells();
    let setup_s = setup_seconds(&cmp, &cells, seed, plan.scale);
    let instructions = trace_instructions(
        std::slice::from_ref(&plan.app),
        cmp.tiles(),
        seed,
        plan.scale,
    );

    let mut run = WorkloadRun::default();
    let (mut walls, mut cycles, mut firsts, mut first) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let mut digests = Digests::new();
        let mut results = Vec::new();
        for (i, (app, config)) in cells.iter().enumerate() {
            let label = label(app, config);
            run.attempted += 1;
            match run_cell(&cmp, config, app, seed, plan.scale, false) {
                Ok(c) => {
                    digests.insert(label.clone(), digest(&c.result));
                    run.failures
                        .extend(conservation(&instructions, &label, &c.result));
                    results.push(c.result);
                }
                Err(e) => run.failures.push(format!("{label}: {}", e.brief())),
            }
            if i == 0 {
                firsts.push(t.elapsed().as_secs_f64());
            }
        }
        let wall = t.elapsed().as_secs_f64();
        eprintln!("mesh16_mp3d: batch {} took {wall:.3} s", walls.len() + 1);
        walls.push(wall);
        cycles.push(results.iter().map(|r| r.cycles as f64).sum::<f64>());
        if first.is_empty() {
            first = results;
        }
        run.batches.push(digests);
        if walls.len() >= MIN_BATCHES && start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let n = cells.len() as f64;
    let per_s: Vec<f64> = walls.iter().map(|w| n / w).collect();
    let cyc_per_s: Vec<f64> = cycles.iter().zip(&walls).map(|(c, w)| c / w).collect();
    let (exec, ed2p) = proposal_geomeans(&first);
    let m = &mut run.metrics;
    m.put("cells_per_s", "1/s", median(&per_s));
    m.put("sim_cycles_per_s", "1/s", median(&cyc_per_s));
    m.put("repeat_cells_per_s", "1/s", median(&per_s[1..]));
    // The baseline cell is the first result of each pair.
    m.put("first_result_s", "s", median(&firsts));
    m.put("setup_s", "s", setup_s);
    m.put("peak_rss_mb", "MB", crate::host::peak_rss_mb("self"));
    m.put("norm_exec_time_geomean", "ratio", exec);
    m.put("norm_link_ed2p_geomean", "ratio", ed2p);
    run
}

/// The traced engine pass: every cell runs once plain and once with
/// `enable_profiling`, serially, and reports the `engine.*`, `sim.*` and
/// `noc.{b,vl}_flits` metrics plus `trace.overhead_frac`. Returns the
/// workload's measured injection rate (messages per tile per cycle),
/// the middle rate of the NoC replay.
pub fn engine_pass(
    cmp: &CmpConfig,
    cells: &[(AppProfile, ConfigSpec)],
    seed: u64,
    scale: f64,
    run: &mut WorkloadRun,
) -> f64 {
    let instructions = trace_instructions(
        &cells.iter().map(|c| c.0.clone()).collect::<Vec<_>>(),
        cmp.tiles(),
        seed,
        scale,
    );
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let mut digests = Digests::new();
    for (app, config) in cells {
        let label = label(app, config);
        for profile in [false, true] {
            run.attempted += 1;
            match run_cell(cmp, config, app, seed, scale, profile) {
                Ok(c) if profile => {
                    if digest(&c.result) != digests.get(&label).copied().unwrap_or_default() {
                        run.failures
                            .push(format!("{label}: profiling changed the simulated result"));
                    }
                    profiled.push(c);
                }
                Ok(c) => {
                    digests.insert(label.clone(), digest(&c.result));
                    run.failures
                        .extend(conservation(&instructions, &label, &c.result));
                    plain.push(c);
                }
                Err(e) => run.failures.push(format!("{label}: {}", e.brief())),
            }
        }
    }
    run.batches.push(digests);

    let sum = |cs: &[CellRun], f: fn(&CellRun) -> f64| cs.iter().map(f).sum::<f64>();
    let mean = |f: fn(&CellRun) -> f64| sum(&plain, f) / plain.len().max(1) as f64;
    let prof = |f: fn(&PhaseProfile) -> u64| -> f64 {
        profiled
            .iter()
            .filter_map(|c| c.profile.as_ref())
            .map(|p| f(p) as f64 / 1e9)
            .sum()
    };
    let plain_step = sum(&plain, |c| c.step_s);
    let prof_step = sum(&profiled, |c| c.step_s);
    let messages = sum(&plain, |c| c.result.network_messages as f64);
    let cycles = sum(&plain, |c| c.result.cycles as f64);
    let m = &mut run.metrics;
    m.put("engine.noc_tick_s", "s", prof(|p| p.noc_tick_ns));
    m.put("engine.l1_deliver_s", "s", prof(|p| p.l1_deliver_ns));
    m.put("engine.l2_deliver_s", "s", prof(|p| p.l2_deliver_ns));
    m.put("engine.cores_s", "s", prof(|p| p.cores_ns));
    m.put("engine.calendar_s", "s", prof(|p| p.calendar_ns));
    m.put("engine.mem_fills_s", "s", prof(|p| p.mem_fills_ns));
    m.put("engine.advance_s", "s", prof(|p| p.advance_ns));
    m.put(
        "engine.unattributed_s",
        "s",
        prof_step - prof(|p| p.total_ns()),
    );
    let iterations: u64 = profiled
        .iter()
        .filter_map(|c| c.profile.as_ref())
        .map(|p| p.iterations)
        .sum();
    m.put("engine.iterations", "count", iterations as f64);
    m.put("trace.overhead_frac", "frac", prof_step / plain_step - 1.0);
    m.put("sim.new_s", "s", sum(&plain, |c| c.new_s));
    m.put("sim.step_s", "s", plain_step);
    m.put("sim.finish_s", "s", sum(&plain, |c| c.finish_s));
    m.put("sim.ns_per_message", "ns", plain_step * 1e9 / messages);
    m.put("sim.cycles", "count", cycles);
    m.put(
        "sim.instructions",
        "count",
        sum(&plain, |c| c.result.instructions as f64),
    );
    m.put("sim.network_messages", "count", messages);
    m.put("sim.l1_miss_rate", "frac", mean(|c| c.result.l1_miss_rate));
    m.put(
        "sim.mem_reads",
        "count",
        sum(&plain, |c| c.result.mem_reads as f64),
    );
    m.put(
        "sim.l2_recalls",
        "count",
        sum(&plain, |c| c.result.l2_recalls as f64),
    );
    m.put("sim.coverage", "frac", mean(|c| c.result.coverage));
    m.put(
        "sim.critical_latency",
        "cycles",
        mean(|c| c.result.critical_latency),
    );
    m.put("noc.b_flits", "count", sum(&plain, |c| c.b_flits as f64));
    m.put("noc.vl_flits", "count", sum(&plain, |c| c.vl_flits as f64));
    messages / (cycles * cmp.tiles() as f64)
}
