//! Layered benchmark of the tiled-CMP simulator and its campaign service.
//!
//! ```text
//! layerbench --workload fig6_sweep|mesh16_mp3d|serve_campaigns
//!            --seed N --seconds S --trace 0|1 [--write-expected]
//! ```
//!
//! Run from the repository root (`bash layerbench/run.sh …` builds it
//! first). An untraced run (`--trace 0`) measures the end-to-end metrics
//! with no instrumentation inside the program; a traced run (`--trace 1`)
//! reports the per-layer metrics. Either way the last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. The line
//! before it records the host (cores, CPU model, source revision, steal
//! time during the run). `--write-expected` stores the untraced run's
//! cell digests as the expectation for its seed.

mod check;
mod host;
mod layers;
mod serve;
mod sim;
mod stats;

use std::path::Path;
use std::time::Instant;

use cmp_common::config::CmpConfig;
use tcmp_core::experiment::ConfigSpec;
use workloads::profile::AppProfile;

use check::Digests;
use stats::Metrics;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig6_sweep", "mesh16_mp3d", "serve_campaigns"];

/// What one workload run produced before the output checks.
#[derive(Default)]
pub struct WorkloadRun {
    pub metrics: Metrics,
    /// Cells attempted.
    pub attempted: u64,
    /// One line per cell that errored or failed a check.
    pub failures: Vec<String>,
    /// Cell digests per batch; the first is the run's reference.
    pub batches: Vec<Digests>,
}

/// End-to-end metrics (untraced runs), with units.
pub fn end_to_end_registry() -> Vec<(String, &'static str)> {
    [
        ("cells_per_s", "1/s"),
        ("sim_cycles_per_s", "1/s"),
        ("repeat_cells_per_s", "1/s"),
        ("first_result_s", "s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("ok_frac", "frac"),
        ("norm_exec_time_geomean", "ratio"),
        ("norm_link_ed2p_geomean", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics (traced runs), with units.
pub fn per_layer_registry() -> Vec<(String, &'static str)> {
    let mut r: Vec<(String, &'static str)> = Vec::new();
    let mut put = |n: String, u| r.push((n, u));
    for b in [
        "noc_tick",
        "l1_deliver",
        "l2_deliver",
        "cores",
        "calendar",
        "mem_fills",
        "advance",
        "unattributed",
    ] {
        put(format!("engine.{b}_s"), "s");
    }
    put("engine.iterations".into(), "count");
    put("trace.overhead_frac".into(), "frac");
    for (n, u) in [
        ("sim.new_s", "s"),
        ("sim.step_s", "s"),
        ("sim.finish_s", "s"),
        ("sim.ns_per_message", "ns"),
        ("sim.cycles", "count"),
        ("sim.instructions", "count"),
        ("sim.network_messages", "count"),
        ("sim.l1_miss_rate", "frac"),
        ("sim.mem_reads", "count"),
        ("sim.l2_recalls", "count"),
        ("sim.coverage", "frac"),
        ("sim.critical_latency", "cycles"),
        ("noc.b_flits", "count"),
        ("noc.vl_flits", "count"),
    ] {
        put(n.into(), u);
    }
    for p in layers::Pattern::ALL {
        for (rate, _) in layers::RATES {
            put(format!("noc.latency_cycles.{}.{rate}", p.name()), "cycles");
        }
        put(format!("noc.ns_per_flit_hop.{}", p.name()), "ns");
        put(format!("noc.flit_hops.{}", p.name()), "count");
    }
    for (c, _) in layers::codecs() {
        put(format!("codec.{c}.ns_per_op"), "ns");
        put(format!("codec.{c}.hit_rate"), "frac");
    }
    put("trace.ns_per_ref".into(), "ns");
    put("cache_array.ns_per_probe".into(), "ns");
    put("cache_array.hit_rate".into(), "frac");
    put("addrmap.ns_per_op".into(), "ns");
    for (n, u) in serve::SERVE_LAYER {
        put(n.into(), u);
    }
    r
}

/// The metrics a run must report: per-layer when traced, else end-to-end.
fn registry(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer_registry()
    } else {
        end_to_end_registry()
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

const USAGE: &str = "usage: layerbench --workload fig6_sweep|mesh16_mp3d|serve_campaigns \
                     --seed N --seconds S --trace 0|1 [--write-expected]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_expected = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&"unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        write_expected,
    })
}

/// The traced layer passes shared by every workload: the engine pass on
/// `cells`, then the NoC, codec, trace and store replays on the
/// workload's machine and address stream.
fn traced_layers(
    cmp: &CmpConfig,
    cells: &[(AppProfile, ConfigSpec)],
    apps: &[AppProfile],
    seed: u64,
    scale: f64,
    run: &mut WorkloadRun,
) {
    let rate = sim::engine_pass(cmp, cells, seed, scale, run);
    let m = &mut run.metrics;
    layers::noc(cmp, rate, seed, m, &mut run.failures);
    let lines = layers::trace(apps, cmp.tiles(), seed, scale, m, &mut run.failures);
    layers::codec(&lines, cmp.tiles(), m, &mut run.failures);
    layers::stores(cmp, &lines, m, &mut run.failures);
}

/// Run one workload, untraced or traced.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    launcher: &serve::Launcher,
) -> WorkloadRun {
    let mut run = WorkloadRun::default();
    match (name, trace) {
        ("fig6_sweep", false) => return sim::fig6(&sim::SweepPlan::standard(), seed, seconds),
        ("mesh16_mp3d", false) => return sim::mesh16(&sim::MeshPlan::standard(), seed, seconds),
        ("serve_campaigns", false) => {
            let plan = serve::ServePlan::standard();
            if let Some(obs) = serve::flow(&plan, seed, launcher, &work_dir(), &mut run) {
                serve::end_to_end(&obs, &mut run.metrics);
            }
        }
        ("fig6_sweep", true) => {
            let plan = sim::SweepPlan::standard();
            let cells: Vec<_> = plan
                .apps
                .iter()
                .map(|a| (a.clone(), sim::proposal()))
                .collect();
            traced_layers(
                &CmpConfig::default(),
                &cells,
                &plan.apps,
                seed,
                plan.scale,
                &mut run,
            );
            serve::layer(None, &mut run.metrics);
        }
        ("mesh16_mp3d", true) => {
            let plan = sim::MeshPlan::standard();
            let cells = vec![(plan.app.clone(), sim::proposal())];
            traced_layers(
                &plan.cmp(),
                &cells,
                std::slice::from_ref(&plan.app),
                seed,
                plan.scale,
                &mut run,
            );
            serve::layer(None, &mut run.metrics);
        }
        ("serve_campaigns", true) => {
            let plan = serve::ServePlan::standard();
            let obs = serve::flow(&plan, seed, launcher, &work_dir(), &mut run);
            let apps: Vec<_> = plan
                .apps
                .iter()
                .filter_map(|a| workloads::apps::app_by_name(a))
                .collect();
            let cells: Vec<_> = apps.iter().map(|a| (a.clone(), sim::proposal())).collect();
            traced_layers(
                &CmpConfig::default(),
                &cells,
                &apps,
                seed,
                plan.scale,
                &mut run,
            );
            serve::layer(obs.as_ref(), &mut run.metrics);
        }
        _ => unreachable!("workload names are validated at parse time"),
    }
    run
}

/// Scratch space for daemon roots, inside the checkout; relative so the
/// socket path stays within the Unix-socket length limit.
fn work_dir() -> std::path::PathBuf {
    Path::new(".bench_build").join(format!("layerbench-{}", std::process::id()))
}

/// Apply the output checks to `run`: stored digests for this seed (when
/// kept), batch-to-batch determinism and the metric audit. Returns
/// (correct, failed, problems).
pub fn verdict(
    run: &WorkloadRun,
    expected: Option<&Digests>,
    trace: bool,
) -> (bool, u64, Vec<String>) {
    let mut cell_problems = run.failures.clone();
    if let Some(want) = expected {
        for (i, b) in run.batches.iter().enumerate() {
            // An untraced run's first batch covers every cell.
            cell_problems.extend(check::compare(want, b, trace || i > 0));
        }
    }
    if let Some((first, rest)) = run.batches.split_first() {
        for b in rest {
            cell_problems.extend(check::compare(first, b, true));
        }
    }
    // A run that attempted nothing (say, the daemon never started)
    // still reports one failed attempt.
    let failed = (cell_problems.len() as u64).min(run.attempted.max(1));
    let mut problems = cell_problems;
    problems.extend(stats::audit(&run.metrics, &registry(trace)));
    (problems.is_empty() && run.attempted > 0, failed, problems)
}

/// Run the output checks and, for an untraced run, add `ok_frac` (the
/// share of attempted cells that succeeded and passed every check).
pub fn finish(
    run: &mut WorkloadRun,
    expected: Option<&Digests>,
    trace: bool,
) -> (bool, u64, Vec<String>) {
    if !trace {
        let (_, failed, _) = verdict(run, expected, false);
        let ok = 1.0 - failed as f64 / run.attempted.max(1) as f64;
        run.metrics.put("ok_frac", "frac", ok);
    }
    verdict(run, expected, trace)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("layerbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // The benchmark measures the default configuration: no in-run
    // threads, profiling, sanitizer sweeps or injected I/O faults, for
    // this process and the daemons it starts.
    for var in [
        "TCMP_SIM_THREADS",
        "TCMP_PROFILE",
        "TCMP_SANITIZE",
        "TCMP_FS_FAULTS",
    ] {
        std::env::remove_var(var);
    }
    let daemon = std::env::current_exe()
        .map(|exe| exe.with_file_name("tcmp-serve"))
        .unwrap_or_default();
    let launcher = serve::Launcher::Process(daemon);
    let expected_path = check::expected_path(&args.workload, args.seed);
    let expected = match std::fs::read_to_string(&expected_path) {
        Ok(text) => Some(check::parse(&text).unwrap_or_else(|e| {
            eprintln!("layerbench: {}: {e}", expected_path.display());
            std::process::exit(1);
        })),
        Err(_) => None,
    };

    let steal0 = host::steal_ticks();
    let t0 = Instant::now();
    let mut run = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &launcher,
    );
    let wall_s = t0.elapsed().as_secs_f64();

    if args.write_expected {
        let first = run
            .batches
            .first()
            .filter(|_| !args.trace && run.failures.is_empty());
        let Some(first) = first else {
            eprintln!(
                "layerbench: --write-expected needs a clean untraced run: {:?}",
                run.failures
            );
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(&expected_path, check::render(first)) {
            eprintln!("layerbench: {}: {e}", expected_path.display());
            std::process::exit(1);
        }
        eprintln!("layerbench: wrote {}", expected_path.display());
    }

    let (correct, failed, problems) = finish(&mut run, expected.as_ref(), args.trace);
    // An incomplete run still prints every registered metric (as 0), so
    // the line keeps its shape; `correct` is false.
    for (name, unit) in registry(args.trace) {
        if run.metrics.get(&name).is_none() {
            run.metrics.put(name, unit, 0.0);
        }
    }
    for p in &problems {
        eprintln!("layerbench: check failed: {p}");
    }
    if expected.is_none() {
        eprintln!(
            "layerbench: no stored digests for seed {}; checked conservation and run-to-run determinism only",
            args.seed
        );
    }
    println!("{}", host::record(steal0, wall_s).render());
    println!(
        "{}",
        stats::result_line(correct, run.attempted.max(1), failed, &run.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::journal::Json;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_is_validated() {
        let a = args("--workload mesh16_mp3d --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mesh16_mp3d", 7, 20.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fig6_sweep --seed -1 --seconds 1 --trace 0",
            "--workload fig6_sweep --seed 1 --seconds 0 --trace 0",
            "--workload fig6_sweep --seed 1 --seconds 1 --trace 2",
            "--workload fig6_sweep --seed 1 --seconds 1",
            "--workload fig6_sweep --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn registries_hold_valid_unique_names() {
        let mut all = end_to_end_registry();
        all.extend(per_layer_registry());
        for (i, (n, _)) in all.iter().enumerate() {
            assert!(stats::valid_name(n), "{n}");
            assert!(!all[..i].iter().any(|(o, _)| o == n), "{n} twice");
        }
    }

    /// `BENCHMARK.json` must list exactly the registries' metrics, with
    /// the same units, and exactly this binary's workloads.
    #[test]
    fn benchmark_json_matches_the_registries() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |r: Vec<(String, &str)>| -> Vec<(String, String)> {
            r.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(end_to_end_registry()));
        assert_eq!(listed("per_layer"), own(per_layer_registry()));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    fn assert_clean(mut run: WorkloadRun, trace: bool) -> WorkloadRun {
        let (correct, failed, problems) = finish(&mut run, None, trace);
        assert!(correct && failed == 0, "{problems:?}");
        run
    }

    #[test]
    fn fig6_sweep_smoke() {
        let plan = sim::SweepPlan {
            apps: vec![workloads::apps::fft(), workloads::apps::water_nsq()],
            scale: 0.001,
        };
        let run = assert_clean(sim::fig6(&plan, 5, 0.0), false);
        assert_eq!(run.attempted, 2 * 2 * 8, "two sweeps of 16 cells");
        assert_eq!(run.batches[0], run.batches[1]);
        assert_eq!(run.metrics.get("ok_frac"), Some(1.0));
    }

    #[test]
    fn mesh16_mp3d_smoke() {
        let plan = sim::MeshPlan {
            app: workloads::apps::mp3d(),
            side: 4,
            scale: 0.001,
        };
        let run = assert_clean(sim::mesh16(&plan, 5, 0.0), false);
        assert_eq!(run.batches.len(), 2);
        let exec = run.metrics.get("norm_exec_time_geomean").expect("reported");
        assert!(
            exec > 0.0 && exec < 1.0,
            "the proposal wins on MP3D: {exec}"
        );
    }

    #[test]
    fn serve_campaigns_smoke() {
        let plan = serve::ServePlan {
            apps: vec!["FFT".into()],
            scale: 0.001,
        };
        let work = std::env::temp_dir().join(format!("layerbench-smoke-{}", std::process::id()));
        let mut run = WorkloadRun::default();
        let obs =
            serve::flow(&plan, 5, &serve::Launcher::InProcess, &work, &mut run).expect("flow");
        serve::end_to_end(&obs, &mut run.metrics);
        let run = assert_clean(run, false);
        assert_eq!(
            run.attempted,
            3 * 8,
            "three campaigns of one app x 8 configs"
        );
        assert_eq!(run.batches.len(), 3);
        assert!(!work.exists(), "the flow removes its daemon roots");
    }

    #[test]
    fn traced_layers_smoke() {
        let cmp = CmpConfig {
            mesh: cmp_common::geometry::MeshShape::square(2),
            ..CmpConfig::default()
        };
        let app = workloads::apps::fft();
        let mut run = WorkloadRun::default();
        traced_layers(
            &cmp,
            &[(app.clone(), sim::proposal())],
            &[app],
            5,
            0.001,
            &mut run,
        );
        serve::layer(None, &mut run.metrics);
        let run = assert_clean(run, true);
        assert!(run.metrics.get("noc.flit_hops.uniform").unwrap_or_default() > 0.0);
        assert!(run.metrics.get("codec.dbrc4.hit_rate").unwrap_or_default() > 0.0);
    }

    #[test]
    fn a_perturbed_batch_fails_the_run() {
        let mut run = WorkloadRun {
            attempted: 4,
            ..WorkloadRun::default()
        };
        for (n, u) in end_to_end_registry() {
            run.metrics.put(n, u, 1.0);
        }
        let batch: Digests = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        run.batches = vec![batch.clone(), batch.clone()];
        let (correct, failed, problems) = verdict(&run, Some(&batch), false);
        assert!(correct && failed == 0, "{problems:?}");

        run.batches[1].insert("b".into(), 3);
        let (correct, failed, _) = verdict(&run, Some(&batch), false);
        assert!(!correct);
        // The repeat differs from both the expectation and batch one.
        assert_eq!(failed, 2);
    }
}
