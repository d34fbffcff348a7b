//! Full-simulator throughput benchmark (std-only, offline).
//!
//! Three figures of merit, written to `BENCH.json`:
//!
//! * `fullsim_hotspot` — simulated cycles per wall-clock second of a
//!   single-threaded baseline run on the hotspot synthetic workload
//!   (the event loop's raw speed).
//! * `figure6_matrix` — completed runs per wall-clock second over the
//!   Figure 6 matrix (all apps × configs, default `--scale 0.25`),
//!   i.e. what a full evaluation sweep costs.
//! * `sparse_mesh_16x16` — one FFT baseline+proposal cell pair on the
//!   16×16 mesh the sparse directory unlocks (the full-map
//!   organisation cannot build this machine at all), so BENCH.json
//!   tracks the cost of the large-mesh capability.
//!
//! Usage:
//!   fullsim_bench [--trials N] [--warmup N] [--scale F] [--seed N]
//!                 [--out PATH] [--app NAME]... [--skip-matrix]
//!                 [--skip-mesh] [--jobs N] [--profile]
//!
//! `--profile` runs one extra (unmeasured) hotspot pass with the
//! engine's per-phase wall-clock attribution enabled and prints the
//! report to stderr — the cheap way to see where the event loop's
//! time goes (NoC tick / L1 / L2+directory / calendar / advance)
//! before reaching for a real profiler. `TCMP_PROFILE=1` does the
//! same from the environment for any simulator-embedding binary.

use addr_compression::CompressionScheme;
use cmp_bench::harness::{measure, to_bench_json, BenchStats};
use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::geometry::MeshShape;
use tcmp_core::experiment::{run_matrix_jobs, RunSpec};
use tcmp_core::niface::InterconnectChoice;
use tcmp_core::sim::{CmpSimulator, SimConfig};
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;
use workloads::synthetic;

struct BenchOptions {
    trials: usize,
    warmup: usize,
    /// Matrix trace scale (the hotspot benchmark always runs at 1.0).
    scale: f64,
    seed: u64,
    out: String,
    /// Matrix application filter (empty = all 13), resolved at parse
    /// time so an unknown name is a usage error.
    apps: Vec<AppProfile>,
    skip_matrix: bool,
    skip_mesh: bool,
    /// Matrix worker-thread cap (`None` = all cores).
    jobs: Option<usize>,
    /// Run one extra profiled hotspot pass and print the per-phase
    /// wall-clock attribution to stderr.
    profile: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            trials: 5,
            warmup: 1,
            scale: 0.25,
            seed: 0xC0FFEE,
            out: "BENCH.json".to_string(),
            apps: Vec::new(),
            skip_matrix: false,
            skip_mesh: false,
            jobs: None,
            profile: false,
        }
    }
}

fn usage<T>() -> T {
    eprintln!(
        "usage: fullsim_bench [--trials N] [--warmup N] [--scale F] [--seed N] \
         [--out PATH] [--app NAME]... [--skip-matrix] [--skip-mesh] [--jobs N] \
         [--profile]"
    );
    std::process::exit(2)
}

fn parse_args() -> BenchOptions {
    let mut o = BenchOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => {
                o.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--warmup" => {
                o.warmup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--scale" => {
                o.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--seed" => {
                o.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage)
            }
            "--out" => o.out = args.next().unwrap_or_else(usage),
            "--app" => {
                let name = args.next().unwrap_or_else(usage);
                let app = cmp_bench::cli::resolve_app(&name).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                o.apps.push(app);
            }
            "--skip-matrix" => o.skip_matrix = true,
            "--skip-mesh" => o.skip_mesh = true,
            "--jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage);
                if n == 0 {
                    eprintln!("--jobs must be >= 1");
                    usage()
                }
                o.jobs = Some(n);
            }
            "--profile" => o.profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if o.trials == 0 {
        eprintln!("--trials must be at least 1");
        usage()
    }
    o
}

/// One full baseline simulation of the hotspot synthetic workload;
/// returns simulated cycles (the work figure for cycles/sec).
fn hotspot_run(seed: u64) -> f64 {
    let app = synthetic::hotspot(20_000, 64);
    let mut sim = CmpSimulator::new(SimConfig::baseline(), &app, seed, 1.0);
    let r = sim.run().expect("hotspot benchmark run completes");
    r.cycles as f64
}

/// One FFT baseline+proposal cell pair on the sparse-directory 16×16
/// mesh (256 tiles — beyond what the full-map organisation can build);
/// returns total simulated cycles (the work figure for cycles/sec).
fn sparse_mesh_run(seed: u64) -> f64 {
    let app = workloads::apps::fft();
    let cmp = CmpConfig {
        mesh: MeshShape::square(16),
        directory: DirectoryConfig::sparse(),
        ..CmpConfig::default()
    };
    let cells = [
        (InterconnectChoice::Baseline, CompressionScheme::None),
        (
            InterconnectChoice::Heterogeneous(VlWidth::FiveBytes),
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
        ),
    ];
    let mut total = 0u64;
    for (interconnect, scheme) in cells {
        let mut cfg = SimConfig::new(interconnect, scheme);
        cfg.cmp = cmp.clone();
        let mut sim = CmpSimulator::new(cfg, &app, seed, 0.002);
        total += sim
            .run()
            .expect("16x16 sparse benchmark run completes")
            .cycles;
    }
    total as f64
}

/// One pass over the Figure 6 matrix; returns the number of runs (the
/// work figure for runs/sec).
fn matrix_pass(opts: &BenchOptions) -> f64 {
    let cmp = CmpConfig::default();
    let configs = cmp_bench::matrix::figure6_configs(false);
    let apps = if opts.apps.is_empty() {
        workloads::apps::all_apps()
    } else {
        opts.apps.clone()
    };
    let mut specs = Vec::new();
    for app in &apps {
        for config in &configs {
            specs.push(RunSpec {
                app: app.clone(),
                config: config.clone(),
                seed: opts.seed,
                scale: opts.scale,
            });
        }
    }
    let results = run_matrix_jobs(&cmp, &specs, opts.jobs).unwrap_or_else(|e| {
        eprintln!("matrix failed: {e}");
        std::process::exit(1);
    });
    results.len() as f64
}

/// One profiled hotspot run (not part of any measured series); prints
/// the engine's per-phase attribution to stderr.
fn profile_pass(seed: u64) {
    eprintln!("profile pass: one hotspot run with phase attribution...");
    let app = synthetic::hotspot(20_000, 64);
    let mut sim = CmpSimulator::new(SimConfig::baseline(), &app, seed, 1.0);
    sim.enable_profiling();
    sim.run().expect("profiled hotspot run completes");
    let report = sim.phase_profile().expect("profiling was enabled").report();
    eprint!("{report}");
}

fn main() {
    let opts = parse_args();
    let mut stats: Vec<BenchStats> = Vec::new();

    if opts.profile {
        profile_pass(opts.seed);
    }

    eprintln!(
        "fullsim_hotspot: {} warmup + {} trials (single run each)...",
        opts.warmup, opts.trials
    );
    let seed = opts.seed;
    stats.push(measure(
        "fullsim_hotspot",
        "simulated_cycles_per_sec",
        opts.warmup,
        opts.trials,
        || hotspot_run(seed),
    ));
    let h = stats.last().expect("just pushed");
    eprintln!(
        "  median {:.3e} cycles/s (p10 {:.3e}, p90 {:.3e})",
        h.median, h.p10, h.p90
    );

    if !opts.skip_mesh {
        eprintln!(
            "sparse_mesh_16x16: {} warmup + {} trials (baseline+proposal pair each)...",
            opts.warmup, opts.trials
        );
        stats.push(measure(
            "sparse_mesh_16x16",
            "simulated_cycles_per_sec",
            opts.warmup,
            opts.trials,
            || sparse_mesh_run(seed),
        ));
        let s = stats.last().expect("just pushed");
        eprintln!(
            "  median {:.3e} cycles/s (p10 {:.3e}, p90 {:.3e})",
            s.median, s.p10, s.p90
        );
    }

    if !opts.skip_matrix {
        eprintln!(
            "figure6_matrix: {} warmup + {} trials at scale {}...",
            opts.warmup, opts.trials, opts.scale
        );
        stats.push(measure(
            "figure6_matrix",
            "runs_per_sec",
            opts.warmup,
            opts.trials,
            || matrix_pass(&opts),
        ));
        let m = stats.last().expect("just pushed");
        eprintln!(
            "  median {:.3} runs/s (p10 {:.3}, p90 {:.3})",
            m.median, m.p10, m.p90
        );
    }

    let meta = [
        ("warmup", opts.warmup.to_string()),
        ("trials", opts.trials.to_string()),
        ("matrix_scale", opts.scale.to_string()),
        ("seed", opts.seed.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        (
            "git_sha",
            format!("\"{}\"", tcmp_core::supervisor::build_git_sha()),
        ),
    ];
    let meta_refs: Vec<(&str, String)> = meta.iter().map(|(k, v)| (*k, v.clone())).collect();
    let json = to_bench_json(&meta_refs, &stats);
    // atomic tmp-then-rename: a kill mid-write can never leave a
    // truncated BENCH.json for tooling to misparse
    cmp_common::journal::write_atomic(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);
}
