//! `serve_campaigns`: a `tcmp-serve` daemon on a fresh root, driven over
//! its Unix socket by one client connection at a time.
//!
//! The daemon is spawned [`SPAWNS`] times; each start is timed
//! from spawn until a `Status` request is answered, and every start but
//! the last is stopped again. The last one serves a Figure-6 campaign,
//! then Figure 7 over the same cells, then the Figure-6 campaign again.
//! Spans around `Client::request` / `Client::next_event` give the
//! `serve.*` layer metrics; the campaigns' journals give every cell's
//! field-exact result for the output checks.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmp_common::config::{CmpConfig, DirectoryConfig};
use cmp_common::journal::Json;
use tcmp_core::experiment::config_label;
use tcmp_core::sim::SimResult;
use tcmp_core::supervisor::result_from_json;
use tcmp_serve::client::Client;
use tcmp_serve::proto::{CampaignRequest, Event, Figure, Request, Response};
use tcmp_serve::service::{ServeConfig, ServiceHandle};

use crate::check::{digest, Digests};
use crate::sim::{proposal_geomeans, trace_instructions};
use crate::stats::{median, tail, Metrics};
use crate::WorkloadRun;

/// Daemon starts timed for `setup_s`; the last one serves.
const SPAWNS: usize = 3;

/// Sizes of the campaign workload.
#[derive(Clone)]
pub struct ServePlan {
    pub apps: Vec<String>,
    pub scale: f64,
}

impl ServePlan {
    /// Three compute-bound applications at scale 0.4: 24 cells per
    /// campaign.
    pub fn standard() -> Self {
        ServePlan {
            apps: ["Water-nsq", "Water-spa", "LU-cont"]
                .map(String::from)
                .to_vec(),
            scale: 0.4,
        }
    }
}

/// How the benchmark starts a daemon.
#[derive(Clone)]
pub enum Launcher {
    /// Spawn this `tcmp-serve` executable (the measured path).
    Process(PathBuf),
    /// Run the same service on a thread of this process (tests).
    InProcess,
}

/// A spawned daemon process, killed and reaped if the benchmark unwinds
/// before [`Daemon::stop`] has waited for it.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

enum Daemon {
    Process(Reaped),
    Thread {
        stop: Arc<AtomicBool>,
        join: std::thread::JoinHandle<io::Result<()>>,
    },
}

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

impl Daemon {
    fn start(launcher: &Launcher, root: &Path) -> io::Result<Daemon> {
        match launcher {
            Launcher::Process(bin) => Command::new(bin)
                .arg("--root")
                .arg(root)
                .args(["--jobs", "2"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map(|child| Daemon::Process(Reaped(child))),
            Launcher::InProcess => {
                let cfg = ServeConfig {
                    root: root.to_path_buf(),
                    ..ServeConfig::default()
                };
                let socket = root.join("serve.sock");
                let stop = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&stop);
                let join = std::thread::spawn(move || {
                    let handle = ServiceHandle::start(cfg)?;
                    let served = tcmp_serve::daemon::serve(handle.service(), &socket, &flag);
                    handle.drain();
                    served
                });
                Ok(Daemon::Thread { stop, join })
            }
        }
    }

    /// Peak resident memory of the daemon in MB.
    fn peak_rss_mb(&self) -> f64 {
        match self {
            Daemon::Process(child) => crate::host::peak_rss_mb(&child.0.id().to_string()),
            Daemon::Thread { .. } => crate::host::peak_rss_mb("self"),
        }
    }

    /// Drain the daemon (SIGTERM) and wait until it has exited.
    fn stop(self) -> Result<(), String> {
        match self {
            Daemon::Process(mut reaped) => {
                let child = &mut reaped.0;
                let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
                // SAFETY: `kill` only sends a signal; `pid` is our own
                // child, which has not been waited on yet, so the id
                // cannot have been reused.
                unsafe { kill(pid, SIGTERM) };
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    match child.try_wait().map_err(|e| e.to_string())? {
                        Some(status) if status.success() => return Ok(()),
                        Some(status) => return Err(format!("tcmp-serve exited with {status}")),
                        // Dropping `reaped` kills and reaps it.
                        None if Instant::now() >= deadline => {
                            return Err("tcmp-serve did not drain within 60 s".into())
                        }
                        None => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            }
            Daemon::Thread { stop, join } => {
                stop.store(true, Ordering::SeqCst);
                match join.join() {
                    Ok(Ok(())) => Ok(()),
                    Ok(Err(e)) => Err(format!("in-process daemon: {e}")),
                    Err(_) => Err("in-process daemon panicked".into()),
                }
            }
        }
    }
}

/// Connect and ask for `Status` until the daemon answers, or give up
/// after 60 s.
fn await_status(socket: &Path) -> Result<tcmp_serve::proto::CacheCounts, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let answer = Client::connect(socket).and_then(|mut c| c.request(&Request::Status));
        match answer {
            Ok(Response::StatusReport { cache, .. }) => return Ok(cache),
            Ok(other) => return Err(format!("status answered with {other:?}")),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!(
                    "no status from {} within 60 s: {e}",
                    socket.display()
                ))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// What one campaign looked like from the client.
struct CampaignObs {
    id: String,
    wall_s: f64,
    submit_s: f64,
    first_finish_s: Option<f64>,
    cell_s: Vec<f64>,
    gaps_s: Vec<f64>,
    finished: usize,
}

fn run_campaign(
    socket: &Path,
    request: CampaignRequest,
    failures: &mut Vec<String>,
) -> Result<CampaignObs, String> {
    let fig = request.figure.label();
    let mut client = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now();
    let response = client
        .request(&Request::Submit(request))
        .map_err(|e| format!("submit {fig}: {e}"))?;
    let submit_s = t0.elapsed().as_secs_f64();
    let Response::Submitted {
        campaign: id,
        cells,
        ..
    } = response
    else {
        return Err(format!("submit {fig} answered with {response:?}"));
    };
    let mut starts = vec![None; cells];
    let mut seen: HashSet<usize> = HashSet::new();
    let mut obs = CampaignObs {
        id,
        wall_s: 0.0,
        submit_s,
        first_finish_s: None,
        cell_s: Vec::new(),
        gaps_s: Vec::new(),
        finished: 0,
    };
    let mut last = Instant::now();
    loop {
        let event = client
            .next_event()
            .map_err(|e| format!("{fig} event stream: {e}"))?
            .ok_or_else(|| format!("{fig} event stream closed before campaign_done"))?;
        let now = Instant::now();
        obs.gaps_s.push((now - last).as_secs_f64());
        last = now;
        match event {
            // Indices come from the daemon: never index with them blind.
            Event::CellStart { index, .. } => {
                if let Some(slot) = starts.get_mut(index) {
                    *slot = Some(now);
                }
            }
            Event::CellFinish { index, .. } if seen.insert(index) => {
                obs.finished += 1;
                obs.first_finish_s.get_or_insert((now - t0).as_secs_f64());
                if let Some(s) = starts.get(index).copied().flatten() {
                    obs.cell_s.push((now - s).as_secs_f64());
                }
            }
            Event::CellFinish { .. } => {}
            Event::CellFail { cell, error, .. } => failures.push(format!("{fig} {cell}: {error}")),
            Event::CampaignDone { .. } => {
                obs.wall_s = t0.elapsed().as_secs_f64();
                return Ok(obs);
            }
        }
    }
}

/// Field-exact results of a campaign, decoded from its journal.
fn journal_results(dir: &Path) -> Result<Vec<SimResult>, String> {
    let path = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("finish"))
        .map(|j| result_from_json(j.get("row").ok_or("finish record without a row")?))
        .collect()
}

fn tree_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Everything the serve flow observed.
pub struct ServeObs {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    campaigns: Vec<CampaignObs>,
    results: Vec<Vec<SimResult>>,
    cache: tcmp_serve::proto::CacheCounts,
    state_bytes: u64,
}

/// Run the daemon starts and the three campaigns under `work`, which is
/// removed afterwards; output checks land in `run`.
pub fn flow(
    plan: &ServePlan,
    seed: u64,
    launcher: &Launcher,
    work: &Path,
    run: &mut WorkloadRun,
) -> Option<ServeObs> {
    let obs = flow_in(plan, seed, launcher, work, run);
    let _ = std::fs::remove_dir_all(work);
    obs
}

fn flow_in(
    plan: &ServePlan,
    seed: u64,
    launcher: &Launcher,
    work: &Path,
    run: &mut WorkloadRun,
) -> Option<ServeObs> {
    let _ = std::fs::remove_dir_all(work);
    if let Err(e) = std::fs::create_dir_all(work) {
        run.failures
            .push(format!("cannot create {}: {e}", work.display()));
        return None;
    }
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut root = PathBuf::new();
    for i in 0..SPAWNS {
        root = work.join(format!("d{i}"));
        let t = Instant::now();
        let started = Daemon::start(launcher, &root);
        let d = match started {
            Ok(d) => d,
            Err(e) => {
                run.failures.push(format!("cannot start tcmp-serve: {e}"));
                return None;
            }
        };
        if let Err(e) = await_status(&root.join("serve.sock")) {
            run.failures.push(e);
            let _ = d.stop();
            return None;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SPAWNS {
            if let Err(e) = d.stop() {
                run.failures.push(e);
            }
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one daemon start");
    let socket = root.join("serve.sock");
    let request = |figure| CampaignRequest {
        figure,
        apps: plan.apps.clone(),
        seed,
        scale: plan.scale,
        perfect: true,
        retries: 0,
        deadline_s: None,
        directory: DirectoryConfig::FullMap,
    };
    let mut campaigns = Vec::new();
    for figure in [Figure::Fig6, Figure::Fig7, Figure::Fig6] {
        match run_campaign(&socket, request(figure), &mut run.failures) {
            Ok(c) => campaigns.push(c),
            Err(e) => {
                run.failures.push(e);
                break;
            }
        }
    }
    let cache = await_status(&socket).unwrap_or_else(|e| {
        run.failures.push(e);
        Default::default()
    });
    let peak_rss_mb = daemon.peak_rss_mb();
    if let Err(e) = daemon.stop() {
        run.failures.push(e);
    }
    if campaigns.len() < 3 {
        return None;
    }

    // Output checks: every cell of every campaign decodes from its
    // journal, repeats reproduce the first campaign, cells conserve
    // their trace's instructions, and the repeated Figure-6 campaign
    // renders byte-identical CSVs.
    let dirs: Vec<PathBuf> = campaigns
        .iter()
        .map(|c| root.join("campaigns").join(&c.id))
        .collect();
    let apps: Vec<_> = plan
        .apps
        .iter()
        .filter_map(|a| workloads::apps::app_by_name(a))
        .collect();
    let instructions = trace_instructions(&apps, CmpConfig::default().tiles(), seed, plan.scale);
    let mut results = Vec::new();
    for (c, dir) in campaigns.iter().zip(&dirs) {
        run.attempted += c.finished as u64;
        let rs = journal_results(dir).unwrap_or_else(|e| {
            run.failures.push(e);
            Vec::new()
        });
        let mut digests = Digests::new();
        for r in &rs {
            let label = format!("{}/{}", r.app, config_label(r));
            let want = instructions
                .iter()
                .find(|(a, _)| *a == r.app)
                .map_or(0, |e| e.1);
            run.failures
                .extend(crate::check::instructions_conserved(&label, r, want));
            digests.insert(label, digest(r));
        }
        if digests.len() != c.finished {
            run.failures.push(format!(
                "campaign {}: {} cells finished but the journal holds {}",
                c.id,
                c.finished,
                digests.len()
            ));
        }
        run.batches.push(digests);
        results.push(rs);
    }
    for csv in ["results.exec_time.csv", "results.link_ed2p.csv"] {
        let read = |d: &PathBuf| std::fs::read(d.join(csv)).map_err(|e| format!("{csv}: {e}"));
        match (read(&dirs[0]), read(&dirs[2])) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => run
                .failures
                .push(format!("{csv}: repeated campaign differs from the first")),
            (Err(e), _) | (_, Err(e)) => run.failures.push(e),
        }
    }
    let state_bytes = tree_bytes(&root);
    Some(ServeObs {
        setup_s,
        peak_rss_mb,
        campaigns,
        results,
        cache,
        state_bytes,
    })
}

/// The end-to-end metrics of an untraced serve run.
pub fn end_to_end(obs: &ServeObs, m: &mut Metrics) {
    let c = &obs.campaigns;
    let cycles: f64 = obs.results.iter().flatten().map(|r| r.cycles as f64).sum();
    let walls: f64 = c.iter().map(|c| c.wall_s).sum();
    let (exec, ed2p) = proposal_geomeans(&obs.results[0]);
    m.put("cells_per_s", "1/s", c[0].finished as f64 / c[0].wall_s);
    m.put("sim_cycles_per_s", "1/s", cycles / walls);
    m.put(
        "repeat_cells_per_s",
        "1/s",
        (c[1].finished + c[2].finished) as f64 / (c[1].wall_s + c[2].wall_s),
    );
    // One Submit → first `CellFinish` interval is a single sub-second
    // sample; the median over the three campaigns is the steady figure.
    let firsts: Vec<f64> = c.iter().filter_map(|c| c.first_finish_s).collect();
    m.put("first_result_s", "s", median(&firsts));
    m.put("setup_s", "s", median(&obs.setup_s));
    m.put("peak_rss_mb", "MB", obs.peak_rss_mb);
    m.put("norm_exec_time_geomean", "ratio", exec);
    m.put("norm_link_ed2p_geomean", "ratio", ed2p);
}

/// The `serve.*` layer metrics.
pub fn layer(obs: Option<&ServeObs>, m: &mut Metrics) {
    let Some(obs) = obs else {
        // The in-process workloads never reach the service layer.
        for name in SERVE_LAYER {
            m.put(name.0, name.1, 0.0);
        }
        return;
    };
    let c = &obs.campaigns;
    let cells: Vec<f64> = c.iter().flat_map(|c| c.cell_s.iter().copied()).collect();
    let gaps: Vec<f64> = c.iter().flat_map(|c| c.gaps_s.iter().copied()).collect();
    let t = tail(&cells);
    m.put(
        "serve.submit_s",
        "s",
        median(&c.iter().map(|c| c.submit_s).collect::<Vec<_>>()),
    );
    m.put("serve.cell_s_p50", "s", median(&cells));
    m.put("serve.cell_s_tail", "s", t.map_or(f64::NAN, |t| t.value));
    m.put(
        "serve.cell_s_tail_pct",
        "pct",
        t.map_or(f64::NAN, |t| t.pct),
    );
    m.put("serve.cell_s_samples", "count", cells.len() as f64);
    m.put("serve.event_gap_s_p50", "s", median(&gaps));
    m.put("serve.cache_hits", "count", obs.cache.hits as f64);
    m.put("serve.cache_misses", "count", obs.cache.misses as f64);
    m.put("serve.state_bytes", "B", obs.state_bytes as f64);
}

/// The `serve.*` metric names and units.
pub const SERVE_LAYER: [(&str, &str); 9] = [
    ("serve.submit_s", "s"),
    ("serve.cell_s_p50", "s"),
    ("serve.cell_s_tail", "s"),
    ("serve.cell_s_tail_pct", "pct"),
    ("serve.cell_s_samples", "count"),
    ("serve.event_gap_s_p50", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.state_bytes", "B"),
];
