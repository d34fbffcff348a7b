//! Supervised, crash-resumable execution of experiment campaigns.
//!
//! A figure matrix is hours of compute; this module makes one cell
//! misbehaving (livelock, runaway, simulator bug) or the whole process
//! dying (OOM kill, pre-emption, ctrl-C) cost a cell, not the campaign:
//!
//! * [`RunPolicy`] bounds each cell — a cycle budget, a wall-clock
//!   deadline, bounded retry-with-backoff — and opts into periodic
//!   in-process snapshots so an aborted cell can be *rewound* and
//!   re-stepped with the protocol sanitizer armed, turning "the
//!   watchdog fired" into a forensic verdict ([`ForensicReport`]).
//! * [`run_supervised`] runs one cell under a policy.
//! * [`run_matrix_supervised`] runs a whole sweep under a policy,
//!   recording every cell into a durable [`Journal`]; re-running with
//!   the same journal skips finished cells, so a `SIGKILL`ed campaign
//!   resumes bit-identically (rows come back through the lossless
//!   [`result_to_json`]/[`result_from_json`] codec).
//! * [`with_retries`]/[`reseed`] are the generic retry ladder, shared
//!   with the fault-campaign driver: attempt 0 keeps the original seed
//!   so deterministic results stay deterministic, later attempts
//!   perturb only the *fault* seed, never the workload trace.

use std::borrow::BorrowMut;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use addr_compression::CompressionScheme;
use cmp_common::config::CmpConfig;
use cmp_common::fault::FaultStats;
use cmp_common::journal::{fingerprint, CampaignMeta, Journal, Json};
use cmp_common::stats::Counter;
use cmp_common::types::{Cycle, MessageClass};
use cmp_common::units::Joules;
use coherence::sanitizer::SanitizerConfig;
use energy_model::breakdown::EnergyBreakdown;
use wire_model::wires::VlWidth;
use workloads::profile::AppProfile;

use crate::checkpoint::{CacheLoad, CheckpointCache, WarmKey};
use crate::experiment::{panic_message, RunSpec};
use crate::niface::{InterconnectChoice, ResyncStats};
use crate::sim::{ClassCount, CmpSimulator, SimConfig, SimError, SimResult};

/// How often the supervisor polls the wall clock and the snapshot
/// schedule, in scheduler iterations. `Instant::now` is tens of
/// nanoseconds; at this cadence the overhead is unmeasurable.
const SUPERVISE_EVERY_ITERS: u64 = 2048;

/// Per-cell resource limits and failure handling for supervised runs.
#[derive(Clone, Debug)]
pub struct RunPolicy {
    /// Cap the cell at this many simulated cycles (tightens the
    /// config's own `max_cycles`; `None` keeps the config's cap).
    pub cycle_budget: Option<Cycle>,
    /// Abort the cell with [`SimError::WallDeadline`] once this much
    /// real time has elapsed (`None` = no deadline).
    pub wall_deadline: Option<Duration>,
    /// Re-run a failed cell up to this many extra times.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each further retry.
    pub backoff: Duration,
    /// Checkpoint the machine every this many cycles so an aborted
    /// cell can be rewound for forensics (`None` = no snapshots).
    pub snapshot_period: Option<Cycle>,
    /// On a forward-progress abort, rewind to the last checkpoint and
    /// re-step with the protocol sanitizer armed, attaching a
    /// [`ForensicReport`] to the failure.
    pub forensics: bool,
    /// Stop claiming new cells after this many have been attempted —
    /// the in-process analogue of killing the campaign mid-flight,
    /// used by the resume tests (`None` = run everything).
    pub cell_limit: Option<usize>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            cycle_budget: None,
            wall_deadline: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            snapshot_period: None,
            forensics: false,
            cell_limit: None,
        }
    }
}

/// What the rewind-and-replay pass learned about an aborted cell.
#[derive(Clone, Debug)]
pub struct ForensicReport {
    /// Cycle of the checkpoint the machine was rewound to.
    pub rewound_to: Cycle,
    /// Cycle the sanitized replay reached before stopping.
    pub replayed_to: Cycle,
    /// Human-readable conclusion (sanitizer verdict or reproduction).
    pub verdict: String,
}

/// A supervised cell that failed terminally, with any forensics.
#[derive(Debug)]
pub struct SupervisedFailure {
    pub error: SimError,
    pub forensics: Option<ForensicReport>,
}

impl std::fmt::Display for SupervisedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(fr) = &self.forensics {
            write!(
                f,
                "\nforensics: rewound to cycle {}, replayed to cycle {}: {}",
                fr.rewound_to, fr.replayed_to, fr.verdict
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SupervisedFailure {}

/// Run one cell under `policy`: step the simulator with periodic
/// wall-clock checks and (optionally) rolling snapshots; on a
/// forward-progress abort, optionally rewind and replay with the
/// sanitizer armed to classify the failure.
pub fn run_supervised(
    mut cfg: SimConfig,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    policy: &RunPolicy,
) -> Result<SimResult, SupervisedFailure> {
    if let Some(budget) = policy.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    let mut sim = CmpSimulator::new(cfg, app, seed, scale);
    supervise(&mut sim, policy)
}

/// How one supervised run crossed (or didn't) its warm-start point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No checkpoint cache was offered.
    Disabled,
    /// Cache miss: the prefix was simulated fresh and stored for later
    /// sharers of the same configuration.
    Stored,
    /// Cache hit: the run fast-forwarded from a verified checkpoint.
    Warmed,
    /// The cached checkpoint failed digest verification: it was
    /// quarantined and this run simulated fresh (then re-stored a clean
    /// checkpoint under the same key).
    Quarantined,
    /// The run completed before reaching the warm point; nothing was
    /// cached.
    Finished,
}

impl WarmStart {
    /// Stable label (events, logs).
    pub fn label(&self) -> &'static str {
        match self {
            WarmStart::Disabled => "disabled",
            WarmStart::Stored => "stored",
            WarmStart::Warmed => "warmed",
            WarmStart::Quarantined => "quarantined",
            WarmStart::Finished => "finished",
        }
    }

    /// Parse a [`WarmStart::label`] back.
    pub fn from_label(s: &str) -> Option<WarmStart> {
        Some(match s {
            "disabled" => WarmStart::Disabled,
            "stored" => WarmStart::Stored,
            "warmed" => WarmStart::Warmed,
            "quarantined" => WarmStart::Quarantined,
            "finished" => WarmStart::Finished,
            _ => return None,
        })
    }
}

/// The checkpoint-cache key for one cell: a fingerprint of everything
/// that shapes its simulation prefix — the full [`SimConfig`] (machine,
/// interconnect, scheme, fault campaign, sanitizer, watchdog and cycle
/// cap, via its `Debug` rendering), the app, the trace seed and the
/// scale — paired with the warm-point cycle.
pub fn warm_key(cfg: &SimConfig, app: &AppProfile, seed: u64, scale: f64, warm: Cycle) -> WarmKey {
    let desc = format!("{cfg:?}|app={}|seed={seed:#x}|scale={scale:?}", app.name);
    (fingerprint(&desc), warm)
}

/// [`run_supervised`] with an optional warm-start checkpoint cache.
///
/// With `cache = Some((cache, warm_cycles))`, the run first consults
/// the cache for a checkpoint of its own configuration at the warm
/// point: a verified hit is restored (fast-forward); a miss — or a
/// corrupt entry, which is quarantined — simulates the prefix fresh
/// and stores a checkpoint at the first iteration boundary at or past
/// `warm_cycles`. Either way the remainder runs under the normal
/// supervision loop, and because snapshot/restore is bit-identical,
/// the result is exactly that of an uncached run — the cache can only
/// change wall-clock time, never numbers.
pub fn run_supervised_cached(
    mut cfg: SimConfig,
    app: &AppProfile,
    seed: u64,
    scale: f64,
    policy: &RunPolicy,
    cache: Option<(&CheckpointCache, Cycle)>,
) -> Result<(SimResult, WarmStart), SupervisedFailure> {
    if let Some(budget) = policy.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    let Some((cache, warm_cycles)) = cache.filter(|&(_, w)| w > 0) else {
        let mut sim = CmpSimulator::new(cfg, app, seed, scale);
        return supervise(&mut sim, policy).map(|r| (r, WarmStart::Disabled));
    };
    let key = warm_key(&cfg, app, seed, scale, warm_cycles);
    let mut sim = CmpSimulator::new(cfg, app, seed, scale);
    // The freshly built machine IS the decode template for the disk
    // tier: the warm key fingerprints the full configuration, so its
    // shape provably matches whatever bytes are stored under this key.
    let warm = match cache.load_via(&key, || Box::new(sim.snapshot())) {
        CacheLoad::Hit(snap) => {
            sim.restore(&snap);
            WarmStart::Warmed
        }
        outcome => {
            let warm = match outcome {
                CacheLoad::Quarantined => WarmStart::Quarantined,
                _ => WarmStart::Stored,
            };
            // Simulate the prefix fresh, then checkpoint it for the
            // next sharer. The supervision loop proper takes over after
            // the warm point; the prefix is short by construction, so
            // running it without wall-clock polling is fine.
            loop {
                if sim.cycle() >= warm_cycles {
                    cache.store(key, sim.snapshot());
                    break;
                }
                match sim.step() {
                    Ok(true) => {}
                    Ok(false) => return Ok((sim.finish(), WarmStart::Finished)),
                    Err(error) => {
                        return Err(SupervisedFailure {
                            error,
                            forensics: None,
                        })
                    }
                }
            }
            warm
        }
    };
    supervise(&mut sim, policy).map(|r| (r, warm))
}

/// [`run_supervised`] for a simulator the caller has already built
/// (and possibly instrumented with campaign hooks). The policy's
/// `cycle_budget` is not applied here — it tightens the config, which
/// is fixed once the machine exists.
pub fn supervise(
    sim: &mut CmpSimulator,
    policy: &RunPolicy,
) -> Result<SimResult, SupervisedFailure> {
    let started = Instant::now();
    let mut checkpoint = None;
    let mut next_snapshot = policy.snapshot_period.unwrap_or(Cycle::MAX);
    let mut iters: u64 = 0;
    loop {
        match sim.step() {
            Ok(true) => {}
            Ok(false) => return Ok(sim.finish()),
            Err(error) => {
                let wants_forensics = policy.forensics
                    && matches!(
                        error,
                        SimError::NoForwardProgress { .. } | SimError::Watchdog { .. }
                    );
                let forensics = if wants_forensics {
                    checkpoint
                        .as_ref()
                        .map(|snap| forensic_replay(sim, snap, error.cycle()))
                } else {
                    None
                };
                return Err(SupervisedFailure { error, forensics });
            }
        }
        iters += 1;
        if iters % SUPERVISE_EVERY_ITERS != 0 {
            continue;
        }
        if sim.cycle() >= next_snapshot {
            checkpoint = Some(sim.snapshot());
            // period is Some whenever next_snapshot is reachable
            next_snapshot = sim.cycle() + policy.snapshot_period.unwrap_or(Cycle::MAX);
        }
        if let Some(deadline) = policy.wall_deadline {
            if started.elapsed() >= deadline {
                return Err(SupervisedFailure {
                    error: SimError::WallDeadline {
                        cycle: sim.cycle(),
                        limit_ms: deadline.as_millis() as u64,
                    },
                    forensics: None,
                });
            }
        }
    }
}

/// Rewind to `snap`, arm the sanitizer, and re-step until the replay
/// either reproduces a failure or passes `abort_cycle`. Deterministic
/// replay re-trips the same abort, so the loop is bounded by the
/// original stall window.
fn forensic_replay(
    sim: &mut CmpSimulator,
    snap: &crate::engine::MachineSnapshot,
    abort_cycle: Cycle,
) -> ForensicReport {
    let rewound_to = snap.cycle();
    sim.restore(snap);
    sim.arm_sanitizer(SanitizerConfig::default());
    let verdict = loop {
        match sim.step() {
            Ok(true) => {
                if sim.cycle() > abort_cycle {
                    break "replay ran past the abort cycle without failing \
                           (the abort did not reproduce from the checkpoint)"
                        .to_string();
                }
            }
            Ok(false) => break "replay ran to completion".to_string(),
            Err(SimError::Sanitizer {
                cycle, violations, ..
            }) => {
                break format!(
                    "sanitizer found {} coherence violation(s) at cycle {cycle}: \
                     the stall follows metadata corruption, not a scheduling loop",
                    violations.len()
                );
            }
            Err(e) => {
                break format!(
                    "replay reproduced the failure ({}); sanitizer sweeps up to that \
                     point found the coherence state consistent — genuine \
                     forward-progress loss, not metadata corruption",
                    e.brief()
                );
            }
        }
    };
    ForensicReport {
        rewound_to,
        replayed_to: sim.cycle(),
        verdict,
    }
}

/// Call `attempt(n)` for `n = 0, 1, …` until it succeeds or `retries`
/// extra attempts are exhausted, sleeping `backoff · 2ⁿ` between
/// attempts. On terminal failure returns the total attempt count with
/// the last error.
pub fn with_retries<T, E>(
    retries: u32,
    backoff: Duration,
    mut attempt: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, (u32, E)> {
    let mut n: u32 = 0;
    loop {
        match attempt(n) {
            Ok(v) => return Ok(v),
            Err(e) if n >= retries => return Err((n + 1, e)),
            Err(_) => {
                let wait = backoff.saturating_mul(1u32 << n.min(16));
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                n += 1;
            }
        }
    }
}

/// Derive the fault seed for retry `attempt` of a cell seeded with
/// `seed`. Attempt 0 is the identity — a retry of a deterministic
/// failure only makes sense with fresh fault timing, but the *first*
/// run must use exactly the configured seed. SplitMix64 finalizer, so
/// nearby attempts get unrelated streams.
pub fn reseed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Journal key of one matrix cell: stable across processes and builds,
/// unique within a sweep (label + seed + scale disambiguate repeats of
/// one (app, config) pair).
pub fn cell_key(spec: &RunSpec) -> String {
    format!(
        "{}|{}|seed={:#x}|scale={:?}",
        spec.app.name, spec.config.label, spec.seed, spec.scale
    )
}

/// Git revision stamped into campaign journals: `TCMP_GIT_SHA` when
/// set (CI), else `git rev-parse`, else `"unknown"`.
pub fn build_git_sha() -> String {
    if let Ok(sha) = std::env::var("TCMP_GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The identity stamp of a sweep: build SHA plus a fingerprint of the
/// machine description and every cell. [`Journal::resume`] refuses a
/// mismatch, so rows from a different build or sweep never mix.
pub fn campaign_meta(cmp: &CmpConfig, specs: &[RunSpec]) -> CampaignMeta {
    let mut desc = format!("{cmp:?}");
    for s in specs {
        desc.push('\n');
        desc.push_str(&cell_key(s));
        desc.push_str(&format!(
            "|{:?}|{:?}",
            s.config.interconnect, s.config.scheme
        ));
    }
    CampaignMeta {
        git_sha: build_git_sha(),
        config_hash: fingerprint(&desc),
        cells: specs.len(),
    }
}

/// One cell of a supervised matrix that failed terminally.
#[derive(Debug)]
pub struct CellFailure {
    /// Index into the spec list (and into `MatrixReport::results`).
    pub index: usize,
    pub app: String,
    pub config: String,
    /// Attempts made (1 = no retries were left or needed).
    pub attempts: u32,
    pub error: SimError,
    pub forensics: Option<ForensicReport>,
}

/// Outcome of a supervised matrix: one slot per spec, in spec order —
/// the order is a function of the spec list alone, never of thread
/// scheduling or which attempt finally succeeded.
#[derive(Debug, Default)]
pub struct MatrixReport {
    /// Index-aligned with the spec list; `None` where the cell failed
    /// or was never attempted (`cell_limit`).
    pub results: Vec<Option<SimResult>>,
    /// Terminal failures, sorted by cell index.
    pub failures: Vec<CellFailure>,
    /// Cells skipped because the journal already had their rows.
    pub skipped: usize,
}

impl MatrixReport {
    /// Did every cell produce a result?
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// The successful rows, in spec order.
    pub fn completed(&self) -> Vec<SimResult> {
        self.results.iter().flatten().cloned().collect()
    }
}

/// Outcome of one journaled, retried, panic-isolated cell.
pub struct CellRun {
    /// The cell's result, or its terminal failure.
    pub outcome: Result<SimResult, SupervisedFailure>,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// How the successful attempt crossed the warm-start point
    /// ([`WarmStart::Disabled`] on failure or without a cache).
    pub warm: WarmStart,
}

/// Run one matrix cell exactly as [`run_matrix_supervised`]'s workers
/// do — per-attempt `start` records, panic isolation, the retry ladder
/// reseeding only the fault injector, a terminal `finish`/`fail` record
/// — but callable from any driver that owns its own journal (the
/// campaign service runs every queued cell through this).
///
/// `journal` accepts anything mutex-wrapping a [`Journal`] (owned or
/// `&mut`). `cache` is consulted only on attempt 0: a retry perturbs
/// the fault seed, which changes the configuration fingerprint, so
/// caching retry prefixes would only pollute the cache.
pub fn run_journaled_cell<J: BorrowMut<Journal>>(
    cmp: &CmpConfig,
    spec: &RunSpec,
    policy: &RunPolicy,
    journal: Option<&Mutex<J>>,
    cache: Option<(&CheckpointCache, Cycle)>,
) -> CellRun {
    // Qualified so the blanket `impl BorrowMut<T> for T` on the guard
    // itself cannot shadow the journal view of `J`.
    fn with_journal<J: BorrowMut<Journal>>(j: &Mutex<J>, f: impl FnOnce(&mut Journal)) {
        let mut guard = j.lock().unwrap_or_else(|p| p.into_inner());
        f(BorrowMut::<Journal>::borrow_mut(&mut *guard));
    }
    let key = cell_key(spec);
    let warm_seen = std::cell::Cell::new(WarmStart::Disabled);
    let attempts_made = std::cell::Cell::new(0u32);
    let run = |attempt: u32| {
        attempts_made.set(attempt + 1);
        if let Some(j) = journal {
            with_journal(j, |j| {
                if let Err(e) = j.record_start(&key, attempt + 1) {
                    eprintln!("journal: start record for cell {key} failed: {e}");
                }
            });
        }
        // A panicking cell must not leave its slot empty, the mutex
        // poisoned, or its journal entry dangling.
        catch_unwind(AssertUnwindSafe(|| {
            let mut cfg = SimConfig::new(spec.config.interconnect, spec.config.scheme);
            cfg.cmp = cmp.clone();
            // Retries perturb only the fault-injector seed; the
            // workload trace seed is part of the cell's identity and
            // never changes.
            cfg.faults.seed = reseed(cfg.faults.seed, attempt);
            let cache = if attempt == 0 { cache } else { None };
            run_supervised_cached(cfg, &spec.app, spec.seed, spec.scale, policy, cache).map(
                |(result, warm)| {
                    warm_seen.set(warm);
                    result
                },
            )
        }))
        .unwrap_or_else(|payload| {
            Err(SupervisedFailure {
                error: SimError::Panic {
                    message: panic_message(payload),
                },
                forensics: None,
            })
        })
    };
    match with_retries(policy.retries, policy.backoff, run) {
        Ok(result) => {
            if let Some(j) = journal {
                with_journal(j, |j| {
                    // A lost finish record only costs a re-simulation
                    // on resume — but it must never be lost silently.
                    if let Err(e) = j.record_finish(&key, result_to_json(&result)) {
                        eprintln!(
                            "journal: finish record for cell {key} failed \
                             (the cell will re-run on resume): {e}"
                        );
                    }
                });
            }
            CellRun {
                outcome: Ok(result),
                attempts: attempts_made.get(),
                warm: warm_seen.get(),
            }
        }
        Err((attempts, failure)) => {
            if let Some(j) = journal {
                with_journal(j, |j| {
                    if let Err(e) = j.record_fail(&key, attempts, &failure.error.brief()) {
                        eprintln!("journal: fail record for cell {key} failed: {e}");
                    }
                });
            }
            CellRun {
                outcome: Err(failure),
                attempts,
                warm: WarmStart::Disabled,
            }
        }
    }
}

/// Execute `specs` on a worker pool under `policy`, recording every
/// cell into `journal` when one is given.
///
/// With a journal, cells whose finish records replay from disk are
/// *skipped* and their rows decoded from the journal — so a campaign
/// killed at any instant (including mid-append: a torn final line is
/// tolerated) resumes with only the unfinished cells re-run, and the
/// assembled result set is bit-identical to an uninterrupted sweep.
/// Failed and interrupted cells are re-attempted; a panicking cell is
/// converted to [`SimError::Panic`] and *released* with a fail record
/// rather than left dangling in the journal.
pub fn run_matrix_supervised(
    cmp: &CmpConfig,
    specs: &[RunSpec],
    jobs: Option<usize>,
    policy: &RunPolicy,
    journal: Option<&mut Journal>,
) -> MatrixReport {
    let mut slots: Vec<Option<Result<SimResult, CellFailure>>> =
        (0..specs.len()).map(|_| None).collect();
    let mut skipped = 0;
    let journal = journal.map(Mutex::new);

    // Replay: decode finished cells straight from the journal. A row
    // that no longer decodes (schema drift within one build would be a
    // bug, but be safe) is re-run rather than trusted.
    if let Some(j) = &journal {
        let replay = j.lock().unwrap_or_else(|p| p.into_inner()).replay.clone();
        for (i, spec) in specs.iter().enumerate() {
            if let Some(row) = replay.completed.get(&cell_key(spec)) {
                if let Ok(result) = result_from_json(row) {
                    slots[i] = Some(Ok(result));
                    skipped += 1;
                }
            }
        }
    }

    let mut pending: Vec<usize> = (0..specs.len()).filter(|&i| slots[i].is_none()).collect();
    if let Some(limit) = policy.cell_limit {
        pending.truncate(limit);
    }

    let threads = crate::experiment::matrix_worker_threads(jobs, pending.len());
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= pending.len() {
                    break;
                }
                let i = pending[k];
                let spec = &specs[i];
                let cell = run_journaled_cell(cmp, spec, policy, journal.as_ref(), None);
                let outcome = match cell.outcome {
                    Ok(result) => Ok(result),
                    Err(failure) => Err(CellFailure {
                        index: i,
                        app: spec.app.name.to_string(),
                        config: spec.config.label.clone(),
                        attempts: cell.attempts,
                        error: failure.error,
                        forensics: failure.forensics,
                    }),
                };
                slots.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(outcome);
            });
        }
    });

    let mut results = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    for slot in slots.into_inner().unwrap_or_else(|p| p.into_inner()) {
        match slot {
            Some(Ok(r)) => results.push(Some(r)),
            Some(Err(f)) => {
                results.push(None);
                failures.push(f);
            }
            None => results.push(None),
        }
    }
    failures.sort_by_key(|f| f.index);
    MatrixReport {
        results,
        failures,
        skipped,
    }
}

// --- SimResult ⇄ JSON codec -------------------------------------------
//
// Lossless both ways: integers are written as decimal u64 tokens and
// floats via Rust's shortest round-trip repr, which `Json` stores as
// raw number tokens — so a row decoded from the journal compares (and
// renders into CSVs) bit-identically to the in-process original.

fn joules_json(j: Joules) -> Json {
    Json::f64(j.value())
}

fn scheme_to_json(s: CompressionScheme) -> Json {
    let obj = |kind: &str, rest: Vec<(String, Json)>| {
        let mut fields = vec![("kind".to_string(), Json::str(kind))];
        fields.extend(rest);
        Json::Obj(fields)
    };
    match s {
        CompressionScheme::None => obj("none", vec![]),
        CompressionScheme::Dbrc { entries, low_bytes } => obj(
            "dbrc",
            vec![
                ("entries".to_string(), Json::u64(entries as u64)),
                ("low_bytes".to_string(), Json::u64(low_bytes as u64)),
            ],
        ),
        CompressionScheme::Stride { low_bytes } => obj(
            "stride",
            vec![("low_bytes".to_string(), Json::u64(low_bytes as u64))],
        ),
        CompressionScheme::Perfect { low_bytes } => obj(
            "perfect",
            vec![("low_bytes".to_string(), Json::u64(low_bytes as u64))],
        ),
        CompressionScheme::Multicast { entries, low_bytes } => obj(
            "multicast",
            vec![
                ("entries".to_string(), Json::u64(entries as u64)),
                ("low_bytes".to_string(), Json::u64(low_bytes as u64)),
            ],
        ),
    }
}

fn scheme_from_json(j: &Json) -> Result<CompressionScheme, String> {
    let kind = need_str(j, "kind")?;
    match kind {
        "none" => Ok(CompressionScheme::None),
        "dbrc" => Ok(CompressionScheme::Dbrc {
            entries: need_u64(j, "entries")? as usize,
            low_bytes: need_u64(j, "low_bytes")? as usize,
        }),
        "stride" => Ok(CompressionScheme::Stride {
            low_bytes: need_u64(j, "low_bytes")? as usize,
        }),
        "perfect" => Ok(CompressionScheme::Perfect {
            low_bytes: need_u64(j, "low_bytes")? as usize,
        }),
        "multicast" => Ok(CompressionScheme::Multicast {
            entries: need_u64(j, "entries")? as usize,
            low_bytes: need_u64(j, "low_bytes")? as usize,
        }),
        other => Err(format!("unknown compression scheme `{other}`")),
    }
}

fn interconnect_to_json(i: InterconnectChoice) -> Json {
    match i {
        InterconnectChoice::Baseline => {
            Json::Obj(vec![("kind".to_string(), Json::str("baseline"))])
        }
        InterconnectChoice::Heterogeneous(vl) => Json::Obj(vec![
            ("kind".to_string(), Json::str("heterogeneous")),
            ("vl_bytes".to_string(), Json::u64(vl.bytes() as u64)),
        ]),
        InterconnectChoice::ReplyPartitioning => {
            Json::Obj(vec![("kind".to_string(), Json::str("reply_partitioning"))])
        }
    }
}

fn interconnect_from_json(j: &Json) -> Result<InterconnectChoice, String> {
    match need_str(j, "kind")? {
        "baseline" => Ok(InterconnectChoice::Baseline),
        "heterogeneous" => {
            let bytes = need_u64(j, "vl_bytes")?;
            VlWidth::ALL
                .iter()
                .copied()
                .find(|w| w.bytes() as u64 == bytes)
                .map(InterconnectChoice::Heterogeneous)
                .ok_or_else(|| format!("no VL width of {bytes} bytes"))
        }
        "reply_partitioning" => Ok(InterconnectChoice::ReplyPartitioning),
        other => Err(format!("unknown interconnect `{other}`")),
    }
}

fn class_from_label(label: &str) -> Result<MessageClass, String> {
    MessageClass::ALL
        .iter()
        .copied()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown message class `{label}`"))
}

fn need<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn need_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    need(j, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn need_u64(j: &Json, key: &str) -> Result<u64, String> {
    need(j, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

fn need_f64(j: &Json, key: &str) -> Result<f64, String> {
    need(j, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn need_joules(j: &Json, key: &str) -> Result<Joules, String> {
    need_f64(j, key).map(Joules)
}

fn need_counter(j: &Json, key: &str) -> Result<Counter, String> {
    need_u64(j, key).map(Counter)
}

/// Encode a run's result as a journal row.
pub fn result_to_json(r: &SimResult) -> Json {
    let energy = Json::Obj(vec![
        (
            "core_dynamic".to_string(),
            joules_json(r.energy.core_dynamic),
        ),
        ("core_static".to_string(), joules_json(r.energy.core_static)),
        (
            "link_dynamic".to_string(),
            joules_json(r.energy.link_dynamic),
        ),
        ("link_static".to_string(), joules_json(r.energy.link_static)),
        (
            "router_dynamic".to_string(),
            joules_json(r.energy.router_dynamic),
        ),
        (
            "compression_dynamic".to_string(),
            joules_json(r.energy.compression_dynamic),
        ),
        (
            "compression_static".to_string(),
            joules_json(r.energy.compression_static),
        ),
    ]);
    let messages = Json::Arr(
        r.messages
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("class".to_string(), Json::str(c.class.label())),
                    ("count".to_string(), Json::u64(c.count)),
                    ("bytes".to_string(), Json::u64(c.bytes)),
                    ("mean_latency".to_string(), Json::f64(c.mean_latency)),
                ])
            })
            .collect(),
    );
    let probes = Json::Arr(
        r.probe_coverages
            .iter()
            .map(|(scheme, coverage)| {
                Json::Obj(vec![
                    ("scheme".to_string(), scheme_to_json(*scheme)),
                    ("coverage".to_string(), Json::f64(*coverage)),
                ])
            })
            .collect(),
    );
    let faults = Json::Obj(vec![
        ("drops".to_string(), Json::u64(r.fault_stats.drops.get())),
        (
            "duplicates".to_string(),
            Json::u64(r.fault_stats.duplicates.get()),
        ),
        ("delays".to_string(), Json::u64(r.fault_stats.delays.get())),
        (
            "corruptions".to_string(),
            Json::u64(r.fault_stats.corruptions.get()),
        ),
        (
            "desyncs".to_string(),
            Json::u64(r.fault_stats.desyncs.get()),
        ),
        (
            "mem_replies".to_string(),
            Json::u64(r.fault_stats.mem_replies.get()),
        ),
    ]);
    let resync = Json::Obj(vec![
        (
            "desyncs_detected".to_string(),
            Json::u64(r.resync.desyncs_detected),
        ),
        (
            "resyncs_completed".to_string(),
            Json::u64(r.resync.resyncs_completed),
        ),
        (
            "fallback_msgs".to_string(),
            Json::u64(r.resync.fallback_msgs),
        ),
    ]);
    Json::Obj(vec![
        ("app".to_string(), Json::str(&r.app)),
        ("scheme".to_string(), scheme_to_json(r.scheme)),
        (
            "interconnect".to_string(),
            interconnect_to_json(r.interconnect),
        ),
        ("cycles".to_string(), Json::u64(r.cycles)),
        ("time_s".to_string(), Json::f64(r.time_s)),
        ("energy".to_string(), energy),
        ("coverage".to_string(), Json::f64(r.coverage)),
        ("messages".to_string(), messages),
        (
            "network_messages".to_string(),
            Json::u64(r.network_messages),
        ),
        ("instructions".to_string(), Json::u64(r.instructions)),
        ("l1_miss_rate".to_string(), Json::f64(r.l1_miss_rate)),
        (
            "critical_latency".to_string(),
            Json::f64(r.critical_latency),
        ),
        ("probe_coverages".to_string(), probes),
        (
            "mem_stall_cycles".to_string(),
            Json::u64(r.mem_stall_cycles),
        ),
        (
            "barrier_stall_cycles".to_string(),
            Json::u64(r.barrier_stall_cycles),
        ),
        ("mem_reads".to_string(), Json::u64(r.mem_reads)),
        ("l2_recalls".to_string(), Json::u64(r.l2_recalls)),
        ("fault_stats".to_string(), faults),
        ("resync".to_string(), resync),
        (
            "sanitizer_sweeps".to_string(),
            Json::u64(r.sanitizer_sweeps),
        ),
    ])
}

/// Decode a journal row back into the exact [`SimResult`] it encoded.
pub fn result_from_json(j: &Json) -> Result<SimResult, String> {
    let energy_obj = need(j, "energy")?;
    let energy = EnergyBreakdown {
        core_dynamic: need_joules(energy_obj, "core_dynamic")?,
        core_static: need_joules(energy_obj, "core_static")?,
        link_dynamic: need_joules(energy_obj, "link_dynamic")?,
        link_static: need_joules(energy_obj, "link_static")?,
        router_dynamic: need_joules(energy_obj, "router_dynamic")?,
        compression_dynamic: need_joules(energy_obj, "compression_dynamic")?,
        compression_static: need_joules(energy_obj, "compression_static")?,
    };
    let messages = need(j, "messages")?
        .as_arr()
        .ok_or_else(|| "field `messages` is not an array".to_string())?
        .iter()
        .map(|m| {
            Ok(ClassCount {
                class: class_from_label(need_str(m, "class")?)?,
                count: need_u64(m, "count")?,
                bytes: need_u64(m, "bytes")?,
                mean_latency: need_f64(m, "mean_latency")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let probe_coverages = need(j, "probe_coverages")?
        .as_arr()
        .ok_or_else(|| "field `probe_coverages` is not an array".to_string())?
        .iter()
        .map(|p| {
            Ok((
                scheme_from_json(need(p, "scheme")?)?,
                need_f64(p, "coverage")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let faults_obj = need(j, "fault_stats")?;
    let fault_stats = FaultStats {
        drops: need_counter(faults_obj, "drops")?,
        duplicates: need_counter(faults_obj, "duplicates")?,
        delays: need_counter(faults_obj, "delays")?,
        corruptions: need_counter(faults_obj, "corruptions")?,
        desyncs: need_counter(faults_obj, "desyncs")?,
        mem_replies: need_counter(faults_obj, "mem_replies")?,
    };
    let resync_obj = need(j, "resync")?;
    let resync = ResyncStats {
        desyncs_detected: need_u64(resync_obj, "desyncs_detected")?,
        resyncs_completed: need_u64(resync_obj, "resyncs_completed")?,
        fallback_msgs: need_u64(resync_obj, "fallback_msgs")?,
    };
    Ok(SimResult {
        app: need_str(j, "app")?.to_string(),
        scheme: scheme_from_json(need(j, "scheme")?)?,
        interconnect: interconnect_from_json(need(j, "interconnect")?)?,
        cycles: need_u64(j, "cycles")?,
        time_s: need_f64(j, "time_s")?,
        energy,
        coverage: need_f64(j, "coverage")?,
        messages,
        network_messages: need_u64(j, "network_messages")?,
        instructions: need_u64(j, "instructions")?,
        l1_miss_rate: need_f64(j, "l1_miss_rate")?,
        critical_latency: need_f64(j, "critical_latency")?,
        probe_coverages,
        mem_stall_cycles: need_u64(j, "mem_stall_cycles")?,
        barrier_stall_cycles: need_u64(j, "barrier_stall_cycles")?,
        mem_reads: need_u64(j, "mem_reads")?,
        l2_recalls: need_u64(j, "l2_recalls")?,
        fault_stats,
        resync,
        sanitizer_sweeps: need_u64(j, "sanitizer_sweeps")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ConfigSpec;

    fn tiny_result() -> SimResult {
        let cfg = SimConfig::new(
            InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
        );
        let app = workloads::apps::fft();
        CmpSimulator::new(cfg, &app, 0xD5A1_F00D, 0.002)
            .run()
            .expect("tiny run completes")
    }

    /// The codec is lossless: encode → render → parse → decode →
    /// re-encode produces byte-identical JSON, covering every u64 and
    /// f64 field of a real run.
    #[test]
    fn result_codec_round_trips_bit_identically() {
        let r = tiny_result();
        let encoded = result_to_json(&r).render();
        let parsed = Json::parse(&encoded).expect("rendered JSON parses");
        let decoded = result_from_json(&parsed).expect("row decodes");
        assert_eq!(result_to_json(&decoded).render(), encoded);
        assert_eq!(decoded.cycles, r.cycles);
        assert_eq!(decoded.network_messages, r.network_messages);
        assert_eq!(decoded.time_s.to_bits(), r.time_s.to_bits());
        assert_eq!(
            decoded.energy.link_dynamic.value().to_bits(),
            r.energy.link_dynamic.value().to_bits()
        );
        assert_eq!(decoded.link_ed2p().to_bits(), r.link_ed2p().to_bits());
    }

    #[test]
    fn scheme_codec_round_trips_every_variant() {
        for scheme in [
            CompressionScheme::None,
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
            CompressionScheme::Stride { low_bytes: 2 },
            CompressionScheme::Perfect { low_bytes: 2 },
            CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2,
            },
        ] {
            let encoded = scheme_to_json(scheme).render();
            let parsed = Json::parse(&encoded).expect("scheme JSON parses");
            assert_eq!(
                scheme_from_json(&parsed).expect("scheme decodes"),
                scheme,
                "round trip lost {scheme:?}"
            );
        }
    }

    #[test]
    fn codec_rejects_rows_with_missing_or_mistyped_fields() {
        let r = tiny_result();
        let Json::Obj(mut fields) = result_to_json(&r) else {
            panic!("rows are objects")
        };
        fields.retain(|(k, _)| k != "cycles");
        assert!(result_from_json(&Json::Obj(fields.clone())).is_err());
        fields.push(("cycles".to_string(), Json::str("not-a-number")));
        assert!(result_from_json(&Json::Obj(fields)).is_err());
    }

    #[test]
    fn reseed_is_identity_on_the_first_attempt_and_diverges_after() {
        assert_eq!(reseed(42, 0), 42);
        let (a, b, c) = (reseed(42, 1), reseed(42, 2), reseed(43, 1));
        assert_ne!(a, 42);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn with_retries_counts_attempts_and_stops_at_the_cap() {
        let mut calls = 0;
        let r: Result<(), _> = with_retries(2, Duration::ZERO, |n| {
            assert_eq!(n, calls);
            calls += 1;
            Err::<(), _>("nope")
        });
        assert_eq!(calls, 3);
        assert_eq!(r.unwrap_err(), (3, "nope"));

        let r = with_retries(5, Duration::ZERO, |n| {
            if n < 2 {
                Err("transient")
            } else {
                Ok(n)
            }
        });
        assert_eq!(r.unwrap(), 2);
    }

    /// An impossible wall-clock deadline aborts the cell with a
    /// structured `WallDeadline`, not a hang.
    #[test]
    fn wall_deadline_aborts_with_a_structured_error() {
        let cfg = SimConfig::baseline();
        let app = workloads::apps::fft();
        let policy = RunPolicy {
            wall_deadline: Some(Duration::ZERO),
            ..RunPolicy::default()
        };
        let err = run_supervised(cfg, &app, 0xD5A1_F00D, 0.01, &policy)
            .expect_err("a zero deadline must expire");
        match err.error {
            SimError::WallDeadline { limit_ms, .. } => assert_eq!(limit_ms, 0),
            other => panic!("expected WallDeadline, got {other}"),
        }
    }

    /// A cycle budget tightens the config's own cap and surfaces as the
    /// engine's structured cycle-cap error.
    #[test]
    fn cycle_budget_caps_the_run() {
        let cfg = SimConfig::baseline();
        let app = workloads::apps::fft();
        let policy = RunPolicy {
            cycle_budget: Some(1_000),
            ..RunPolicy::default()
        };
        let err = run_supervised(cfg, &app, 0xD5A1_F00D, 0.01, &policy)
            .expect_err("a 1000-cycle budget cannot finish fft");
        match err.error {
            SimError::Watchdog { cycle } => assert!(cycle >= 1_000),
            other => panic!("expected the cycle cap, got {other}"),
        }
    }

    #[test]
    fn campaign_meta_fingerprint_tracks_the_spec_list() {
        let cmp = CmpConfig::default();
        let app = workloads::apps::fft();
        let spec = |seed| RunSpec {
            app: app.clone(),
            config: ConfigSpec::baseline(),
            seed,
            scale: 0.002,
        };
        let a = campaign_meta(&cmp, &[spec(1)]);
        let b = campaign_meta(&cmp, &[spec(1)]);
        let c = campaign_meta(&cmp, &[spec(2)]);
        assert_eq!(a.config_hash, b.config_hash);
        assert_ne!(a.config_hash, c.config_hash);
        assert_eq!(a.cells, 1);
    }
}
