//! The full-system tiled-CMP simulator (public façade).
//!
//! [`CmpSimulator`] wires together, per tile: a trace-driven core, an L1
//! controller, an L2/directory slice and a compression engine; globally:
//! a flit-level heterogeneous NoC, a 400-cycle memory and a barrier. All
//! components share the 4 GHz clock; the main loop fast-forwards over
//! idle stretches (compute bursts, memory waits) by jumping to the next
//! interesting cycle.
//!
//! The machinery lives in [`crate::engine`]: per-tile components
//! ([`crate::engine::Tile`], [`crate::engine::L2Bank`]), the event
//! calendar, the typed ports, structured errors and the whole-machine
//! snapshot. This module re-exports the run-facing types so existing
//! `crate::sim::…` paths keep working, and keeps the simulator API to a
//! thin delegation layer.

use addr_compression::CompressionHwCost;
use cmp_common::config::CmpConfig;
use cmp_common::fault::FaultStats;
use cmp_common::snapshot::Snapshot;
use cmp_common::types::{Addr, Cycle, TileId};
use cmp_common::units::Joules;
use coherence::sanitizer::Invariant;
use workloads::profile::AppProfile;

use crate::engine::{Engine, MachineSnapshot};
use crate::niface::ResyncStats;

pub use crate::engine::{
    ClassCount, OldestInFlight, PhaseProfile, RestoreError, SimConfig, SimError, SimResult,
    StateDump, TileDump, TileStall, WatchdogConfig,
};

/// The full-system simulator: a thin façade over [`crate::engine`].
pub struct CmpSimulator {
    pub(crate) engine: Engine,
}

impl CmpSimulator {
    /// Build a simulator running `app` at `scale`, seeded with `seed`.
    pub fn new(cfg: SimConfig, app: &AppProfile, seed: u64, scale: f64) -> Self {
        CmpSimulator {
            engine: Engine::new(cfg, app, seed, scale),
        }
    }

    /// Run to completion and report.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        while self.engine.step_iteration()? {}
        Ok(self.engine.collect())
    }

    /// Advance one scheduler iteration; `Ok(false)` once the workload has
    /// drained. Public so fault-campaign drivers and robustness tests can
    /// interleave corruption hooks with the run; [`CmpSimulator::run`] is
    /// the normal entry point.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.engine.step_iteration()
    }

    /// Report after a manually-stepped run (see [`CmpSimulator::step`]);
    /// meaningful once `step` has returned `Ok(false)`.
    pub fn finish(&mut self) -> SimResult {
        self.engine.collect()
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.engine.now()
    }

    /// Turn on per-phase wall-clock attribution (also enabled by
    /// `TCMP_PROFILE=1`). Read the result with
    /// [`CmpSimulator::phase_profile`]. Profiling never changes a
    /// run's simulated outcome — only its wall-clock cost, by percents.
    pub fn enable_profiling(&mut self) {
        self.engine.enable_profiling()
    }

    /// The accumulated phase profile, if profiling is enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.engine.phase_profile()
    }

    /// Checkpoint the whole machine at the current iteration boundary.
    ///
    /// Restoring the snapshot — into this simulator or a fresh one built
    /// from the same configuration, application, seed and scale — resumes
    /// the run bit-identically: the remaining schedule, message counts
    /// and energy are exactly those of an uncheckpointed run.
    pub fn snapshot(&self) -> MachineSnapshot {
        self.engine.snapshot()
    }

    /// Rewind the machine to a previously captured [`MachineSnapshot`].
    ///
    /// The snapshot must come from a simulator with the same
    /// configuration (panics on a shape mismatch; see
    /// [`CmpSimulator::try_restore`] for the non-panicking form).
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.engine
            .try_restore(snap)
            .expect("snapshot matches this machine");
    }

    /// Rewind to a snapshot, refusing with a structured error when its
    /// machine shape — tile count or directory organisation — does not
    /// match this simulator. On `Err` the simulator is untouched.
    pub fn try_restore(&mut self, snap: &MachineSnapshot) -> Result<(), RestoreError> {
        self.engine.try_restore(snap)
    }

    /// Arm (or re-arm) the periodic protocol sanitizer mid-run, with the
    /// first sweep due immediately. [`CmpSimulator::restore`] overwrites
    /// the sanitizer with the snapshot's (usually absent) state, so
    /// forensic replay of a watchdog-aborted cell — rewind to the last
    /// checkpoint, then re-step with sweeps on — calls this *after* the
    /// restore. Sweeps are read-only, so arming cannot change a healthy
    /// run's outcome.
    pub fn arm_sanitizer(&mut self, cfg: coherence::sanitizer::SanitizerConfig) {
        self.engine.arm_sanitizer(cfg);
    }

    /// Instructions retired across all cores so far (read-only progress
    /// probe; the supervisor reports it alongside wall-clock status).
    pub fn instructions_retired(&self) -> u64 {
        self.engine.total_instructions()
    }

    /// Synthetic livelock: silently lose whole-line data replies at the
    /// sender NI (partial replies still flow), without the fault
    /// injector's recovery accounting. Campaign/test hook for the
    /// forward-progress watchdog; never called on the clean path.
    #[doc(hidden)]
    pub fn fault_drop_data_replies(&mut self, enable: bool) {
        self.engine.fault_drop_data_replies(enable);
    }

    /// Flits sent per outgoing link of one channel kind (utilisation
    /// heatmaps; see the `linkstat` diagnostic binary).
    pub fn link_flit_counts(
        &self,
        kind: mesh_noc::config::ChannelKind,
    ) -> Vec<(usize, cmp_common::geometry::Direction, u64)> {
        self.engine.link_flit_counts(kind)
    }

    /// Faults injected so far (`None` without a campaign).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.engine.fault_stats()
    }

    /// Codec-resynchronisation accounting summed across all tiles.
    pub fn resync_stats(&self) -> ResyncStats {
        self.engine.resync_stats()
    }

    /// Deterministically corrupt live coherence metadata so a sanitizer
    /// sweep (or the structured-error path) has a real violation of the
    /// given class to catch. Returns the `(tile, line)` it corrupted, or
    /// `None` when the machine holds no suitable line yet — campaigns
    /// retry on a later iteration. Campaign/test hook; never called on
    /// the clean path.
    #[doc(hidden)]
    pub fn fault_inject_violation(&mut self, class: Invariant) -> Option<(TileId, Addr)> {
        self.engine.fault_inject_violation(class)
    }

    /// Consistency check used by tests: the L1's home mapping must agree
    /// with the machine description's.
    pub fn homes_agree(cfg: &CmpConfig) -> bool {
        Engine::homes_agree(cfg)
    }

    /// Total compression-hardware static+area context (test hook).
    pub fn compression_hw_cost(&self) -> CompressionHwCost {
        CompressionHwCost::for_scheme(self.engine.cfg.scheme, self.engine.cfg.cmp.tiles())
    }

    /// Per-run energy of zero (used in tests to compare magnitudes).
    pub fn zero_energy() -> Joules {
        Joules::ZERO
    }
}
