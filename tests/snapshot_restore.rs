//! Snapshot/restore round trips through the public API.
//!
//! The engine refactor introduced whole-machine checkpoints
//! ([`CmpSimulator::snapshot`] / [`CmpSimulator::restore`]). These tests
//! pin the contract from the outside: a run that is checkpointed,
//! finished, rewound and re-finished must be bit-identical to an
//! uncheckpointed run — same cycles, message totals, instruction counts
//! and energy — on both the baseline and the paper's proposal
//! configuration.

use tiled_cmp::common::config::DirectoryConfig;
use tiled_cmp::compression::CompressionScheme;
use tiled_cmp::prelude::{
    CmpSimulator, InterconnectChoice, MachineSnapshot, SimConfig, SimResult, VlWidth,
};
use tiled_cmp::sim::RestoreError;
use tiled_cmp::workloads::apps;

const SEED: u64 = 0xD5A1_F00D;
const SCALE: f64 = 0.01;

fn proposal_cfg() -> SimConfig {
    SimConfig::new(
        InterconnectChoice::Heterogeneous(VlWidth::FourBytes),
        CompressionScheme::Dbrc {
            entries: 16,
            low_bytes: 1,
        },
    )
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles diverged");
    assert_eq!(
        a.network_messages, b.network_messages,
        "{what}: message totals diverged"
    );
    assert_eq!(
        a.instructions, b.instructions,
        "{what}: instruction counts diverged"
    );
    assert_eq!(a.mem_reads, b.mem_reads, "{what}: memory reads diverged");
    assert_eq!(
        a.energy.link_dynamic.value(),
        b.energy.link_dynamic.value(),
        "{what}: link energy diverged"
    );
    assert_eq!(
        a.energy.core_dynamic.value(),
        b.energy.core_dynamic.value(),
        "{what}: core energy diverged"
    );
}

/// Run `sim` to completion, checkpointing at iteration `at`; returns the
/// snapshot and the straight-through result.
fn run_with_checkpoint(sim: &mut CmpSimulator, at: usize) -> (MachineSnapshot, SimResult) {
    let mut snap = None;
    let mut iters = 0usize;
    while sim.step().expect("checkpointed run completes") {
        iters += 1;
        if iters == at {
            snap = Some(sim.snapshot());
        }
    }
    // Tiny runs may drain before `at` iterations; a boundary snapshot of
    // the finished machine still has to round-trip.
    let snap = snap.unwrap_or_else(|| sim.snapshot());
    (snap, sim.finish())
}

fn round_trip(cfg: SimConfig, what: &str) {
    let app = apps::fft();

    let mut reference = CmpSimulator::new(cfg.clone(), &app, SEED, SCALE);
    let straight = reference.run().expect("reference run completes");

    let mut sim = CmpSimulator::new(cfg, &app, SEED, SCALE);
    let (snap, first) = run_with_checkpoint(&mut sim, 500);
    assert_identical(&straight, &first, what);

    // Rewind the drained machine to the mid-run checkpoint and replay.
    sim.restore(&snap);
    assert_eq!(sim.cycle(), snap.cycle(), "{what}: restore lost the clock");
    while sim.step().expect("replayed run completes") {}
    let replay = sim.finish();
    assert_identical(&straight, &replay, what);
}

#[test]
fn baseline_checkpoint_replays_bit_identically() {
    round_trip(SimConfig::baseline(), "baseline");
}

#[test]
fn proposal_checkpoint_replays_bit_identically() {
    round_trip(proposal_cfg(), "16-entry DBRC over 4B VL");
}

/// A snapshot restored into a *fresh* simulator (same construction
/// parameters) must also resume bit-identically — the checkpoint carries
/// the whole machine, not just deltas against the donor.
#[test]
fn snapshot_transplants_into_a_fresh_simulator() {
    let app = apps::fft();
    let cfg = proposal_cfg();

    let mut donor = CmpSimulator::new(cfg.clone(), &app, SEED, SCALE);
    let (snap, straight) = run_with_checkpoint(&mut donor, 300);

    let mut fresh = CmpSimulator::new(cfg, &app, SEED, SCALE);
    fresh.restore(&snap);
    while fresh.step().expect("transplanted run completes") {}
    let transplanted = fresh.finish();
    assert_identical(&straight, &transplanted, "transplant");
}

/// A snapshot captured under one directory organisation refuses to
/// restore into a simulator running the other — a structured
/// [`RestoreError::DirectoryMismatch`] naming both organisations, not
/// silently transplanted state with the wrong capacity-metering
/// semantics. The refused simulator stays fully usable.
#[test]
fn snapshot_transplant_across_directories_is_refused() {
    let app = apps::fft();
    let mut donor = CmpSimulator::new(proposal_cfg(), &app, SEED, SCALE);
    let (snap, _) = run_with_checkpoint(&mut donor, 300);

    let mut cfg = proposal_cfg();
    cfg.cmp.directory = DirectoryConfig::sparse();
    let mut heir = CmpSimulator::new(cfg, &app, SEED, SCALE);
    match heir.try_restore(&snap) {
        Err(RestoreError::DirectoryMismatch {
            simulator,
            snapshot,
        }) => {
            assert_eq!(simulator, DirectoryConfig::sparse());
            assert_eq!(snapshot, DirectoryConfig::FullMap);
        }
        other => panic!("expected DirectoryMismatch, got {other:?}"),
    }
    // The refusal must be side-effect free: the heir still runs.
    while heir.step().expect("heir runs after the refusal") {}
    heir.finish();
}
