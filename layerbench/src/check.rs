//! Output checks.
//!
//! * Every cell's simulated result is reduced to a digest of its cycles,
//!   messages, instructions, coverage and energy bits. Digests are kept
//!   under `layerbench/expected/` for the default seed and one held-out
//!   seed; a run with one of those seeds must reproduce them exactly.
//! * Within a run, every repeat of a cell must reproduce the first
//!   batch's digest (the simulator is deterministic).
//! * Every cell must retire exactly the instructions its workload trace
//!   holds, whatever the seed: a conservation check that needs no
//!   stored expectation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use cmp_common::hash::Fnv64;
use cpu_model::trace::{OpSource, TraceOp};
use tcmp_core::sim::SimResult;
use workloads::generator::TraceGen;
use workloads::profile::AppProfile;

/// Cell label → digest, in a stable order.
pub type Digests = BTreeMap<String, u64>;

/// Digest of the simulated outcome of one cell.
pub fn digest(r: &SimResult) -> u64 {
    let e = &r.energy;
    let mut h = Fnv64::new();
    h.write_str(&r.app);
    for v in [
        r.cycles,
        r.network_messages,
        r.instructions,
        r.coverage.to_bits(),
        e.core_dynamic.0.to_bits(),
        e.core_static.0.to_bits(),
        e.link_dynamic.0.to_bits(),
        e.link_static.0.to_bits(),
        e.router_dynamic.0.to_bits(),
        e.compression_dynamic.0.to_bits(),
        e.compression_static.0.to_bits(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Where the stored digests of `workload` at `seed` live.
pub fn expected_path(workload: &str, seed: u64) -> PathBuf {
    Path::new("layerbench/expected").join(format!("{workload}.seed{seed}.txt"))
}

/// Render digests as `label<TAB>hex` lines.
pub fn render(digests: &Digests) -> String {
    let mut out = String::new();
    for (label, d) in digests {
        let _ = writeln!(out, "{label}\t{d:016x}");
    }
    out
}

/// Parse [`render`]'s format.
pub fn parse(text: &str) -> Result<Digests, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (label, hex) = l
                .rsplit_once('\t')
                .ok_or_else(|| format!("malformed digest line {l:?}"))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("bad digest in line {l:?}: {e}"))?;
            Ok((label.to_string(), d))
        })
        .collect()
}

/// Compare `got` against `want`: one line per cell that differs or is
/// missing from `got`. Labels in `got` that `want` lacks are reported
/// too, unless `subset` (a traced run checks only the cells it ran).
pub fn compare(want: &Digests, got: &Digests, subset: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (label, d) in got {
        match want.get(label) {
            Some(w) if w == d => {}
            Some(w) => problems.push(format!("{label}: digest {d:016x}, expected {w:016x}")),
            None if subset => {}
            None => problems.push(format!("{label}: no expected digest")),
        }
    }
    if !subset {
        for label in want.keys().filter(|l| !got.contains_key(*l)) {
            problems.push(format!("{label}: expected but not produced"));
        }
    }
    problems
}

/// Instructions, memory references and line addresses of one
/// application's trace on every core (the addresses only when `keep` is
/// set, in core order).
pub struct TraceTotals {
    pub instructions: u64,
    pub refs: u64,
    pub lines: Vec<(u32, u64)>,
}

/// Walk the complete trace that `cores` cores of `app` run at
/// (`seed`, `scale`) — exactly the generators the simulator builds.
pub fn walk_trace(
    app: &AppProfile,
    cores: usize,
    seed: u64,
    scale: f64,
    keep: bool,
) -> TraceTotals {
    let mut t = TraceTotals {
        instructions: 0,
        refs: 0,
        lines: Vec::new(),
    };
    for core in 0..cores {
        let mut gen = TraceGen::new(app, core, cores, seed, scale);
        while let Some(op) = gen.next_op() {
            t.instructions += op.instructions();
            if let TraceOp::Load(a) | TraceOp::Store(a) = op {
                t.refs += 1;
                if keep {
                    t.lines.push((core as u32, a));
                }
            }
        }
    }
    t
}

/// Conservation check: a cell retires exactly its trace's instructions.
pub fn instructions_conserved(
    label: &str,
    r: &SimResult,
    trace_instructions: u64,
) -> Option<String> {
    (r.instructions != trace_instructions).then(|| {
        format!(
            "{label}: retired {} instructions but its trace holds {trace_instructions}",
            r.instructions
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::config::CmpConfig;
    use cmp_common::geometry::MeshShape;
    use tcmp_core::sim::{CmpSimulator, SimConfig};

    fn tiny_result() -> SimResult {
        let mut cfg = SimConfig::baseline();
        cfg.cmp = CmpConfig {
            mesh: MeshShape::square(2),
            ..CmpConfig::default()
        };
        CmpSimulator::new(cfg, &workloads::apps::fft(), 7, 0.001)
            .run()
            .expect("tiny run")
    }

    #[test]
    fn digest_check_fails_on_a_perturbed_result() {
        let r = tiny_result();
        let want: Digests = [("FFT/baseline".to_string(), digest(&r))].into();
        assert!(compare(&want, &want.clone(), false).is_empty());

        let perturbations: [fn(&mut SimResult); 5] = [
            |r| r.cycles += 1,
            |r| r.network_messages += 1,
            |r| r.instructions -= 1,
            |r| r.coverage = f64::from_bits(r.coverage.to_bits() ^ 1),
            |r| r.energy.link_dynamic.0 = f64::from_bits(r.energy.link_dynamic.0.to_bits() ^ 1),
        ];
        for perturb in perturbations {
            let mut bad = r.clone();
            perturb(&mut bad);
            let got: Digests = [("FFT/baseline".to_string(), digest(&bad))].into();
            let problems = compare(&want, &got, false);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].starts_with("FFT/baseline: digest"));
        }
    }

    #[test]
    fn missing_and_unexpected_cells_are_reported() {
        let want: Digests = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        let got: Digests = [("a".to_string(), 1), ("c".to_string(), 3)].into();
        let problems = compare(&want, &got, false);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(compare(&want, &got, true).is_empty());
    }

    #[test]
    fn digest_files_round_trip() {
        let d: Digests = [
            ("FFT/4-entry DBRC (2B LO)".to_string(), u64::MAX),
            ("x".into(), 0),
        ]
        .into();
        assert_eq!(parse(&render(&d)).expect("parses"), d);
        assert!(parse("no tab here").is_err());
    }

    #[test]
    fn a_cell_retires_exactly_its_trace_instructions() {
        let r = tiny_result();
        let t = walk_trace(&workloads::apps::fft(), 4, 7, 0.001, false);
        assert!(t.refs >= 4 * 1000, "every core issues at least the floor");
        assert_eq!(instructions_conserved("FFT", &r, t.instructions), None);
        assert!(instructions_conserved("FFT", &r, t.instructions + 1).is_some());
    }
}
