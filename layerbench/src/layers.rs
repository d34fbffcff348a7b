//! Per-layer replays on synthetic or recorded input: the NoC `SubNet`,
//! the address codecs, the trace generator, and the `CacheArray` /
//! `AddrMap` stores. Each replay is timed around calls into the layer's
//! public API, repeated [`REPS`] times (median), and reports a
//! deterministic work count beside its timing.

use std::collections::VecDeque;
use std::time::Instant;

use addr_compression::{CodecBox, CompressionScheme};
use cmp_common::addrmap::AddrMap;
use cmp_common::config::CmpConfig;
use cmp_common::geometry::Coord;
use cmp_common::rng::SimRng;
use cmp_common::types::{CompressionStream, MessageClass, TileId};
use coherence::cache::{CacheArray, VictimSlot};
use mesh_noc::config::{ChannelKind, NocConfig};
use mesh_noc::message::{Delivered, Message};
use mesh_noc::subnet::SubNet;
use mesh_noc::RouterEnergyModel;
use workloads::profile::AppProfile;

use crate::check::{walk_trace, TraceTotals};
use crate::stats::{median, Metrics};

/// Timed repetitions of every replay.
const REPS: usize = 3;

/// Line addresses kept per core for the codec and cache replays.
const LINES_PER_CORE: usize = 2000;

/// Median host seconds of `REPS` runs of `f`, and the work count of the
/// first run. Every repetition must count the same work.
fn timed<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    mut f: impl FnMut() -> (f64, T),
) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let (t0, first) = f();
    times.push(t0);
    for _ in 1..REPS {
        let (t, again) = f();
        if again != first {
            problems.push(format!(
                "{what}: repeat counted {again:?}, first run {first:?}"
            ));
        }
        times.push(t);
    }
    (median(&times), first)
}

/// Synthetic traffic patterns of the NoC replay.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    Uniform,
    Transpose,
    Hotspot,
}

impl Pattern {
    pub const ALL: [Pattern; 3] = [Pattern::Uniform, Pattern::Transpose, Pattern::Hotspot];

    pub fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::Hotspot => "hotspot",
        }
    }
}

/// Injection rates relative to the workload's measured rate.
pub const RATES: [(&str, f64); 3] = [("low", 0.25), ("mid", 1.0), ("high", 16.0)];

/// Cycles of injection in one NoC replay (the network then drains).
fn inject_cycles(tiles: usize) -> u64 {
    (1_600_000 / tiles as u64).clamp(4_000, 100_000)
}

/// Counts of one NoC replay.
#[derive(Clone, Copy, Debug, PartialEq)]
struct NocCounts {
    delivered: u64,
    flit_hops: u64,
    latency_sum: u64,
}

/// The seeded injection schedule of one NoC replay, in cycle order.
fn noc_schedule(
    cmp: &CmpConfig,
    pattern: Pattern,
    rate: f64,
    seed: u64,
) -> Vec<(u64, Message<u64>)> {
    let mesh = cmp.mesh;
    let tiles = mesh.tiles();
    let hot = mesh.tile(Coord {
        x: mesh.width / 2,
        y: mesh.height / 2,
    });
    let mut rng = SimRng::new(seed ^ 0x6e6f_635f_7265_706c);
    let mut schedule = Vec::new();
    for now in 0..inject_cycles(tiles) {
        for src in 0..tiles {
            if !rng.chance(rate) {
                continue;
            }
            let s = TileId::from(src);
            let dst = match pattern {
                Pattern::Uniform => TileId::from(rng.index(tiles)),
                Pattern::Transpose => {
                    let c = mesh.coord(s);
                    mesh.tile(Coord { x: c.y, y: c.x })
                }
                Pattern::Hotspot if rng.chance(0.5) => hot,
                Pattern::Hotspot => TileId::from(rng.index(tiles)),
            };
            if dst == s {
                continue;
            }
            let (class, wire_bytes) = if rng.chance(0.5) {
                (MessageClass::Request, 11)
            } else {
                (MessageClass::ResponseData, 67)
            };
            let payload = schedule.len() as u64;
            schedule.push((
                now,
                Message {
                    src: s,
                    dst,
                    class,
                    wire_bytes,
                    channel: ChannelKind::B,
                    payload,
                },
            ));
        }
    }
    schedule
}

/// Replay `schedule` on a fresh B-channel `SubNet`, ticking it the way
/// the engine does: only in cycles where it has work. The network then
/// drains for at most as long again; a saturated network keeps its
/// backlog, which shows as latency.
fn noc_replay(cmp: &CmpConfig, schedule: &[(u64, Message<u64>)]) -> (f64, NocCounts) {
    let spec = NocConfig::baseline(&cmp.network, cmp.clock_hz).channels[0];
    let mut net: SubNet<u64> = SubNet::new(spec, cmp.mesh, cmp.clock_hz);
    let rem = RouterEnergyModel::default();
    let mut out: Vec<Delivered<u64>> = Vec::new();
    let mut counts = NocCounts {
        delivered: 0,
        flit_hops: 0,
        latency_sum: 0,
    };
    let limit = 2 * inject_cycles(cmp.mesh.tiles());
    let mut next = schedule.iter().peekable();
    let t = Instant::now();
    for now in 0..limit {
        while let Some((_, msg)) = next.next_if(|(at, _)| *at == now) {
            net.inject(now, msg.clone());
        }
        if net.has_work(now) {
            net.tick(now, &rem);
            net.drain_delivered_into(&mut out);
            for d in out.drain(..) {
                counts.delivered += 1;
                counts.latency_sum += d.latency();
            }
        } else if next.peek().is_none() && net.is_idle() {
            break;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    counts.flit_hops = net.stats().flit_hops[ChannelKind::B.index()].0;
    (secs, counts)
}

/// `noc.*`: the generic `SubNet<u64>` on the workload's mesh under three
/// patterns at three rates; `mid_rate` is the workload's measured
/// injection rate in messages per tile per cycle.
pub fn noc(cmp: &CmpConfig, mid_rate: f64, seed: u64, m: &mut Metrics, problems: &mut Vec<String>) {
    for pattern in Pattern::ALL {
        let (mut secs, mut hops) = (0.0, 0u64);
        for (rate_name, factor) in RATES {
            let rate = (mid_rate * factor).min(1.0);
            let what = format!("noc {} {rate_name}", pattern.name());
            let schedule = noc_schedule(cmp, pattern, rate, seed);
            let (s, c) = timed(problems, &what, || noc_replay(cmp, &schedule));
            secs += s;
            hops += c.flit_hops;
            m.put(
                format!("noc.latency_cycles.{}.{rate_name}", pattern.name()),
                "cycles",
                c.latency_sum as f64 / c.delivered.max(1) as f64,
            );
        }
        m.put(
            format!("noc.ns_per_flit_hop.{}", pattern.name()),
            "ns",
            secs * 1e9 / hops.max(1) as f64,
        );
        m.put(
            format!("noc.flit_hops.{}", pattern.name()),
            "count",
            hops as f64,
        );
    }
}

/// The codecs of Figure 6, plus multicast, by metric name.
pub fn codecs() -> [(&'static str, CompressionScheme); 6] {
    [
        ("stride2", CompressionScheme::Stride { low_bytes: 2 }),
        (
            "dbrc4",
            CompressionScheme::Dbrc {
                entries: 4,
                low_bytes: 2,
            },
        ),
        (
            "dbrc16_1b",
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 1,
            },
        ),
        (
            "dbrc16",
            CompressionScheme::Dbrc {
                entries: 16,
                low_bytes: 2,
            },
        ),
        (
            "dbrc64",
            CompressionScheme::Dbrc {
                entries: 64,
                low_bytes: 2,
            },
        ),
        (
            "multicast",
            CompressionScheme::Multicast {
                entries: 4,
                low_bytes: 2,
            },
        ),
    ]
}

/// Replay `lines` (core, line address) through one sender codec and its
/// receiver mirror per (core, home tile) lane — one lane per core for
/// the multicast commands codec, which shares its bank across
/// destinations. Returns (encode+decode ops, compressed encodes,
/// decodes that disagreed with their encode).
fn codec_replay(
    scheme: CompressionScheme,
    lines: &[(u32, u64)],
    tiles: usize,
) -> (f64, (u64, u64, u64)) {
    let stream = match scheme {
        CompressionScheme::Multicast { .. } => CompressionStream::Commands,
        _ => CompressionStream::Requests,
    };
    let shared = scheme.shared_across_destinations(stream);
    let lanes = if shared { 1 } else { tiles };
    let slot = |core: u32, line: u64| {
        let lane = if shared {
            0
        } else {
            coherence::l1::home_of(line, tiles).index()
        };
        core as usize * lanes + lane
    };
    // Build the lanes the stream uses before timing: the engine builds
    // its codecs with the machine, so set-up is not an op cost.
    let mut pairs: Vec<Option<(CodecBox, CodecBox)>> = vec![None; tiles * lanes];
    for &(core, line) in lines {
        pairs[slot(core, line)]
            .get_or_insert_with(|| (scheme.build_codec(stream), scheme.build_codec(stream)));
    }
    let (mut ops, mut hits, mut desync) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for &(core, line) in lines {
        let (tx, rx) = pairs[slot(core, line)]
            .as_mut()
            .expect("every lane the stream uses was built");
        let hit = tx.encode(line);
        desync += u64::from(rx.decode(line) != hit);
        hits += u64::from(hit);
        ops += 2;
    }
    (t.elapsed().as_secs_f64(), (ops, hits, desync))
}

/// `codec.*`: every codec over the workload's address stream.
pub fn codec(lines: &[(u32, u64)], tiles: usize, m: &mut Metrics, problems: &mut Vec<String>) {
    for (name, scheme) in codecs() {
        let (secs, (ops, hits, desync)) =
            timed(problems, name, || codec_replay(scheme, lines, tiles));
        if desync > 0 {
            problems.push(format!("codec {name}: {desync} decodes out of lockstep"));
        }
        m.put(
            format!("codec.{name}.ns_per_op"),
            "ns",
            secs * 1e9 / ops.max(1) as f64,
        );
        m.put(
            format!("codec.{name}.hit_rate"),
            "frac",
            2.0 * hits as f64 / ops.max(1) as f64,
        );
    }
}

/// `trace.ns_per_ref`: generate every core's whole trace for `apps`.
/// Returns the kept address stream for the other replays.
pub fn trace(
    apps: &[AppProfile],
    cores: usize,
    seed: u64,
    scale: f64,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Vec<(u32, u64)> {
    let (secs, refs) = timed(problems, "trace", || {
        let t = Instant::now();
        let refs: u64 = apps
            .iter()
            .map(|a| walk_trace(a, cores, seed, scale, false).refs)
            .sum();
        (t.elapsed().as_secs_f64(), refs)
    });
    m.put("trace.ns_per_ref", "ns", secs * 1e9 / refs.max(1) as f64);
    apps.iter()
        .flat_map(|a| {
            let TraceTotals { lines, .. } = walk_trace(a, cores, seed, scale, true);
            let mut per_core = vec![0usize; cores];
            lines.into_iter().filter(move |&(core, _)| {
                per_core[core as usize] += 1;
                per_core[core as usize] <= LINES_PER_CORE
            })
        })
        .collect()
}

/// Replay each core's stream through an L1-geometry `CacheArray` with
/// LRU eviction. Returns (probes, hits, inserts refused after an
/// eviction made room).
fn cache_replay(cmp: &CmpConfig, lines: &[(u32, u64)], cores: usize) -> (f64, (u64, u64, u64)) {
    let mut arrays: Vec<CacheArray<u32>> = (0..cores)
        .map(|_| CacheArray::new(cmp.l1.sets(), cmp.l1.ways, 0))
        .collect();
    let (mut probes, mut hits, mut refused) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for &(core, line) in lines {
        let a = &mut arrays[core as usize];
        probes += 1;
        if let Some(v) = a.get_mut(line) {
            *v += 1;
            hits += 1;
            continue;
        }
        if let VictimSlot::Evict(old) = a.victim_for(line, |_, _| true) {
            a.remove(old);
        }
        refused += u64::from(a.insert(line, 0).is_err());
    }
    (t.elapsed().as_secs_f64(), (probes, hits, refused))
}

/// Replay the stream as MSHR traffic through one `AddrMap` per core:
/// probe every reference, allocate on a miss, retire the oldest entry
/// when `l1_mshrs` are outstanding. Returns the operation count.
fn addrmap_replay(cmp: &CmpConfig, lines: &[(u32, u64)], cores: usize) -> (f64, u64) {
    let mut maps: Vec<(AddrMap<u64>, VecDeque<u64>)> = (0..cores)
        .map(|_| (AddrMap::new(), VecDeque::new()))
        .collect();
    let mut ops = 0u64;
    let t = Instant::now();
    for (i, &(core, line)) in lines.iter().enumerate() {
        let (map, order) = &mut maps[core as usize];
        ops += 1;
        if map.get(line).is_some() {
            continue;
        }
        if order.len() == cmp.l1_mshrs {
            let oldest = order
                .pop_front()
                .expect("a full MSHR file has an oldest entry");
            map.remove(oldest);
            ops += 1;
        }
        map.insert(line, i as u64);
        order.push_back(line);
        ops += 1;
    }
    (t.elapsed().as_secs_f64(), ops)
}

/// `cache_array.*` and `addrmap.*` over the workload's address stream.
pub fn stores(cmp: &CmpConfig, lines: &[(u32, u64)], m: &mut Metrics, problems: &mut Vec<String>) {
    let cores = cmp.tiles();
    let (secs, (probes, hits, refused)) =
        timed(problems, "cache_array", || cache_replay(cmp, lines, cores));
    if refused > 0 {
        problems.push(format!(
            "cache_array: {refused} inserts refused after an eviction"
        ));
    }
    m.put(
        "cache_array.ns_per_probe",
        "ns",
        secs * 1e9 / probes.max(1) as f64,
    );
    m.put(
        "cache_array.hit_rate",
        "frac",
        hits as f64 / probes.max(1) as f64,
    );
    let (secs, ops) = timed(problems, "addrmap", || addrmap_replay(cmp, lines, cores));
    m.put("addrmap.ns_per_op", "ns", secs * 1e9 / ops.max(1) as f64);
}
