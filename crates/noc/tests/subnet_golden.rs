//! NoC-layer golden: the generic `SubNet<u64>` under seeded uniform and
//! hotspot traffic, ramped past saturation, on a spread of router
//! shapes (mesh, virtual channels, buffer depth, pipeline depth,
//! channel width).
//!
//! The full-system determinism goldens only exercise 4 VCs × 4-flit
//! buffers on a 3-stage pipeline; this table pins the switch
//! allocator, the credit loop and the energy accounting everywhere
//! else. Each row records, for one (shape, traffic) run driven to
//! idle:
//!
//! * an FNV-1a digest of the delivery sequence — `(payload,
//!   delivered_at)` in drain order, so arbitration order matters;
//! * an FNV-1a digest of every per-link flit counter;
//! * the exact bits of the link and router dynamic energy.
//!
//! On a mismatch the test prints the full recomputed table, so a
//! deliberate model change can re-record it.

use cmp_common::geometry::{Direction, MeshShape};
use cmp_common::hash::Fnv64;
use cmp_common::rng::SimRng;
use cmp_common::types::{MessageClass, TileId};
use mesh_noc::config::{ChannelKind, ChannelSpec};
use mesh_noc::message::Message;
use mesh_noc::subnet::SubNet;
use mesh_noc::RouterEnergyModel;
use wire_model::link::Channel;
use wire_model::wires::{VlWidth, WireClass};

const CLOCK: f64 = 4.0e9;

/// One router/mesh shape: (cols, rows, VCs, buffer flits, pipeline
/// cycles, channel width in bytes).
type Shape = (u16, u16, usize, usize, u64, usize);

const SHAPES: [Shape; 12] = [
    (4, 1, 1, 1, 3, 75),
    (4, 1, 2, 4, 1, 5),
    (4, 4, 1, 4, 3, 34),
    (4, 4, 2, 1, 1, 5),
    (4, 4, 4, 4, 3, 34),
    (4, 4, 4, 1, 1, 75),
    (4, 4, 6, 1, 3, 75),
    (4, 4, 6, 4, 1, 5),
    (8, 8, 1, 1, 1, 34),
    (8, 8, 2, 4, 3, 75),
    (8, 8, 4, 1, 3, 5),
    (8, 8, 6, 4, 3, 34),
];

#[derive(Clone, Copy, Debug)]
enum Traffic {
    Uniform,
    Hotspot,
}

/// What one run pins: messages delivered, the delivery-sequence
/// digest, the link-counter digest, and the bits of the link and router
/// dynamic energy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row(u64, u64, u64, u64, u64);

fn spec(vcs: usize, buf: usize, pipeline: u64, width: usize) -> ChannelSpec {
    // The 5-byte channel is a VL bundle (faster links); the wide ones
    // are B-8X, as in the simulated machine.
    let (kind, class) = if width == 5 {
        (ChannelKind::Vl, WireClass::VL(VlWidth::FiveBytes))
    } else {
        (ChannelKind::B, WireClass::B8X)
    };
    ChannelSpec {
        kind,
        channel: Channel::new(class, width, 5.0),
        virtual_channels: vcs,
        vc_buffer_flits: buf,
        router_pipeline_cycles: pipeline,
    }
}

/// Drive one shape under one traffic pattern: per-tile injection rate
/// ramps linearly from 0.02 to 0.62 messages/cycle over the injection
/// window (far past saturation for every shape), then the network
/// drains to idle.
fn run(shape: Shape, traffic: Traffic, seed: u64) -> Row {
    let (cols, rows, vcs, buf, pipeline, width) = shape;
    let mesh = MeshShape::new(cols, rows);
    let tiles = mesh.tiles();
    let hotspot = usize::from(rows / 2) * usize::from(cols) + usize::from(cols / 2);
    let window: u64 = if tiles >= 64 { 400 } else { 800 };
    let mut net: SubNet<u64> = SubNet::new(spec(vcs, buf, pipeline, width), mesh, CLOCK);
    let rem = RouterEnergyModel::default();
    let mut rng = SimRng::new(seed);
    let mut next_payload = 0u64;
    let mut digest = Fnv64::new();
    let mut delivered = 0u64;
    let mut drained = Vec::new();
    for now in 0..1_000_000u64 {
        if now < window {
            let rate = 0.02 + 0.6 * now as f64 / window as f64;
            for src in 0..tiles {
                if !rng.chance(rate) {
                    continue;
                }
                let dst = match traffic {
                    Traffic::Hotspot if src != hotspot && rng.chance(0.5) => hotspot,
                    _ => (src + 1 + rng.index(tiles - 1)) % tiles,
                };
                let wire_bytes = [4, 11, 67][rng.index(3)];
                net.inject(
                    now,
                    Message {
                        src: TileId::from(src),
                        dst: TileId::from(dst),
                        class: MessageClass::Request,
                        wire_bytes,
                        channel: net.spec().kind,
                        payload: next_payload,
                    },
                );
                next_payload += 1;
            }
        }
        net.tick(now, &rem);
        net.drain_delivered_into(&mut drained);
        for d in drained.drain(..) {
            digest.write_u64(d.message.payload);
            digest.write_u64(d.delivered_at);
            delivered += 1;
        }
        if now >= window && net.is_idle() {
            break;
        }
    }
    assert!(net.is_idle(), "{shape:?} {traffic:?}: traffic must drain");
    assert_eq!(
        delivered, next_payload,
        "{shape:?} {traffic:?}: every message once"
    );
    let mut links = Fnv64::new();
    for tile in 0..tiles {
        for dir in Direction::LINKS {
            links.write_u64(net.link_flits(tile, dir));
        }
    }
    let e = net.energy();
    Row(
        delivered,
        digest.finish(),
        links.finish(),
        e.link_dynamic.value().to_bits(),
        e.router_dynamic.value().to_bits(),
    )
}

/// Recorded rows, in `SHAPES` order, uniform then hotspot per shape.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    Row(1041, 0x745fe4e53b8e3a2b, 0x24bc8b0174e99c4f, 0x3ea6131c12d1cb67, 0x3e8560408fa07a09),
    Row(1018, 0x168d0c7578b490a8, 0x4e80710ca6b0879b, 0x3ea3042a40270a8d, 0x3e833782b1343f26),
    Row(988, 0x020bb9db835c6393, 0xa6eac00a92e069a0, 0x3e91ade89680e024, 0x3e848d594330bfc9),
    Row(998, 0x5dc3af0d327f3ffc, 0xd108cde7dfbcac1a, 0x3e90375470c502cd, 0x3e83b15a8485fae2),
    Row(4103, 0xe6378fae70fd52b3, 0x6a362019a804cb8d, 0x3ed08e30a241888e, 0x3eab9bcd36daea4c),
    Row(4105, 0x3b69cb36ba13fd0a, 0x29eca7c6c0701105, 0x3ecde1808a4ee6a5, 0x3ea9b17d2fcf0f14),
    Row(4167, 0xd539efbc38bfe930, 0x411c0618a37b6d5d, 0x3ebd6102655b25ef, 0x3ead841ff2b1135e),
    Row(4218, 0xf8d50c0f39aa6528, 0xdb91bd255f275533, 0x3eb9987b71fa57df, 0x3eaaaa104d43f630),
    Row(4116, 0xd154eef3412bc638, 0xaff8d0b1649a3b32, 0x3ed0fd721baf181c, 0x3eac5c6cfdca679f),
    Row(4185, 0x6fbc479cbd0dcb30, 0xbcbeade9af03f80c, 0x3eceea5a797c0baa, 0x3eaa9d8f2f04ccf8),
    Row(4019, 0x23f79beb5961583c, 0x0ca9f8db5ee8bbb3, 0x3ecffb7c213b51f3, 0x3eaaa8556b253367),
    Row(4029, 0x89dbd97bcac5604f, 0x9b226ffc66afc2f9, 0x3ecd824b64217c56, 0x3ea96d0c3fc28b47),
    Row(4136, 0x24f5abb76a4ad884, 0x53d5d339f0f562ad, 0x3ed0e8fcb8d11b21, 0x3eac321163467adf),
    Row(4096, 0xa6cd036ac66176fa, 0x5c7ea76a760b3c32, 0x3ecdb9fab26362e0, 0x3ea993a0f12e44b0),
    Row(4106, 0xe25f9672d6245832, 0xda45ad77dc422bc3, 0x3ebcaf8611455dd1, 0x3eaccda7a2e56a05),
    Row(4138, 0x3e00cc6a9ae81801, 0xf277a33227f1d3f8, 0x3ebabc7520131cad, 0x3eaba3dd37ae50a0),
    Row(8227, 0x8264943abbb15cae, 0xc6aa0ea476f6f1a3, 0x3ef0d4e435ca062b, 0x3ec84add2ce03a50),
    Row(8183, 0x862cf065fb13533f, 0xb3b6ceb0a310e9d1, 0x3eecdf0475cdf7fb, 0x3ec556e0379aefce),
    Row(8097, 0xfb300d2050d2fd41, 0x08db60ddc851d652, 0x3ef0a99a1cb66b20, 0x3ec800e81470d7c1),
    Row(8132, 0x14ab1773571b2ff7, 0x1619db2b7d166292, 0x3eed3a227f0c1731, 0x3ec58b3c4ef8fde8),
    Row(8046, 0xa370644b2d8835af, 0xcc9e0786017663db, 0x3edbe26dc31c60f9, 0x3ec842c4604079c6),
    Row(8068, 0x175cc9150ccb1533, 0x730911e424c6bf1d, 0x3ed94037f906235d, 0x3ec65c2c5c505c52),
    Row(8097, 0x52ff3ab440d7a43f, 0x6f18dc8f2946b945, 0x3ef05c767893e4bf, 0x3ec7a44cd995342d),
    Row(8053, 0x285995453758b11e, 0xfb6693a83816e8d6, 0x3eecedf685269ee4, 0x3ec554fced477a1a),
];

#[test]
fn subnet_replays_recorded_traffic_bit_identically() {
    let mut got = Vec::new();
    for (i, &shape) in SHAPES.iter().enumerate() {
        for traffic in [Traffic::Uniform, Traffic::Hotspot] {
            got.push(run(shape, traffic, 0x5EED_0000 + i as u64));
        }
    }
    if got[..] != *GOLDEN {
        let mut table = String::new();
        for Row(n, d, l, le, re) in &got {
            table.push_str(&format!(
                "    Row({n}, {d:#018x}, {l:#018x}, {le:#018x}, {re:#018x}),\n"
            ));
        }
        for (i, (g, want)) in got.iter().zip(GOLDEN.iter()).enumerate() {
            if g != want {
                eprintln!(
                    "row {i} ({:?}) differs: got {g:?}, want {want:?}",
                    SHAPES[i / 2]
                );
            }
        }
        panic!("NoC golden mismatch; recomputed table:\n{table}");
    }
}
