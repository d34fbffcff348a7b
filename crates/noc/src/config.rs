//! Network configuration: which physical channels each link provides.

use cmp_common::config::NetworkConfig;
use cmp_common::geometry::MeshShape;
use wire_model::link::{Channel, HeterogeneousLinkPlan, BASELINE_LINK_BYTES};
use wire_model::wires::{VlWidth, WireClass};

/// The physical sub-network a message rides on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChannelKind {
    /// Baseline wires: wide, for long/uncompressed messages.
    B,
    /// Very-low-latency wires (this paper): narrow, for short critical
    /// messages.
    Vl,
    /// L-Wires (Reply Partitioning, \[9\]): 11 bytes of low-latency wires
    /// for short critical messages and partial replies.
    L,
    /// PW-Wires (Reply Partitioning, \[9\]): power-optimised wires for long
    /// and non-critical messages.
    Pw,
}

/// Number of channel kinds (sizes the per-kind lookup tables).
pub const CHANNEL_KINDS: usize = 4;

impl ChannelKind {
    /// Dense index into per-channel tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ChannelKind::B => 0,
            ChannelKind::Vl => 1,
            ChannelKind::L => 2,
            ChannelKind::Pw => 3,
        }
    }
}

/// One physical channel of every link in the mesh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelSpec {
    /// Which role this channel plays.
    pub kind: ChannelKind,
    /// Physical wire bundle (class, width, length).
    pub channel: Channel,
    /// Virtual channels in this sub-network.
    pub virtual_channels: usize,
    /// Flit buffer depth per VC.
    pub vc_buffer_flits: usize,
    /// Router pipeline depth for this sub-network. The B network uses the
    /// full 3-stage pipeline; the VL network's single-flit messages on
    /// dedicated express wires use a 1-stage speculative router (Cheng et
    /// al. charge "one cycle per hop" for L-wire transfers).
    pub router_pipeline_cycles: u64,
}

/// Full NoC configuration: one or two channels per link.
#[derive(Clone, Debug, PartialEq)]
pub struct NocConfig {
    /// The physical channels (1 = baseline, 2 = heterogeneous proposal).
    pub channels: Vec<ChannelSpec>,
    /// Clock frequency (Hz), for link-cycle conversion.
    pub clock_hz: f64,
}

impl NocConfig {
    /// The baseline configuration: a single 75-byte B-Wire channel per
    /// link (Table 4).
    pub fn baseline(net: &NetworkConfig, clock_hz: f64) -> Self {
        NocConfig {
            channels: vec![ChannelSpec {
                kind: ChannelKind::B,
                channel: Channel::new(WireClass::B8X, net.link_bytes, net.link_length_mm),
                virtual_channels: net.virtual_channels,
                vc_buffer_flits: net.vc_buffer_flits,
                router_pipeline_cycles: net.router_pipeline_cycles,
            }],
            clock_hz,
        }
    }

    /// The paper's area-neutral heterogeneous configuration: 34 bytes of
    /// B-Wires plus a VL channel of the given width (Section 4.3).
    pub fn heterogeneous(net: &NetworkConfig, clock_hz: f64, vl: VlWidth) -> Self {
        assert_eq!(
            net.link_bytes, BASELINE_LINK_BYTES,
            "heterogeneous split is defined for the 75-byte baseline link"
        );
        let plan = HeterogeneousLinkPlan::area_neutral(vl, net.link_length_mm);
        NocConfig {
            channels: vec![
                ChannelSpec {
                    kind: ChannelKind::B,
                    channel: plan.b_channel,
                    virtual_channels: net.virtual_channels,
                    vc_buffer_flits: net.vc_buffer_flits,
                    router_pipeline_cycles: net.router_pipeline_cycles,
                },
                ChannelSpec {
                    kind: ChannelKind::Vl,
                    channel: plan.vl_channel,
                    virtual_channels: net.virtual_channels,
                    vc_buffer_flits: net.vc_buffer_flits,
                    // single-flit express channel: 1-stage router
                    router_pipeline_cycles: 1,
                },
            ],
            clock_hz,
        }
    }

    /// The Reply-Partitioning organisation of the group's prior work \[9\]:
    /// 11 bytes of L-Wires + 64 bytes of PW-Wires per link, area-neutral
    /// against the 75-byte baseline. L-Wire messages are single-flit on a
    /// dedicated narrow network and use the same 1-stage express router as
    /// VL-Wires; the PW network keeps the full pipeline.
    pub fn reply_partitioning(net: &NetworkConfig, clock_hz: f64) -> Self {
        assert_eq!(
            net.link_bytes, BASELINE_LINK_BYTES,
            "reply-partitioning split is defined for the 75-byte baseline link"
        );
        let plan = wire_model::link::ReplyPartitioningLinkPlan::area_neutral(net.link_length_mm);
        NocConfig {
            channels: vec![
                ChannelSpec {
                    kind: ChannelKind::L,
                    channel: plan.l_channel,
                    virtual_channels: net.virtual_channels,
                    vc_buffer_flits: net.vc_buffer_flits,
                    router_pipeline_cycles: 1,
                },
                ChannelSpec {
                    kind: ChannelKind::Pw,
                    channel: plan.pw_channel,
                    virtual_channels: net.virtual_channels,
                    vc_buffer_flits: net.vc_buffer_flits,
                    router_pipeline_cycles: net.router_pipeline_cycles,
                },
            ],
            clock_hz,
        }
    }

    /// The sub-network carrying `kind`, if configured.
    pub fn channel_index(&self, kind: ChannelKind) -> Option<usize> {
        self.channels.iter().position(|c| c.kind == kind)
    }

    /// Whether this configuration has a VL channel.
    pub fn has_vl(&self) -> bool {
        self.channel_index(ChannelKind::Vl).is_some()
    }

    /// Validate invariants on `mesh`.
    pub fn validate(&self, mesh: &MeshShape) -> Result<(), String> {
        if self.channels.is_empty() {
            return Err("need at least one channel".into());
        }
        let has_wide = self.channels.iter().any(|c| {
            matches!(c.kind, ChannelKind::B | ChannelKind::Pw) && c.channel.width_bytes >= 34
        });
        if !has_wide {
            return Err("a wide carrier channel (B or PW, >= 34 bytes) is mandatory".into());
        }
        self.channels
            .iter()
            .try_for_each(|spec| spec.validate(mesh))
    }
}

impl ChannelSpec {
    /// Whether one sub-network of this shape can be built on `mesh`:
    /// the router model packs a tile id and a flit's bytes into `u16`s,
    /// a router's input VCs into a `u32` bitmap and ring offsets into
    /// `u8`s.
    pub fn validate(&self, mesh: &MeshShape) -> Result<(), String> {
        if self.virtual_channels == 0 || self.vc_buffer_flits == 0 {
            return Err("each channel needs VCs and buffers".into());
        }
        if crate::router::PORTS * self.virtual_channels > 32 {
            return Err(format!(
                "{} virtual channels exceed the 32 input VCs a router bitmap holds",
                self.virtual_channels
            ));
        }
        if self.vc_buffer_flits > u8::MAX as usize {
            return Err("VC buffers hold at most 255 flits".into());
        }
        if self.router_pipeline_cycles == 0 {
            return Err("router pipeline must be at least one stage".into());
        }
        if self.channel.width_bytes == 0 || self.channel.width_bytes > u16::MAX as usize {
            return Err("channel width must be 1..=65535 bytes".into());
        }
        if mesh.tiles() > 1 << 16 {
            return Err(format!(
                "{} tiles exceed the 65536 a flit can address",
                mesh.tiles()
            ));
        }
        Ok(())
    }
}

impl cmp_common::persist::Persist for ChannelKind {
    fn save(&self, w: &mut cmp_common::persist::ByteWriter) {
        w.u8(self.index() as u8);
    }
    fn load(
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<Self, cmp_common::persist::PersistError> {
        Ok(match r.u8()? {
            0 => ChannelKind::B,
            1 => ChannelKind::Vl,
            2 => ChannelKind::L,
            3 => ChannelKind::Pw,
            _ => return Err(r.err("invalid ChannelKind tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::config::CmpConfig;

    #[test]
    fn baseline_has_single_75_byte_channel() {
        let cfg = CmpConfig::default();
        let noc = NocConfig::baseline(&cfg.network, cfg.clock_hz);
        noc.validate(&cfg.mesh).unwrap();
        assert_eq!(noc.channels.len(), 1);
        assert_eq!(noc.channels[0].channel.width_bytes, 75);
        assert!(!noc.has_vl());
        // 2 cycles of link traversal at 4 GHz over 5 mm B-wires
        assert_eq!(noc.channels[0].channel.timing(noc.clock_hz).cycles, 2);
    }

    #[test]
    fn heterogeneous_splits_area_neutrally() {
        let cfg = CmpConfig::default();
        let noc = NocConfig::heterogeneous(&cfg.network, cfg.clock_hz, VlWidth::FourBytes);
        noc.validate(&cfg.mesh).unwrap();
        assert_eq!(noc.channels.len(), 2);
        let b = &noc.channels[noc.channel_index(ChannelKind::B).unwrap()];
        let vl = &noc.channels[noc.channel_index(ChannelKind::Vl).unwrap()];
        assert_eq!(b.channel.width_bytes, 34);
        assert_eq!(vl.channel.width_bytes, 4);
        // VL link is faster than B link
        assert!(vl.channel.timing(noc.clock_hz).cycles < b.channel.timing(noc.clock_hz).cycles);
    }

    #[test]
    fn reply_partitioning_has_l_and_pw_channels() {
        let cfg = CmpConfig::default();
        let noc = NocConfig::reply_partitioning(&cfg.network, cfg.clock_hz);
        noc.validate(&cfg.mesh).unwrap();
        assert_eq!(noc.channels.len(), 2);
        let l = &noc.channels[noc.channel_index(ChannelKind::L).unwrap()];
        let pw = &noc.channels[noc.channel_index(ChannelKind::Pw).unwrap()];
        assert_eq!(l.channel.width_bytes, 11);
        assert_eq!(pw.channel.width_bytes, 64);
        assert!(l.channel.timing(noc.clock_hz).cycles < pw.channel.timing(noc.clock_hz).cycles);
        assert!(!noc.has_vl());
    }

    #[test]
    fn validation_rejects_missing_b_channel() {
        let cfg = CmpConfig::default();
        let mut noc = NocConfig::heterogeneous(&cfg.network, cfg.clock_hz, VlWidth::FourBytes);
        noc.channels.remove(0);
        assert!(noc.validate(&cfg.mesh).is_err());
    }

    #[test]
    fn validation_rejects_shapes_the_router_model_cannot_hold() {
        let cfg = CmpConfig::default();
        let noc = NocConfig::baseline(&cfg.network, cfg.clock_hz);
        noc.validate(&MeshShape::new(256, 256))
            .expect("65536 tiles fit");
        let err = noc.validate(&MeshShape::new(257, 256)).unwrap_err();
        assert!(err.contains("tiles"), "{err}");
        let mut wide = noc.clone();
        wide.channels[0].virtual_channels = 6;
        wide.validate(&cfg.mesh)
            .expect("6 VCs fill the 32-bit bitmap");
        wide.channels[0].virtual_channels = 7;
        let err = wide.validate(&cfg.mesh).unwrap_err();
        assert!(err.contains("virtual channels"), "{err}");
        let mut deep = noc.clone();
        deep.channels[0].vc_buffer_flits = 256;
        assert!(deep.validate(&cfg.mesh).is_err());
        let mut huge = noc.clone();
        huge.channels[0].channel.width_bytes = 1 << 16;
        let err = huge.validate(&cfg.mesh).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }
}
