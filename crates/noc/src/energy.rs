//! Orion-style interconnect energy accounting.
//!
//! Dynamic energy is event-driven: every flit pays buffer write + read,
//! crossbar traversal and an arbitration decision at each router, plus the
//! wire energy of each link it crosses (from [`wire_model::link::Channel`]).
//! Static power is structural: every wire of every link leaks all the
//! time, and router buffers leak in proportion to their storage.
//!
//! The per-event constants are 65 nm ballpark figures chosen so that
//! routers contribute roughly a third of the network's dynamic energy and
//! links the rest — the split Orion reports for meshes where "most of this
//! power is dissipated in the point-to-point links" (Wang et al., cited in
//! the paper's introduction).

use cmp_common::geometry::MeshShape;
use cmp_common::units::{Joules, Watts};

use crate::config::NocConfig;

/// Per-event router energy constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterEnergyModel {
    /// Writing one byte into an input VC buffer (pJ).
    pub buffer_write_pj_per_byte: f64,
    /// Reading one byte back out (pJ).
    pub buffer_read_pj_per_byte: f64,
    /// Moving one byte through the crossbar (pJ).
    pub crossbar_pj_per_byte: f64,
    /// One switch-allocation decision (pJ).
    pub arbitration_pj: f64,
    /// Leakage per byte of buffer storage (W).
    pub leakage_w_per_buffer_byte: f64,
}

impl Default for RouterEnergyModel {
    fn default() -> Self {
        RouterEnergyModel {
            buffer_write_pj_per_byte: 0.6,
            buffer_read_pj_per_byte: 0.5,
            crossbar_pj_per_byte: 0.9,
            arbitration_pj: 0.3,
            leakage_w_per_buffer_byte: 1.0e-6,
        }
    }
}

impl RouterEnergyModel {
    /// Dynamic energy of one flit of `bytes` traversing one router.
    pub fn flit_energy(&self, bytes: usize) -> Joules {
        let per_byte = self.buffer_write_pj_per_byte
            + self.buffer_read_pj_per_byte
            + self.crossbar_pj_per_byte;
        Joules((per_byte * bytes as f64 + self.arbitration_pj) * 1e-12)
    }
}

/// Accumulated network energy plus the structural static power.
#[derive(Clone, Debug, Default)]
pub struct NocEnergy {
    /// Wire (link) dynamic energy.
    pub link_dynamic: Joules,
    /// Router dynamic energy (buffers, crossbar, arbitration).
    pub router_dynamic: Joules,
}

impl NocEnergy {
    /// Total dynamic energy so far.
    pub fn dynamic(&self) -> Joules {
        self.link_dynamic + self.router_dynamic
    }

    /// Add another accumulator's totals into this one. Each sub-network
    /// owns its accumulator and [`crate::network::Noc::energy`] sums them
    /// in fixed sub-network order, so the floating-point addition order —
    /// and therefore the reported joules, to the last ulp — is fixed.
    pub fn accumulate(&mut self, other: &NocEnergy) {
        self.link_dynamic += other.link_dynamic;
        self.router_dynamic += other.router_dynamic;
    }

    /// Structural static power of the whole network under `config` on
    /// `mesh`: every link channel leaks, and every router's buffers leak.
    pub fn static_power(config: &NocConfig, mesh: &MeshShape, model: &RouterEnergyModel) -> Watts {
        let links = mesh.unidirectional_links() as f64;
        let link_leak: f64 = config
            .channels
            .iter()
            .map(|c| c.channel.static_power().value())
            .sum::<f64>()
            * links;
        let buffer_bytes_per_router: usize = config
            .channels
            .iter()
            .map(|c| {
                crate::router::PORTS
                    * c.virtual_channels
                    * c.vc_buffer_flits
                    * c.channel.width_bytes
            })
            .sum();
        let router_leak =
            mesh.tiles() as f64 * buffer_bytes_per_router as f64 * model.leakage_w_per_buffer_byte;
        Watts(link_leak + router_leak)
    }
}

cmp_common::impl_persist!(NocEnergy {
    link_dynamic,
    router_dynamic,
});

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::config::CmpConfig;
    use wire_model::wires::VlWidth;

    #[test]
    fn flit_energy_scales_with_bytes() {
        let m = RouterEnergyModel::default();
        let e1 = m.flit_energy(10);
        let e2 = m.flit_energy(20);
        assert!(e2.value() > e1.value() * 1.9 && e2.value() < e1.value() * 2.1);
        // ~2 pJ/byte ballpark
        assert!(
            (10.0..=40.0).contains(&e1.picojoules()),
            "{}",
            e1.picojoules()
        );
    }

    #[test]
    fn static_power_of_baseline_mesh() {
        let cfg = CmpConfig::default();
        let noc = NocConfig::baseline(&cfg.network, cfg.clock_hz);
        let p = NocEnergy::static_power(&noc, &cfg.mesh, &RouterEnergyModel::default());
        // 48 links x 600 wires x 1.0246 mW/m x 5 mm = 147 mW of link leak
        // plus ~100 mW of buffer leak
        assert!(
            (0.1..=0.5).contains(&p.value()),
            "baseline static power {p}"
        );
    }

    #[test]
    fn heterogeneous_static_power_is_lower() {
        let cfg = CmpConfig::default();
        let model = RouterEnergyModel::default();
        let base = NocEnergy::static_power(
            &NocConfig::baseline(&cfg.network, cfg.clock_hz),
            &cfg.mesh,
            &model,
        );
        let hetero = NocEnergy::static_power(
            &NocConfig::heterogeneous(&cfg.network, cfg.clock_hz, VlWidth::FourBytes),
            &cfg.mesh,
            &model,
        );
        assert!(
            hetero.value() < base.value(),
            "hetero {hetero} should leak less than baseline {base}"
        );
    }

    #[test]
    fn energy_totals_add_up() {
        let mut e = NocEnergy::default();
        e.link_dynamic += Joules(1e-9);
        e.router_dynamic += Joules(2e-9);
        assert!((e.dynamic().value() - 3e-9).abs() < 1e-18);
    }
}
