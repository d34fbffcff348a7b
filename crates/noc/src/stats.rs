//! Network statistics: the raw material for Figures 5 and 6.

use cmp_common::stats::{Counter, Histogram};
use cmp_common::types::{Cycle, MessageClass};

use crate::config::{ChannelKind, CHANNEL_KINDS};

/// Per-message-class accounting.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Messages delivered.
    pub count: Counter,
    /// Wire bytes moved (post-compression sizes).
    pub bytes: Counter,
    /// End-to-end latency distribution (injection to tail ejection).
    pub latency: Histogram,
}

/// Statistics for one `Noc` instance.
#[derive(Clone, Debug)]
pub struct NocStats {
    per_class: Vec<ClassStats>,
    /// Flit-hops per channel kind (B / VL / L / PW).
    pub flit_hops: [Counter; CHANNEL_KINDS],
    /// Messages injected (delivered + in flight).
    pub injected: Counter,
}

impl Default for NocStats {
    fn default() -> Self {
        NocStats {
            per_class: (0..MessageClass::ALL.len())
                .map(|_| ClassStats::default())
                .collect(),
            flit_hops: [Counter::default(); CHANNEL_KINDS],
            injected: Counter::default(),
        }
    }
}

impl NocStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    fn class_index(class: MessageClass) -> usize {
        MessageClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL")
    }

    /// Record a delivered message.
    pub fn record_delivery(&mut self, class: MessageClass, wire_bytes: usize, latency: Cycle) {
        let s = &mut self.per_class[Self::class_index(class)];
        s.count.inc();
        s.bytes.add(wire_bytes as u64);
        s.latency.record(latency);
    }

    /// Record a flit crossing a link.
    #[inline]
    pub fn record_flit_hop(&mut self, kind: ChannelKind) {
        self.flit_hops[kind.index()].inc();
    }

    /// Fold another instance's counts into this one. Sub-networks own
    /// their statistics; [`crate::network::Noc::stats`] merges them in
    /// fixed sub-network order.
    pub fn merge(&mut self, other: &NocStats) {
        for (a, b) in self.per_class.iter_mut().zip(&other.per_class) {
            a.count.add(b.count.get());
            a.bytes.add(b.bytes.get());
            a.latency.merge(&b.latency);
        }
        for (a, b) in self.flit_hops.iter_mut().zip(&other.flit_hops) {
            a.add(b.get());
        }
        self.injected.add(other.injected.get());
    }

    /// Accounting for one class.
    pub fn class(&self, class: MessageClass) -> &ClassStats {
        &self.per_class[Self::class_index(class)]
    }

    /// Total delivered messages.
    pub fn delivered(&self) -> u64 {
        self.per_class.iter().map(|s| s.count.get()).sum()
    }

    /// Total wire bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().map(|s| s.bytes.get()).sum()
    }

    /// Fraction of delivered messages in `class` — the Figure 5 metric.
    pub fn class_fraction(&self, class: MessageClass) -> f64 {
        self.class(class).count.fraction_of(self.delivered())
    }

    /// Mean latency of critical messages (the quantity VL-Wires target).
    pub fn critical_mean_latency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for class in MessageClass::ALL {
            if class.is_critical() {
                let s = self.class(class);
                sum += s.latency.mean() * s.count.get() as f64;
                n += s.count.get();
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

cmp_common::impl_persist!(ClassStats {
    count,
    bytes,
    latency,
});

/// The per-class vector's length is fixed by [`MessageClass::ALL`] — it is
/// machine shape, so it loads in place through the slice helper.
impl cmp_common::persist::PersistState for NocStats {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        cmp_common::persist::save_state_slice(&self.per_class, w);
        self.flit_hops.save(w);
        self.injected.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        cmp_common::persist::load_state_slice(&mut self.per_class, r)?;
        self.flit_hops = Persist::load(r)?;
        self.injected = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_fractions_sum_to_one() {
        let mut s = NocStats::new();
        s.record_delivery(MessageClass::Request, 11, 20);
        s.record_delivery(MessageClass::ResponseData, 67, 25);
        s.record_delivery(MessageClass::Request, 5, 15);
        s.record_delivery(MessageClass::ReplacementData, 67, 30);
        let total: f64 = MessageClass::ALL.iter().map(|&c| s.class_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(s.delivered(), 4);
        assert_eq!(s.total_bytes(), 11 + 67 + 5 + 67);
        assert!((s.class_fraction(MessageClass::Request) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn critical_latency_ignores_noncritical_classes() {
        let mut s = NocStats::new();
        s.record_delivery(MessageClass::Request, 11, 10);
        s.record_delivery(MessageClass::ReplacementData, 67, 1000);
        assert!((s.critical_mean_latency() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flit_hops_by_channel() {
        let mut s = NocStats::new();
        s.record_flit_hop(ChannelKind::B);
        s.record_flit_hop(ChannelKind::B);
        s.record_flit_hop(ChannelKind::Vl);
        assert_eq!(s.flit_hops[ChannelKind::B.index()].get(), 2);
        assert_eq!(s.flit_hops[ChannelKind::Vl.index()].get(), 1);
    }
}
