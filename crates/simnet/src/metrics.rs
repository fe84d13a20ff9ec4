//! Counters the experiments read off a finished simulation.

/// Network- and operation-level counters, updated as the simulation runs.
/// What a node re-sends is its own count, not the simulator's:
/// `ReadPathCounters::retransmissions`, summed by
/// [`Sim::read_path_metrics`](crate::Sim::read_path_metrics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network by protocol nodes.
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages lost to random loss.
    pub dropped_loss: u64,
    /// Messages discarded because sender and receiver were in different
    /// partition groups (at send or delivery time).
    pub dropped_partition: u64,
    /// Messages addressed to a crashed node.
    pub dropped_crash: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Timer events that actually fired (not superseded or cancelled).
    pub timer_fires: u64,
    /// Crashed nodes rebooted via [`crate::Sim::restart_at`].
    pub restarts: u64,
    /// Operations invoked.
    pub ops_invoked: u64,
    /// Operations completed.
    pub ops_completed: u64,
    /// Operations aborted because their client crashed mid-flight.
    pub ops_aborted: u64,
    /// Aborted operations later resolved to a response after a restart (a
    /// restarted register rolling its interrupted write forward). Such
    /// operations also count in
    /// [`ops_completed`](Metrics::ops_completed); the
    /// [`ops_aborted`](Metrics::ops_aborted) count is historical and is not
    /// decremented.
    pub ops_resolved: u64,
}

impl Metrics {
    /// Average messages per *completed* operation; `None` before any
    /// operation completes.
    pub fn msgs_per_op(&self) -> Option<f64> {
        (self.ops_completed > 0).then(|| self.sent as f64 / self.ops_completed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_need_completed_ops() {
        let mut m = Metrics::default();
        assert_eq!(m.msgs_per_op(), None);
        m.sent = 12;
        m.ops_completed = 3;
        assert_eq!(m.msgs_per_op(), Some(4.0));
    }
}
