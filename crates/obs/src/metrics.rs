//! Event counters: [`MetricsProbe`] folds every engine trace event into a
//! plain `u64` per event kind.

use crate::event::{DeliveryOutcome, TraceEvent};
use crate::Probe;

/// A [`Probe`] that counts engine trace events by kind. The record path is
/// a match plus an add — no allocation, so it composes with the ring sink
/// inside warm engine runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsProbe {
    /// Dissemination runs completed.
    pub runs: u64,
    /// Messages handed to the network.
    pub sent: u64,
    /// Deliveries that notified a new node.
    pub delivered_virgin: u64,
    /// Deliveries to already-notified nodes.
    pub delivered_duplicate: u64,
    /// Messages addressed to dead nodes.
    pub delivered_dead: u64,
    /// Messages dropped by the loss model.
    pub dropped_loss: u64,
    /// Messages blocked by a scripted partition.
    pub dropped_partition: u64,
    /// Pull-phase polls issued.
    pub pull_requests: u64,
    /// Pull polls that transferred the message.
    pub pull_transfers: u64,
    /// Frontier expansions completed.
    pub hops: u64,
    /// Pull rounds completed.
    pub rounds: u64,
    /// Membership gossip cycles run.
    pub cycles: u64,
    /// Per-node membership gossip initiations.
    pub view_exchanges: u64,
    /// Nodes added by churn.
    pub joins: u64,
    /// Nodes removed by churn.
    pub leaves: u64,
}

impl MetricsProbe {
    /// Creates the probe with every counter at zero.
    #[must_use]
    pub fn new() -> Self {
        MetricsProbe::default()
    }
}

impl Probe for MetricsProbe {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::RunEnd { .. } => self.runs += 1,
            TraceEvent::Sent { .. } => self.sent += 1,
            TraceEvent::Delivered { outcome, .. } => match outcome {
                DeliveryOutcome::Virgin => self.delivered_virgin += 1,
                DeliveryOutcome::Duplicate => self.delivered_duplicate += 1,
                DeliveryOutcome::Dead => self.delivered_dead += 1,
            },
            TraceEvent::DroppedLoss { .. } => self.dropped_loss += 1,
            TraceEvent::DroppedPartition { .. } => self.dropped_partition += 1,
            TraceEvent::PullRequest { .. } => self.pull_requests += 1,
            TraceEvent::PullTransfer { .. } => self.pull_transfers += 1,
            TraceEvent::HopEnd { .. } => self.hops += 1,
            TraceEvent::RoundEnd { .. } => self.rounds += 1,
            TraceEvent::CycleEnd { .. } => self.cycles += 1,
            TraceEvent::ViewExchange { .. } => self.view_exchanges += 1,
            TraceEvent::Join { .. } => self.joins += 1,
            TraceEvent::Leave { .. } => self.leaves += 1,
            TraceEvent::Schema { .. }
            | TraceEvent::Section { .. }
            | TraceEvent::RunStart { .. }
            | TraceEvent::PartitionOpen { .. }
            | TraceEvent::PartitionHeal { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_probe_folds_events_into_counters() {
        let mut probe = MetricsProbe::new();
        probe.record(TraceEvent::Sent {
            from: 1,
            to: 2,
            hop: 1,
        });
        probe.record(TraceEvent::Delivered {
            node: 2,
            from: 1,
            hop: 1,
            outcome: DeliveryOutcome::Virgin,
        });
        probe.record(TraceEvent::RunEnd { reached: 2 });
        assert_eq!(
            probe,
            MetricsProbe {
                runs: 1,
                sent: 1,
                delivered_virgin: 1,
                ..MetricsProbe::default()
            }
        );
    }
}
