//! The versioned structured event schema every probed engine emits.
//!
//! Events are small `Copy` values (raw `u64` node ids, no strings) so a
//! probe can record them in a hot loop without touching the allocator.
//! The schema is versioned through [`SCHEMA_VERSION`]: the JSONL exporter
//! writes a leading [`TraceEvent::Schema`] line, and readers reject traces
//! whose version they do not understand. Field semantics are documented in
//! `docs/OBSERVABILITY.md`; changing a variant's meaning requires a bump.

use serde::{Deserialize, Serialize};

/// Version of the trace event schema emitted by this build.
pub const SCHEMA_VERSION: u32 = 1;

/// Which gossip target selector produced a trace section.
///
/// Mirrors `hybridcast_core::protocols::DenseSelector` (which `obs` cannot
/// depend on — it sits below `core` in the layering); [`ProtocolKind::name`]
/// returns the exact string `DenseSelector::name` returns, so trace
/// summaries reproduce the engine reports' protocol labels byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Forward to every known neighbour (random + deterministic links).
    Flooding,
    /// Forward only along the deterministic (ring) links.
    DeterministicFlooding,
    /// Forward to `f` random-view peers.
    RandCast,
    /// Forward to ring successors plus random peers (the hybrid).
    RingCast,
}

impl ProtocolKind {
    /// The display name, identical to `DenseSelector::name()`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Flooding => "Flooding",
            ProtocolKind::DeterministicFlooding => "DeterministicFlooding",
            ProtocolKind::RandCast => "RandCast",
            ProtocolKind::RingCast => "RingCast",
        }
    }
}

/// What happened to a message when it arrived at its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// The target had not seen the message before (a new notification).
    Virgin,
    /// The target was already notified; the message is redundant.
    Duplicate,
    /// The target is dead; the message is lost.
    Dead,
}

/// One structured trace event.
///
/// Node ids are raw `u64`s (`NodeId::as_u64`) so the dense and BTree
/// engines — which iterate the same node set through different layouts —
/// emit byte-identical streams per seed. Hop numbers count from the origin
/// (the origin's own delivery is hop 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Trace header: the schema version of the writer.
    Schema {
        /// The writer's [`SCHEMA_VERSION`].
        version: u32,
    },
    /// A new experiment configuration begins; subsequent runs belong to it.
    Section {
        /// The gossip target selector in use.
        protocol: ProtocolKind,
        /// Its fanout (0 for flooding variants).
        fanout: u32,
        /// Sweep parameter (loss rate, partition duration); 0 when unused.
        param: f64,
    },
    /// One dissemination run begins.
    RunStart {
        /// The origin node's id.
        origin: u64,
        /// Live population the run disseminates over.
        population: u64,
    },
    /// A message was handed to the (modelled) network.
    Sent {
        /// Sender id.
        from: u64,
        /// Target id.
        to: u64,
        /// Hop count the message carries (sender's hop + 1).
        hop: u32,
    },
    /// The loss model dropped an in-flight message.
    DroppedLoss {
        /// Sender id.
        from: u64,
        /// Target id.
        to: u64,
        /// Hop count the message carried.
        hop: u32,
    },
    /// A scripted partition blocked an in-flight message.
    DroppedPartition {
        /// Sender id.
        from: u64,
        /// Target id.
        to: u64,
        /// Hop count the message carried.
        hop: u32,
    },
    /// A message arrived at its target.
    Delivered {
        /// Target id.
        node: u64,
        /// Sender id (the origin delivers to itself at hop 0).
        from: u64,
        /// Hop count of the delivery.
        hop: u32,
        /// Whether the target was virgin, already notified, or dead.
        outcome: DeliveryOutcome,
    },
    /// A hop-synchronous engine finished one frontier expansion.
    HopEnd {
        /// The hop just completed (first expansion is hop 1).
        hop: u32,
        /// Nodes newly notified during this hop.
        new: u64,
        /// Messages sent during this hop.
        messages: u64,
    },
    /// A pull-phase node polled a neighbour for the message.
    PullRequest {
        /// Polling (message-less) node.
        from: u64,
        /// Polled neighbour.
        to: u64,
        /// Pull round (1-based).
        round: u32,
    },
    /// A pull poll hit a holder and transferred the message.
    PullTransfer {
        /// Receiving (previously message-less) node.
        from: u64,
        /// The holder that served it.
        to: u64,
        /// Pull round.
        round: u32,
    },
    /// A pull round completed.
    RoundEnd {
        /// The round just completed (1-based).
        round: u32,
        /// Nodes that obtained the message this round.
        new: u64,
    },
    /// A node initiated its per-cycle membership gossip (one Cyclon
    /// shuffle plus one Vicinity exchange per ring).
    ViewExchange {
        /// The initiating node.
        node: u64,
        /// The simulation cycle (1-based; incremented before gossip).
        cycle: u64,
    },
    /// A membership gossip cycle completed.
    CycleEnd {
        /// The cycle just completed.
        cycle: u64,
        /// Live population after the cycle.
        live: u64,
    },
    /// Churn added a fresh node.
    Join {
        /// The new node's id.
        node: u64,
        /// Cycle at which it joined.
        cycle: u64,
    },
    /// Churn removed a node for good.
    Leave {
        /// The removed node's id.
        node: u64,
        /// Cycle at which it left.
        cycle: u64,
    },
    /// A scripted partition is scheduled: it blocks cross-half messages
    /// from `start` until `heal` (declared once at async run start).
    PartitionOpen {
        /// Simulated time the partition opens.
        start: f64,
        /// Simulated time it heals.
        heal: f64,
    },
    /// A scripted partition's heal time (paired with [`TraceEvent::PartitionOpen`]).
    PartitionHeal {
        /// Simulated time the partition heals.
        heal: f64,
    },
    /// A dissemination run finished.
    RunEnd {
        /// Nodes notified, including the origin.
        reached: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_copy_values() {
        // The ring sink stores events inline; a size regression here is a
        // memory-footprint regression for every bounded trace buffer.
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
        let e = TraceEvent::Sent {
            from: 1,
            to: 2,
            hop: 3,
        };
        let copy = e;
        assert_eq!(e, copy);
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = [
            TraceEvent::Schema {
                version: SCHEMA_VERSION,
            },
            TraceEvent::Section {
                protocol: ProtocolKind::RingCast,
                fanout: 3,
                param: 0.25,
            },
            TraceEvent::RunStart {
                origin: 7,
                population: 100,
            },
            TraceEvent::Delivered {
                node: 9,
                from: 7,
                hop: 1,
                outcome: DeliveryOutcome::Virgin,
            },
            TraceEvent::PartitionOpen {
                start: 2.0,
                heal: 6.5,
            },
            TraceEvent::RunEnd { reached: 100 },
        ];
        for event in events {
            let line = serde_json::to_string(&event).unwrap();
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(event, back, "{line}");
        }
    }

    #[test]
    fn protocol_names_match_the_selector_labels() {
        assert_eq!(ProtocolKind::RandCast.name(), "RandCast");
        assert_eq!(ProtocolKind::RingCast.name(), "RingCast");
        assert_eq!(ProtocolKind::Flooding.name(), "Flooding");
        assert_eq!(
            ProtocolKind::DeterministicFlooding.name(),
            "DeterministicFlooding"
        );
    }
}
