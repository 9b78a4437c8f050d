//! Folds a JSONL trace back into the paper's aggregate metrics.
//!
//! `--trace <path>` on a figure binary streams the structured
//! [`TraceEvent`] record of a run to disk; this module (and the
//! `trace_summary` binary on top of it) reconstructs per-run
//! [`DisseminationReport`]s from the event stream and folds them with the
//! exact same [`AggregateStats`] arithmetic the engines use. For the
//! hop-synchronous figures (6, 8, 11) the reconstruction is *lossless*:
//! the summary table is bit-identical to the one the traced run printed,
//! which `trace_summary --check` verifies.
//!
//! Event-driven (async) sections fold through the same counters — virgin,
//! duplicate and dead deliveries per run — so their rows are an honest
//! delivery summary, but the async engines publish [`AsyncReport`]s with
//! additional timing fields a delivery trace does not carry.
//!
//! [`AsyncReport`]: hybridcast_core::async_engine::AsyncReport

use hybridcast_core::experiment::AggregateStats;
use hybridcast_core::metrics::DisseminationReport;
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, TraceEvent};

use crate::figures::EffectivenessTable;

/// One experiment configuration recovered from a trace: the `Section`
/// header plus the runs recorded under it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSection {
    /// Protocol display name (identical to the engine report labels).
    pub protocol: String,
    /// Fanout of the configuration.
    pub fanout: usize,
    /// Sweep parameter carried by the `Section` event (0 when unused).
    pub param: f64,
    /// One reconstructed report per dissemination run.
    pub reports: Vec<DisseminationReport>,
}

/// In-flight state of the run currently being folded.
struct RunBuilder {
    origin: u64,
    population: u64,
    virgin: usize,
    virgin_forwarded: usize,
    duplicates: usize,
    dead: usize,
    last_hop: u32,
    per_hop_new: Vec<usize>,
    per_hop_messages: Vec<usize>,
}

impl RunBuilder {
    fn new(origin: u64, population: u64) -> Self {
        RunBuilder {
            origin,
            population,
            virgin: 0,
            virgin_forwarded: 0,
            duplicates: 0,
            dead: 0,
            last_hop: 0,
            per_hop_new: vec![1],
            per_hop_messages: vec![0],
        }
    }

    fn finish(self, reached: u64) -> Result<DisseminationReport, String> {
        if reached as usize != self.virgin {
            return Err(format!(
                "run from origin {} reports {reached} reached but the trace \
                 carries {} virgin deliveries",
                self.origin, self.virgin
            ));
        }
        Ok(DisseminationReport {
            origin: NodeId::new(self.origin),
            population: self.population as usize,
            reached: reached as usize,
            last_hop: self.last_hop as usize,
            per_hop_new: self.per_hop_new,
            per_hop_messages: self.per_hop_messages,
            messages_to_virgin: self.virgin_forwarded,
            messages_to_notified: self.duplicates,
            messages_to_dead: self.dead,
            // The miss list is not reconstructed: no aggregate read by
            // `AggregateStats::from_reports` uses it, and the trace only
            // names the nodes a run touched.
            unreached: Vec::new(),
        })
    }
}

/// Splits a parsed event stream into sections and reconstructs each run's
/// [`DisseminationReport`]. Membership, churn, pull and partition events
/// are allowed anywhere and ignored; delivery events must sit inside a
/// `RunStart`..`RunEnd` window inside a `Section`.
///
/// # Errors
///
/// Returns an error on structural violations: runs or deliveries outside
/// a section, unterminated runs, or a `RunEnd` whose `reached` count
/// disagrees with the virgin deliveries recorded for the run.
pub fn fold_trace(events: &[TraceEvent]) -> Result<Vec<TraceSection>, String> {
    let mut sections: Vec<TraceSection> = Vec::new();
    let mut run: Option<RunBuilder> = None;
    for event in events {
        match *event {
            TraceEvent::Schema { .. } => {}
            TraceEvent::Section {
                protocol,
                fanout,
                param,
            } => {
                if run.is_some() {
                    return Err("Section opened while a run is in flight".into());
                }
                sections.push(TraceSection {
                    protocol: protocol.name().to_owned(),
                    fanout: fanout as usize,
                    param,
                    reports: Vec::new(),
                });
            }
            TraceEvent::RunStart { origin, population } => {
                if sections.is_empty() {
                    return Err("RunStart before any Section".into());
                }
                if run.is_some() {
                    return Err("RunStart while a run is in flight".into());
                }
                run = Some(RunBuilder::new(origin, population));
            }
            TraceEvent::Delivered { hop, outcome, .. } => {
                let run = run
                    .as_mut()
                    .ok_or("Delivered outside a RunStart..RunEnd window")?;
                match outcome {
                    DeliveryOutcome::Virgin => {
                        run.virgin += 1;
                        if hop > 0 {
                            run.virgin_forwarded += 1;
                        }
                        if hop > run.last_hop {
                            run.last_hop = hop;
                        }
                    }
                    DeliveryOutcome::Duplicate => run.duplicates += 1,
                    DeliveryOutcome::Dead => run.dead += 1,
                }
            }
            TraceEvent::HopEnd { hop, new, messages } => {
                let run = run.as_mut().ok_or("HopEnd outside a run")?;
                if run.per_hop_new.len() != hop as usize {
                    return Err(format!(
                        "HopEnd for hop {hop} after {} recorded hops",
                        run.per_hop_new.len() - 1
                    ));
                }
                run.per_hop_new.push(new as usize);
                run.per_hop_messages.push(messages as usize);
            }
            TraceEvent::RunEnd { reached } => {
                let builder = run.take().ok_or("RunEnd without a matching RunStart")?;
                let report = builder.finish(reached)?;
                sections
                    .last_mut()
                    .expect("runs are inside sections")
                    .reports
                    .push(report);
            }
            // Message-level and environment events carry no aggregate the
            // report schema stores directly.
            TraceEvent::Sent { .. }
            | TraceEvent::DroppedLoss { .. }
            | TraceEvent::DroppedPartition { .. }
            | TraceEvent::PullRequest { .. }
            | TraceEvent::PullTransfer { .. }
            | TraceEvent::RoundEnd { .. }
            | TraceEvent::ViewExchange { .. }
            | TraceEvent::CycleEnd { .. }
            | TraceEvent::Join { .. }
            | TraceEvent::Leave { .. }
            | TraceEvent::PartitionOpen { .. }
            | TraceEvent::PartitionHeal { .. } => {}
        }
    }
    if run.is_some() {
        return Err("trace ends with a run still in flight".into());
    }
    Ok(sections)
}

/// Folds reconstructed sections into the aggregate effectiveness table,
/// one row per section, using the engines' own aggregation. Sections with
/// no completed runs are skipped.
pub fn summarize(sections: &[TraceSection]) -> EffectivenessTable {
    let rows = sections
        .iter()
        .filter(|s| !s.reports.is_empty())
        .map(|s| AggregateStats::from_reports(&s.protocol, s.fanout, &s.reports))
        .collect();
    EffectivenessTable {
        scenario: "trace".to_owned(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::static_effectiveness_probed;
    use crate::scenario::{EngineKind, ExperimentParams};
    use hybridcast_obs::{parse_jsonl, JsonlProbe, ProtocolKind, StageProfiler};

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            nodes: 150,
            runs: 4,
            warmup_cycles: 50,
            fanouts: vec![2, 3],
            seed: 7,
            churn_rate: 0.02,
            churn_max_cycles: 300,
            engine: EngineKind::Dense,
            threads: 1,
            rng: hybridcast_sim::RngMode::Shared,
            quiet: true,
        }
    }

    #[test]
    fn folds_a_hand_built_sync_run() {
        use DeliveryOutcome::{Dead, Duplicate, Virgin};
        let events = [
            TraceEvent::Section {
                protocol: ProtocolKind::RingCast,
                fanout: 2,
                param: 0.0,
            },
            TraceEvent::RunStart {
                origin: 10,
                population: 3,
            },
            TraceEvent::Delivered {
                node: 10,
                from: 10,
                hop: 0,
                outcome: Virgin,
            },
            TraceEvent::Delivered {
                node: 11,
                from: 10,
                hop: 1,
                outcome: Virgin,
            },
            TraceEvent::HopEnd {
                hop: 1,
                new: 1,
                messages: 1,
            },
            TraceEvent::Delivered {
                node: 12,
                from: 11,
                hop: 2,
                outcome: Virgin,
            },
            TraceEvent::Delivered {
                node: 10,
                from: 11,
                hop: 2,
                outcome: Duplicate,
            },
            TraceEvent::Delivered {
                node: 13,
                from: 11,
                hop: 2,
                outcome: Dead,
            },
            TraceEvent::HopEnd {
                hop: 2,
                new: 1,
                messages: 3,
            },
            TraceEvent::HopEnd {
                hop: 3,
                new: 0,
                messages: 1,
            },
            TraceEvent::RunEnd { reached: 3 },
        ];
        let sections = fold_trace(&events).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].protocol, "RingCast");
        let report = &sections[0].reports[0];
        assert_eq!(report.reached, 3);
        assert_eq!(report.last_hop, 2);
        assert_eq!(report.per_hop_new, vec![1, 1, 1, 0]);
        assert_eq!(report.per_hop_messages, vec![0, 1, 3, 1]);
        assert_eq!(report.messages_to_virgin, 2);
        assert_eq!(report.messages_to_notified, 1);
        assert_eq!(report.messages_to_dead, 1);
    }

    #[test]
    fn rejects_malformed_streams() {
        assert!(fold_trace(&[TraceEvent::RunStart {
            origin: 1,
            population: 2
        }])
        .is_err());
        assert!(fold_trace(&[TraceEvent::RunEnd { reached: 0 }]).is_err());
        let wrong_count = [
            TraceEvent::Section {
                protocol: ProtocolKind::RandCast,
                fanout: 1,
                param: 0.0,
            },
            TraceEvent::RunStart {
                origin: 1,
                population: 2,
            },
            TraceEvent::RunEnd { reached: 5 },
        ];
        assert!(fold_trace(&wrong_count).is_err());
    }

    #[test]
    fn jsonl_round_trip_reproduces_the_engine_table_exactly() {
        let params = tiny();
        let mut probe = JsonlProbe::new(Vec::new()).unwrap();
        let mut profiler = StageProfiler::new();
        let table = static_effectiveness_probed(&params, &mut probe, &mut profiler);

        let bytes = probe.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let events = parse_jsonl(&text).unwrap();
        let summary = summarize(&fold_trace(&events).unwrap());

        assert_eq!(
            summary.rows, table.rows,
            "folding the trace must reproduce the engine aggregates bit for bit"
        );
    }
}
