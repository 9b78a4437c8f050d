//! Per-dissemination accounting: the metrics of Section 2 of the paper.

use hybridcast_graph::NodeId;

/// Complete record of a single dissemination, materialised by
/// [`crate::engine::DenseRunStats::report`].
///
/// All the quantities plotted in the paper's evaluation derive from this
/// report:
///
/// * **hit / miss ratio** (Figures 6, 9, 11) — [`DisseminationReport::hit_ratio`],
///   [`DisseminationReport::miss_ratio`], [`DisseminationReport::is_complete`];
/// * **dissemination progress per hop** (Figures 7, 10) —
///   [`DisseminationReport::per_hop_new`] and
///   [`DisseminationReport::not_reached_after_hop`];
/// * **message overhead, virgin vs. already-notified** (Figure 8) —
///   [`DisseminationReport::messages_to_virgin`],
///   [`DisseminationReport::messages_to_notified`],
///   [`DisseminationReport::messages_to_dead`];
/// * **which nodes were missed** (Figure 13 correlates them with node
///   lifetime) — [`DisseminationReport::unreached`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisseminationReport {
    /// The node the message originated at.
    pub origin: NodeId,
    /// Number of live nodes when the dissemination started.
    pub population: usize,
    /// Number of live nodes that received the message (including the origin).
    pub reached: usize,
    /// Hop count at which the last newly notified node was reached.
    pub last_hop: usize,
    /// Newly notified nodes per hop; index 0 is the origin itself (always
    /// 1). The series runs one hop past [`DisseminationReport::last_hop`]:
    /// the final entry is the redundant sweep in which the last-notified
    /// nodes forward without reaching anyone new, so it is always 0.
    pub per_hop_new: Vec<usize>,
    /// Messages sent per hop; index 0 is 0 (the origin sends at hop 1).
    /// Aligned with [`DisseminationReport::per_hop_new`] and covering the
    /// trailing redundant sweep, so the entries sum to exactly
    /// [`DisseminationReport::total_messages`].
    pub per_hop_messages: Vec<usize>,
    /// Messages that reached a live node which had not yet seen the message.
    pub messages_to_virgin: usize,
    /// Messages that reached a live node which had already seen the message.
    pub messages_to_notified: usize,
    /// Messages sent to dead nodes (wasted on stale links).
    pub messages_to_dead: usize,
    /// Live nodes that never received the message, ascending by id.
    pub unreached: Vec<NodeId>,
}

impl DisseminationReport {
    /// Fraction of live nodes that received the message, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.population == 0 {
            return 1.0;
        }
        self.reached as f64 / self.population as f64
    }

    /// `1 − hit_ratio()`, the quantity the paper plots (log scale).
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.hit_ratio()
    }

    /// `true` if every live node received the message.
    pub fn is_complete(&self) -> bool {
        self.reached == self.population
    }

    /// Total number of point-to-point messages sent.
    pub fn total_messages(&self) -> usize {
        self.messages_to_virgin + self.messages_to_notified + self.messages_to_dead
    }

    /// Cumulative number of nodes reached after each hop: entry `h` is the
    /// number of distinct nodes notified by the end of hop `h`.
    pub fn cumulative_reached(&self) -> Vec<usize> {
        let mut cumulative = Vec::with_capacity(self.per_hop_new.len());
        let mut sum = 0usize;
        for &new in &self.per_hop_new {
            sum += new;
            cumulative.push(sum);
        }
        cumulative
    }

    /// Fraction of live nodes *not yet* reached after each hop — the series
    /// plotted in Figures 7 and 10 (log scale).
    pub fn not_reached_after_hop(&self) -> Vec<f64> {
        self.cumulative_reached()
            .into_iter()
            .map(|reached| {
                if self.population == 0 {
                    0.0
                } else {
                    1.0 - reached as f64 / self.population as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn sample_report() -> DisseminationReport {
        DisseminationReport {
            origin: n(0),
            population: 10,
            reached: 8,
            last_hop: 3,
            // One entry past last_hop: the final redundant sweep notifies
            // nobody, and the per-hop messages sum to total_messages().
            per_hop_new: vec![1, 3, 3, 1, 0],
            per_hop_messages: vec![0, 3, 9, 4, 2],
            messages_to_virgin: 7,
            messages_to_notified: 9,
            messages_to_dead: 2,
            unreached: vec![n(8), n(9)],
        }
    }

    #[test]
    fn ratios_and_completeness() {
        let r = sample_report();
        assert!((r.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((r.miss_ratio() - 0.2).abs() < 1e-12);
        assert!(!r.is_complete());

        let complete = DisseminationReport {
            reached: 10,
            unreached: Vec::new(),
            ..sample_report()
        };
        assert!(complete.is_complete());
        assert_eq!(complete.miss_ratio(), 0.0);
    }

    #[test]
    fn empty_population_counts_as_complete() {
        let r = DisseminationReport {
            population: 0,
            reached: 0,
            ..sample_report()
        };
        assert_eq!(r.hit_ratio(), 1.0);
        assert!(r.is_complete());
    }

    #[test]
    fn message_accounting() {
        let r = sample_report();
        assert_eq!(r.total_messages(), 18);
    }

    #[test]
    fn per_hop_progress() {
        let r = sample_report();
        assert_eq!(r.cumulative_reached(), vec![1, 4, 7, 8, 8]);
        let not_reached = r.not_reached_after_hop();
        assert!((not_reached[0] - 0.9).abs() < 1e-12);
        assert!((not_reached[3] - 0.2).abs() < 1e-12);
        assert!((not_reached[4] - 0.2).abs() < 1e-12, "sweep hop is flat");
        assert_eq!(
            r.per_hop_messages.iter().sum::<usize>(),
            r.total_messages(),
            "fixture obeys the per-hop accounting invariant"
        );
    }
}
