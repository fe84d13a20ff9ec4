//! Closed-loop workload driving.
//!
//! Experiments issue operations *closed-loop*: each client (processor)
//! executes a script of operations sequentially, never invoking one before
//! its previous one completed — the sequential processes of the paper's
//! model. One loop, [`drive`], runs every client from its *own*
//! completions, so one client's operation may begin in the middle of
//! another's and a slow client paces nobody but itself. [`run_scripts`]
//! staggers the clients' first invocations, [`crate::nemesis::run_campaign`]
//! offsets them by a campaign's invoker skews.

use crate::sim::Sim;
use abd_core::context::Protocol;
use abd_core::types::{Nanos, OpId, ProcessId};

/// One client of [`drive`]: the rest of its script, and the operation it
/// waits for (queued or in flight).
struct Client<Op> {
    script: std::vec::IntoIter<Op>,
    waiting: Option<OpId>,
}

impl<Op: Clone> Client<Op> {
    /// Invokes the script's next operation on node `i` at `at`; `false`
    /// once the script is done.
    fn invoke_next<P: Protocol<Op = Op>>(&mut self, sim: &mut Sim<P>, i: usize, at: Nanos) -> bool {
        self.waiting = self
            .script
            .next()
            .map(|op| sim.invoke_at(at, ProcessId(i), op));
        self.waiting.is_some()
    }
}

/// Runs one script per node, each client closed-loop on its own.
///
/// Client `i` invokes its first operation at `now + start(i)` and each
/// later one `think` after its own previous operation completed. An
/// operation lost to its node's crash — aborted in flight, or invoked while
/// the node was down — is abandoned, never retried (it may have taken
/// effect: a replay could forge a duplicate write), and the client goes on
/// `think` after the node restarts. A late completion of an abandoned
/// operation (a write the rebooted node rolled forward) frees nobody, and
/// completions that predate the call count for nothing.
///
/// Returns `true` iff every operation not abandoned completed by
/// `deadline`; `false` once the deadline passes or no event is left. The
/// loop wakes on completions, aborts, lost invocations and restarts only,
/// and allocates nothing once running.
///
/// # Panics
///
/// Panics if `scripts.len()` exceeds the cluster size.
pub(crate) fn drive<P>(
    sim: &mut Sim<P>,
    scripts: Vec<Vec<P::Op>>,
    start: impl Fn(usize) -> Nanos,
    think: Nanos,
    deadline: Nanos,
) -> bool
where
    P: Protocol,
    P::Op: Clone,
{
    assert!(scripts.len() <= sim.n(), "more scripts than nodes");
    let base = sim.now();
    let mut clients: Vec<Client<P::Op>> = scripts
        .into_iter()
        .map(|script| Client {
            script: script.into_iter(),
            waiting: None,
        })
        .collect();
    // Clients with an operation left to wait for or to invoke.
    let mut busy = 0;
    for (i, client) in clients.iter_mut().enumerate() {
        busy += usize::from(client.invoke_next(sim, i, base + start(i)));
    }
    let mut seen = sim.completed().len();
    while busy > 0 {
        let Some(node) = sim.run_until_client_event(deadline) else {
            return false;
        };
        while let Some(rec) = sim.completed().get(seen) {
            seen += 1;
            let (op, c) = (rec.op, rec.client.index());
            match clients.get_mut(c) {
                Some(client) if client.waiting == Some(op) => {
                    busy -= usize::from(!client.invoke_next(sim, c, sim.now() + think));
                }
                _ => {} // abandoned, or not this loop's
            }
        }
        let i = node.index();
        let Some(client) = clients.get_mut(i) else {
            continue;
        };
        if !sim.is_alive(i) {
            // A crash aborted the client's operation, or its invocation
            // landed on the down node.
            if client.waiting.take().is_some() && client.script.len() == 0 {
                busy -= 1;
            }
        } else if client.waiting.is_none() {
            // The node restarted under a client whose operation it lost.
            client.invoke_next(sim, i, sim.now() + think);
        }
    }
    true
}

/// [`drive`] with client `i`'s first operation at `now + i * stagger`.
///
/// # Panics
///
/// Panics if `scripts.len()` exceeds the cluster size.
pub fn run_scripts<P>(
    sim: &mut Sim<P>,
    scripts: Vec<Vec<P::Op>>,
    think: Nanos,
    stagger: Nanos,
    deadline: Nanos,
) -> bool
where
    P: Protocol,
    P::Op: Clone,
{
    drive(sim, scripts, |i| i as Nanos * stagger, think, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, SimConfig};
    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::mwmr::{MwmrConfig, MwmrNode};
    use abd_core::swmr::{SwmrConfig, SwmrNode};

    fn mwmr_cluster(n: usize, cfg: SimConfig) -> Sim<MwmrNode<u64>> {
        let nodes = (0..n)
            .map(|i| MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0))
            .collect();
        Sim::new(cfg, nodes)
    }

    /// Each client's `(invoked_at, completed_at)` pairs, in completion order.
    fn intervals<P: Protocol>(sim: &Sim<P>) -> Vec<Vec<(Nanos, Nanos)>>
    where
        P::Op: Clone,
    {
        let mut by_client = vec![Vec::new(); sim.n()];
        for rec in sim.completed() {
            by_client[rec.client.index()].push((rec.invoked_at, rec.completed_at));
        }
        by_client
    }

    #[test]
    fn scripts_run_to_completion_in_order() {
        let mut sim = mwmr_cluster(3, SimConfig::new(17));
        let scripts = vec![
            vec![RegisterOp::Write(1), RegisterOp::Write(2)],
            vec![RegisterOp::Read, RegisterOp::Read],
            vec![RegisterOp::Write(3), RegisterOp::Read],
        ];
        assert!(run_scripts(&mut sim, scripts, 100, 10, 100_000_000));
        assert_eq!(sim.metrics().ops_completed, 6);
        // Per-client completion order matches script order.
        let mut last_per_client = [0u64; 3];
        for rec in sim.completed() {
            let c = rec.client.index();
            assert!(rec.invoked_at >= last_per_client[c], "client {c} reordered");
            last_per_client[c] = rec.completed_at;
        }
    }

    #[test]
    fn each_client_runs_from_its_own_completions() {
        const SLOW: usize = 2;
        const OPS: usize = 5;
        const THINK: Nanos = 700;
        let cfg = SimConfig::new(5).with_latency(LatencyModel::Constant(1_000));
        let mut sim = mwmr_cluster(3, cfg);
        // Every hop to or from the slow client's node takes ten times as
        // long, so its operations outlast the fast clients' several times.
        sim.set_gray_at(0, ProcessId(SLOW), 10);
        let scripts = (0..3).map(|_| vec![RegisterOp::Read; OPS]).collect();
        assert!(run_scripts(&mut sim, scripts, THINK, 0, 100_000_000));
        let by_client = intervals(&sim);
        for fast in [0, 1] {
            for k in 1..OPS {
                let (_, own_previous_done) = by_client[fast][k - 1];
                assert_eq!(
                    by_client[fast][k].0,
                    own_previous_done + THINK,
                    "client {fast} operation {k}"
                );
            }
            // … so the fast clients were done before the slow one's first
            // operation was.
            assert!(by_client[fast][OPS - 1].1 < by_client[SLOW][0].1);
        }
    }

    #[test]
    fn lost_operations_are_abandoned_and_the_client_resumes_after_the_restart() {
        const RESTART: Nanos = 50_000;
        const THINK: Nanos = 5_000;
        let cfg = SimConfig::new(3).with_latency(LatencyModel::Constant(1_000));
        let mut sim = mwmr_cluster(5, cfg);
        // Client 1's first read is in flight when its node crashes; client
        // 2's second read is due at 4 000 + THINK, while its node is down.
        sim.crash_at(1_500, ProcessId(1));
        sim.crash_at(6_000, ProcessId(2));
        sim.restart_at(RESTART, ProcessId(1));
        sim.restart_at(RESTART, ProcessId(2));
        let scripts = vec![vec![], vec![RegisterOp::Read; 2], vec![RegisterOp::Read; 3]];
        assert!(run_scripts(&mut sim, scripts, THINK, 0, 100_000_000));
        let by_client = intervals(&sim);
        let resumed = RESTART + THINK;
        assert_eq!(sim.aborted_details().len(), 1);
        assert_eq!(sim.aborted_details()[0].1, ProcessId(1));
        assert_eq!(by_client[1], vec![(resumed, resumed + 4_000)]);
        assert_eq!(
            by_client[2],
            vec![(0, 4_000), (resumed, resumed + 4_000)],
            "the read due while node 2 was down is never retried"
        );
        assert_eq!(sim.metrics().ops_invoked, 4);
    }

    #[test]
    fn a_rolled_forward_write_frees_its_client_once() {
        const THINK: Nanos = 1_000;
        let cfg = SimConfig::new(9).with_latency(LatencyModel::Constant(1_000));
        let nodes = (0..5)
            .map(|i| SwmrNode::new(SwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0))
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(cfg, nodes);
        // The first write is in its update round when the writer crashes;
        // the rebooted writer finishes it, under the op id it was given.
        sim.crash_at(500, ProcessId(0));
        sim.restart_at(10_000, ProcessId(0));
        let scripts = vec![(1..=3).map(RegisterOp::Write).collect()];
        assert!(run_scripts(&mut sim, scripts, THINK, 0, 100_000_000));
        assert_eq!(sim.metrics().ops_resolved, 1);
        let done = sim.completed();
        assert_eq!(done.len(), 3);
        let (first, second, third) = (&done[0], &done[1], &done[2]);
        assert!(matches!(first.input, RegisterOp::Write(1)));
        assert_eq!(first.invoked_at, 0);
        assert!(matches!(second.input, RegisterOp::Write(2)));
        assert_eq!(
            second.invoked_at,
            10_000 + THINK,
            "resumed after the restart"
        );
        // The late completion of the first write did not free the client a
        // second time: the third write waited for the second.
        assert!(first.completed_at < second.completed_at);
        assert_eq!(third.invoked_at, second.completed_at + THINK);
    }

    #[test]
    fn completions_that_predate_the_call_are_not_counted() {
        let mut sim = mwmr_cluster(3, SimConfig::new(17));
        let first = (0..3).map(|i| vec![RegisterOp::Write(i); 2]).collect();
        assert!(run_scripts(&mut sim, first, 0, 0, 100_000_000));
        assert_eq!(sim.completed().len(), 6);
        // Six earlier completions, two of them client 0's own: none may
        // pass for an answer to the second call's operations.
        let second = vec![vec![
            RegisterOp::Write(7),
            RegisterOp::Write(8),
            RegisterOp::Read,
        ]];
        assert!(run_scripts(&mut sim, second, 0, 0, 200_000_000));
        assert_eq!(sim.completed().len(), 9);
        let tail = &sim.completed()[6..];
        assert!(tail.iter().all(|rec| rec.client == ProcessId(0)));
        assert!(tail
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].invoked_at));
        assert!(matches!(tail[2].resp, RegisterResp::ReadOk(8)));
        assert!(!sim.has_waiting_ops());
    }

    #[test]
    fn deadline_reports_failure() {
        let mut sim = mwmr_cluster(3, SimConfig::new(17));
        sim.crash_at(0, ProcessId(1));
        sim.crash_at(0, ProcessId(2));
        let scripts = vec![vec![RegisterOp::Write(1)]];
        assert!(!run_scripts(&mut sim, scripts, 0, 0, 1_000_000));
        assert_eq!(sim.metrics().ops_completed, 0);
    }

    #[test]
    fn empty_scripts_trivially_complete() {
        let mut sim = mwmr_cluster(2, SimConfig::new(1));
        assert!(run_scripts(&mut sim, vec![vec![], vec![]], 0, 0, 1000));
    }
}
