//! Closed-loop workload driving.
//!
//! Experiments issue operations *closed-loop*: each client (processor)
//! executes a script of operations sequentially, never invoking one before
//! its previous one completed — the sequential processes of the paper's
//! model. One loop, `drive`, runs every client from its *own*
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

/// Runs any number of scripts, each client closed-loop on its own.
///
/// Client `c` runs on node `c mod n` and invokes its first operation at
/// `now + start(c)`, each later one `think` after its own previous
/// operation completed; a completion frees the client of that node whose
/// operation it answers. An operation lost to its node's crash — aborted in
/// flight, or invoked while the node was down — is abandoned, never
/// retried (it may have taken effect: a replay could forge a duplicate
/// write), and the client goes on `think` after the node restarts. A crash,
/// a lost invocation and a restart apply to every client of the node; an
/// invocation still queued at a crash is not lost yet. A late completion of
/// an abandoned operation (a write the rebooted node rolled forward) frees
/// nobody, and completions that predate the call count for nothing.
///
/// Returns `true` iff every operation not abandoned completed by
/// `deadline`; `false` once the deadline passes or no event is left. The
/// loop wakes on completions, aborts, lost invocations and restarts only,
/// and allocates nothing once running.
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
    let (n, base) = (sim.n(), sim.now());
    let mut clients: Vec<Client<P::Op>> = scripts
        .into_iter()
        .map(|script| Client {
            script: script.into_iter(),
            waiting: None,
        })
        .collect();
    // Clients with an operation left to wait for or to invoke.
    let mut busy = 0;
    for (c, client) in clients.iter_mut().enumerate() {
        busy += usize::from(client.invoke_next(sim, c % n, base + start(c)));
    }
    let mut seen = sim.completed().len();
    while busy > 0 {
        let Some(node) = sim.run_until_client_event(deadline) else {
            return false;
        };
        while let Some(rec) = sim.completed().get(seen) {
            seen += 1;
            let (op, i) = (Some(rec.op), rec.client.index());
            // None: abandoned, or not this loop's.
            if let Some(client) = clients
                .iter_mut()
                .skip(i)
                .step_by(n)
                .find(|c| c.waiting == op)
            {
                busy -= usize::from(!client.invoke_next(sim, i, sim.now() + think));
            }
        }
        let i = node.index();
        for client in clients.iter_mut().skip(i).step_by(n) {
            if !sim.is_alive(i) {
                // A crash aborted the client's operation, or its invocation
                // landed on the down node.
                let lost = client.waiting.is_some_and(|op| !sim.invocation_queued(op));
                if lost {
                    client.waiting = None;
                    busy -= usize::from(client.script.len() == 0);
                }
            } else if client.waiting.is_none() {
                // The node restarted under a client whose operation it lost.
                client.invoke_next(sim, i, sim.now() + think);
            }
        }
    }
    true
}

/// The harness's closed loop, `drive`, with client `c`'s first operation
/// at `now + c * stagger`.
///
/// Clients that share a node (more scripts than nodes) are told apart by
/// this loop alone: an [`OpRecord`](crate::sim::OpRecord)'s `client` is the
/// node, so a history built from the run treats each node as one sequential
/// process. Judge histories of runs with at most one script per node.
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
    drive(sim, scripts, |c| c as Nanos * stagger, think, deadline)
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

    /// Client `c`'s script: `ops` writes of `c * 100 + k`, `k` from 1.
    fn tagged_writes(clients: usize, ops: u64) -> Vec<Vec<RegisterOp<u64>>> {
        (0..clients as u64)
            .map(|c| (1..=ops).map(|k| RegisterOp::Write(c * 100 + k)).collect())
            .collect()
    }

    /// Each tagged client's `(node, invoked_at, completed_at)` triples, in
    /// script order.
    fn tagged_intervals<P>(sim: &Sim<P>, clients: usize) -> Vec<Vec<(usize, Nanos, Nanos)>>
    where
        P: Protocol<Op = RegisterOp<u64>>,
    {
        let mut by_client = vec![Vec::new(); clients];
        for rec in sim.completed() {
            let RegisterOp::Write(v) = rec.input else {
                continue;
            };
            let node = rec.client.index();
            by_client[(v / 100) as usize].push((v % 100, node, rec.invoked_at, rec.completed_at));
        }
        by_client
            .into_iter()
            .map(|mut ops| {
                ops.sort_unstable();
                ops.into_iter()
                    .map(|(_, i, at, done)| (i, at, done))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn clients_beyond_the_cluster_size_share_nodes_round_robin() {
        const N: usize = 3;
        const OPS: u64 = 4;
        const THINK: Nanos = 700;
        let cfg = SimConfig::new(8).with_latency(LatencyModel::Constant(1_000));
        let mut sim = mwmr_cluster(N, cfg);
        assert!(run_scripts(
            &mut sim,
            tagged_writes(2 * N, OPS),
            THINK,
            0,
            100_000_000
        ));
        assert_eq!(sim.metrics().ops_completed, 2 * N as u64 * OPS);
        let by_client = tagged_intervals(&sim, 2 * N);
        for (c, ops) in by_client.iter().enumerate() {
            assert_eq!(ops.len(), OPS as usize, "client {c}");
            assert!(ops.iter().all(|&(node, _, _)| node == c % N), "client {c}");
            assert_eq!(ops[0].1, 0, "client {c} starts at once");
            for k in 1..ops.len() {
                assert_eq!(ops[k].1, ops[k - 1].2 + THINK, "client {c} operation {k}");
            }
        }
        // Two clients of one node run side by side, not one after the other.
        assert!(by_client[0][0].2 > by_client[N][0].1);
    }

    #[test]
    fn a_crash_abandons_every_client_of_the_node_and_all_resume() {
        const N: usize = 5;
        const RESTART: Nanos = 50_000;
        const THINK: Nanos = 5_000;
        let cfg = SimConfig::new(3).with_latency(LatencyModel::Constant(1_000));
        let mut sim = mwmr_cluster(N, cfg);
        // Clients 1 and 6 share node 1; both first writes are in their query
        // round when it crashes.
        sim.crash_at(1_500, ProcessId(1));
        sim.restart_at(RESTART, ProcessId(1));
        assert!(run_scripts(
            &mut sim,
            tagged_writes(2 * N, 2),
            THINK,
            0,
            100_000_000
        ));
        let lost: Vec<_> = sim
            .aborted_details()
            .iter()
            .map(|(_, node, op, _)| (*node, op.clone()))
            .collect();
        assert_eq!(
            lost,
            vec![
                (ProcessId(1), RegisterOp::Write(101)),
                (ProcessId(1), RegisterOp::Write(601))
            ]
        );
        let by_client = tagged_intervals(&sim, 2 * N);
        let resumed = RESTART + THINK;
        for c in [1, 6] {
            let ops: Vec<_> = by_client[c].iter().map(|&(i, at, _)| (i, at)).collect();
            assert_eq!(ops, vec![(1, resumed)], "client {c}");
        }
        assert_eq!(sim.metrics().ops_completed, 2 * (2 * N as u64) - 2);
    }

    #[test]
    fn an_invocation_queued_across_a_crash_is_not_lost() {
        const RESTART: Nanos = 50_000;
        const THINK: Nanos = 1_000;
        let cfg = SimConfig::new(4).with_latency(LatencyModel::Constant(1_000));
        let mut sim = mwmr_cluster(3, cfg);
        sim.crash_at(1_500, ProcessId(1));
        sim.restart_at(RESTART, ProcessId(1));
        // Client 4 shares node 1 with client 1, whose write the crash
        // aborts; client 4's first write is still queued, due after the
        // restart, so it runs as scheduled and nothing is invoked twice.
        let start = |c| if c == 4 { 60_000 } else { 0 };
        assert!(drive(
            &mut sim,
            tagged_writes(6, 2),
            start,
            THINK,
            100_000_000
        ));
        let by_client = tagged_intervals(&sim, 6);
        assert_eq!(
            by_client[1],
            vec![(1, RESTART + THINK, RESTART + THINK + 4_000)]
        );
        let four = &by_client[4];
        assert_eq!(four.len(), 2);
        assert_eq!(four[0].1, 60_000);
        assert_eq!(four[1].1, four[0].2 + THINK);
        assert_eq!(sim.metrics().ops_invoked, 12);
        assert_eq!(sim.metrics().ops_completed, 12 - 1);
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
