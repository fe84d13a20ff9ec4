//! Closed-loop workload driving.
//!
//! Experiments issue operations *closed-loop*: each client (processor)
//! executes a script of operations sequentially, never invoking one before
//! its previous one completed — the sequential processes of the paper's
//! model. [`run_scripts`] drives a [`Sim`] that way, **in lock-step rounds**:
//! a round is one operation per client, and the next round starts only once
//! every operation of this one has completed, so the clients' operations
//! overlap within a round and never across rounds. It reports whether every
//! script drained before the deadline.

use crate::sim::Sim;
use abd_core::context::Protocol;
use abd_core::types::{Nanos, ProcessId};
use std::collections::VecDeque;

/// Runs one operation script per node, closed-loop, in lock-step rounds.
///
/// Script `i` is executed by node `i`: its first operation is invoked at
/// time `now + i * stagger`. The simulator then runs until **every**
/// outstanding operation has completed, and only then does each client
/// whose operation completed get its next one, invoked `think` nanoseconds
/// after that instant — the completion of the round's *slowest* operation,
/// not of the client's own. So no client starts an operation in the middle
/// of another client's, and one slow client paces all of them. Completions
/// that predate the call are not counted against `scripts`. Returns `true`
/// if every script drained (all operations completed) before `deadline`.
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
    assert!(scripts.len() <= sim.n(), "more scripts than nodes");
    let mut queues: Vec<VecDeque<P::Op>> = scripts.into_iter().map(VecDeque::from).collect();
    let mut outstanding = 0usize;
    let base = sim.now();
    for (i, q) in queues.iter_mut().enumerate() {
        if let Some(op) = q.pop_front() {
            sim.invoke_at(base + i as Nanos * stagger, ProcessId(i), op);
            outstanding += 1;
        }
    }
    // Completions before this index predate the call or were already
    // answered, so the loop below only reacts to its own operations.
    let mut seen = sim.completed().len();
    while outstanding > 0 {
        if !sim.run_until_ops_complete(deadline) {
            return false; // deadline passed with operations still pending
        }
        let done = sim.completed().len();
        if done == seen && !sim.has_waiting_ops() {
            // Remaining operations were abandoned (e.g. invoked on crashed
            // nodes) and can never complete.
            return false;
        }
        for i in seen..done {
            outstanding -= 1;
            let client = sim.completed()[i].client;
            let c = client.index();
            if c < queues.len() {
                if let Some(op) = queues[c].pop_front() {
                    let at = sim.now() + think;
                    sim.invoke_at(at, client, op);
                    outstanding += 1;
                }
            }
        }
        seen = done;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::mwmr::{MwmrConfig, MwmrNode};

    #[test]
    fn scripts_run_to_completion_in_order() {
        let nodes: Vec<MwmrNode<u64>> = (0..3)
            .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(17), nodes);
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
    fn clients_advance_in_lock_step_rounds() {
        use crate::config::LatencyModel;
        const SLOW: usize = 2;
        const OPS: usize = 5;
        let nodes: Vec<MwmrNode<u64>> = (0..3)
            .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0))
            .collect();
        let cfg = SimConfig::new(5).with_latency(LatencyModel::Constant(1_000));
        let mut sim = Sim::new(cfg, nodes);
        // Every hop to or from the slow client's node takes ten times as
        // long, so its operations are the last of every round.
        sim.set_gray_at(0, ProcessId(SLOW), 10);
        let scripts = (0..3).map(|_| vec![RegisterOp::Read; OPS]).collect();
        assert!(run_scripts(&mut sim, scripts, 0, 0, 100_000_000));
        let mut by_client = vec![Vec::new(); 3];
        for rec in sim.completed() {
            by_client[rec.client.index()].push((rec.invoked_at, rec.completed_at));
        }
        for fast in [0, 1] {
            for k in 1..OPS {
                let (_, own_previous_done) = by_client[fast][k - 1];
                let (_, slow_previous_done) = by_client[SLOW][k - 1];
                // The fast client was free long before the round ended …
                assert!(own_previous_done < slow_previous_done);
                // … and still waited for it: no operation starts in the
                // middle of another client's.
                assert!(
                    by_client[fast][k].0 >= slow_previous_done,
                    "client {fast} began operation {k} at {} while the slow client's \
                     operation {} ran until {slow_previous_done}",
                    by_client[fast][k].0,
                    k - 1
                );
            }
        }
    }

    #[test]
    fn completions_that_predate_the_call_are_not_counted() {
        let nodes: Vec<MwmrNode<u64>> = (0..3)
            .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(17), nodes);
        let first = (0..3).map(|i| vec![RegisterOp::Write(i); 2]).collect();
        assert!(run_scripts(&mut sim, first, 0, 0, 100_000_000));
        assert_eq!(sim.completed().len(), 6);
        // Six earlier completions, three of them client 0's own: none may
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
        let nodes: Vec<MwmrNode<u64>> = (0..3)
            .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(17), nodes);
        sim.crash_at(0, ProcessId(1));
        sim.crash_at(0, ProcessId(2));
        let scripts = vec![vec![RegisterOp::Write(1)]];
        assert!(!run_scripts(&mut sim, scripts, 0, 0, 1_000_000));
        assert_eq!(sim.metrics().ops_completed, 0);
    }

    #[test]
    fn empty_scripts_trivially_complete() {
        let nodes: Vec<MwmrNode<u64>> = (0..2)
            .map(|i| MwmrNode::new(MwmrConfig::new(2, ProcessId(i)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(1), nodes);
        assert!(run_scripts::<MwmrNode<u64>>(
            &mut sim,
            vec![vec![], vec![]],
            0,
            0,
            1000
        ));
        let _ = RegisterResp::<u64>::WriteOk; // keep import meaningful
    }
}
