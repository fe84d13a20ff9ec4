//! Integration: the paper's complexity theorems as exact assertions —
//! message counts per operation and round-trip counts (via constant-delay
//! latency), across cluster sizes and protocol variants.

use abd_core::msg::RegisterOp;
use abd_core::types::{ProcessId, ReadMode};
use abd_core::{MwmrConfig, SwmrConfig};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};

const D: u64 = 1_000; // constant per-message delay

fn constant_delay(seed: u64) -> SimConfig {
    SimConfig::new(seed).with_latency(LatencyModel::Constant(D))
}

#[test]
fn swmr_write_is_one_round_trip_2n_minus_2_messages() {
    for n in [3usize, 5, 9, 15] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64)
            })
            .collect();
        let mut sim = Sim::new(constant_delay(1), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(sim.metrics().sent, 2 * (n as u64 - 1), "n={n}: messages");
        assert_eq!(sim.completed()[0].latency(), 2 * D, "n={n}: one round trip");
    }
}

#[test]
fn swmr_read_is_two_round_trips_4n_minus_4_messages() {
    for n in [3usize, 5, 9, 15] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64)
            })
            .collect();
        let mut sim = Sim::new(constant_delay(2), nodes);
        sim.invoke(ProcessId(n - 1), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(sim.metrics().sent, 4 * (n as u64 - 1), "n={n}: messages");
        assert_eq!(
            sim.completed()[0].latency(),
            4 * D,
            "n={n}: two round trips"
        );
    }
}

#[test]
fn regular_read_saves_one_round_trip() {
    let n = 9;
    let nodes = (0..n)
        .map(|i| {
            abd_core::swmr::SwmrNode::new(
                SwmrConfig::new(n, ProcessId(i), ProcessId(0))
                    .with_read_mode(ReadMode::NoWriteBack),
                0u64,
            )
        })
        .collect();
    let mut sim = Sim::new(constant_delay(3), nodes);
    sim.invoke(ProcessId(4), RegisterOp::Read);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(sim.metrics().sent, 2 * (n as u64 - 1));
    assert_eq!(sim.completed()[0].latency(), 2 * D);
}

#[test]
fn mwmr_ops_are_two_round_trips_each() {
    for n in [3usize, 5, 9] {
        let nodes = (0..n)
            .map(|i| abd_core::mwmr::MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
            .collect();
        let mut sim = Sim::new(constant_delay(4), nodes);
        sim.invoke(ProcessId(1), RegisterOp::Write(1));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(
            sim.metrics().sent,
            4 * (n as u64 - 1),
            "n={n}: write messages"
        );
        assert_eq!(sim.completed()[0].latency(), 4 * D, "n={n}: write rounds");
        let before = sim.metrics().sent;
        sim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(
            sim.metrics().sent - before,
            4 * (n as u64 - 1),
            "n={n}: read messages"
        );
        assert_eq!(sim.completed()[1].latency(), 4 * D, "n={n}: read rounds");
    }
}

#[test]
fn fast_read_is_one_round_trip_2n_minus_2_messages_uncontended() {
    for n in [3usize, 5, 9, 15] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0))
                        .with_read_mode(ReadMode::FastUnanimous),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(constant_delay(7), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(9));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let before = sim.metrics().sent;
        sim.invoke(ProcessId(n - 1), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(sim.metrics().sent - before, 2 * (n as u64 - 1), "n={n}");
        assert_eq!(sim.completed()[1].latency(), 2 * D, "n={n}: one round");
        assert_eq!(sim.read_path_metrics().fast_reads, 1, "n={n}");
    }
}

#[test]
fn fast_mwmr_read_is_one_round_trip_uncontended() {
    for n in [3usize, 5, 9] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::mwmr::MwmrNode::new(
                    MwmrConfig::new(n, ProcessId(i)).with_read_mode(ReadMode::FastUnanimous),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(constant_delay(8), nodes);
        sim.invoke(ProcessId(1), RegisterOp::Write(9));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let before = sim.metrics().sent;
        sim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(sim.metrics().sent - before, 2 * (n as u64 - 1), "n={n}");
        assert_eq!(sim.completed()[1].latency(), 2 * D, "n={n}: one round");
    }
}

#[test]
fn batched_transport_preserves_op_complexity_for_a_lone_client() {
    // A single client's phase messages have no same-window company, so
    // batching must not change the operation's message or round counts.
    let n = 5;
    let nodes = (0..n)
        .map(|i| {
            abd_core::batch::Batched::new(
                abd_core::swmr::SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64),
                0,
            )
        })
        .collect();
    let mut sim = Sim::new(constant_delay(9), nodes);
    sim.invoke(ProcessId(0), RegisterOp::Write(1));
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(sim.metrics().sent, 2 * (n as u64 - 1));
    assert_eq!(sim.completed()[0].latency(), 2 * D);
    sim.invoke(ProcessId(3), RegisterOp::Read);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(sim.metrics().sent, 6 * (n as u64 - 1));
    assert_eq!(sim.completed()[1].latency(), 4 * D);
}

#[test]
fn latency_is_independent_of_n_under_constant_delay() {
    // The quorum structure means completion time depends on the delay, not
    // the cluster size (with constant delays, exactly).
    let mut latencies = Vec::new();
    for n in [3usize, 11, 31, 51] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64)
            })
            .collect();
        let mut sim = Sim::new(constant_delay(5), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        latencies.push(sim.completed()[0].latency());
    }
    assert!(
        latencies.windows(2).all(|w| w[0] == w[1]),
        "latency varied with n: {latencies:?}"
    );
}

#[test]
fn retransmission_adds_no_messages_on_reliable_links() {
    let n = 5;
    let node = |i| {
        let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_retransmit(1_000_000); // longer than any op
        abd_core::swmr::SwmrNode::new(cfg, 0u64)
    };
    let mut sim = Sim::new(constant_delay(6), (0..n).map(node).collect());
    sim.invoke(ProcessId(0), RegisterOp::Write(1));
    assert!(sim.run_until_ops_complete(u64::MAX / 2));
    assert_eq!(
        sim.metrics().sent,
        2 * (n as u64 - 1),
        "no spurious retransmissions"
    );
    assert_eq!(
        sim.metrics().timer_fires,
        0,
        "timer cancelled on completion"
    );
    assert_eq!(sim.read_path_metrics().retransmissions, 0);

    // A windowed `Batched` ships every envelope from its flush timer, and a
    // flush re-sends nothing.
    let batched = (0..n)
        .map(|i| abd_core::batch::Batched::new(node(i), 500))
        .collect();
    let mut sim = Sim::new(constant_delay(6), batched);
    sim.invoke(ProcessId(0), RegisterOp::Write(1));
    assert!(sim.run_until_ops_complete(u64::MAX / 2));
    sim.invoke(ProcessId(3), RegisterOp::Read);
    assert!(sim.run_until_ops_complete(u64::MAX / 2));
    assert_eq!(sim.metrics().sent, 6 * (n as u64 - 1), "a lone client");
    assert!(sim.metrics().timer_fires > 0, "no flush timer fired");
    assert_eq!(
        sim.read_path_metrics().retransmissions,
        0,
        "a flush counted"
    );
}

#[test]
fn relay_read_is_one_and_a_half_rounds_n_squared_minus_one_messages() {
    // The Oh-RAM shape: reader -> servers (n-1 queries), every server ->
    // every other server (forwards), servers -> reader (direct replies) —
    // n^2 - 1 messages in 3 one-way delays. At n=3 a server's own replica
    // plus the reader's query already cover the read quorum of 2, so its
    // direct reply leaves with its forwards and the read completes at 2
    // delays; the forwards are sent all the same.
    for n in [3usize, 5, 7] {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_mode(ReadMode::Relay),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(constant_delay(11), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(9));
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let before = sim.metrics().sent;
        sim.invoke(ProcessId(n - 1), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        assert_eq!(
            sim.metrics().sent - before,
            (n * n) as u64 - 1,
            "n={n}: relay messages"
        );
        let delays = if n == 3 { 2 } else { 3 };
        assert_eq!(sim.completed()[1].latency(), delays * D, "n={n}: latency");
        assert_eq!(sim.read_path_metrics().relay_reads, 1, "n={n}");
    }
}

/// The regression tripwire for the whole relay feature: stage a read so
/// its queries land while a second write is adopted at the writer but not
/// yet at any other server. `FastUnanimous` sees a split query quorum,
/// loses its unanimity precondition, and pays the full write-back round
/// (2 rounds); `Relay` completes in 1.5 rounds with no precondition to
/// lose.
#[test]
fn fast_unanimous_costs_two_rounds_under_a_contended_writer_while_relay_holds() {
    let n = 5;
    let run = |read_mode: ReadMode| {
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_mode(read_mode),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(constant_delay(12), nodes);
        // W1 settles by t=2D; the writer adopts W2's tag locally at t=2D,
        // a full delay before any server hears of it. A read invoked at
        // t=1.6D has its queries arrive at t=2.6D — inside the window
        // where the writer disagrees with everyone else.
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        sim.invoke_at(2 * D, ProcessId(0), RegisterOp::Write(2));
        let read = sim.invoke_at(8 * D / 5, ProcessId(3), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let rec = sim
            .completed()
            .iter()
            .find(|r| r.op == read)
            .expect("contended read completed")
            .latency();
        (rec, sim.read_path_metrics())
    };

    let (fast_latency, fast_metrics) = run(ReadMode::FastUnanimous);
    assert_eq!(fast_latency, 4 * D, "FastUnanimous degrades to 2 rounds");
    assert_eq!(fast_metrics.fast_reads, 0, "unanimity precondition lost");
    assert_eq!(fast_metrics.write_backs, 1, "write-back round paid");

    let (relay_latency, relay_metrics) = run(ReadMode::Relay);
    assert_eq!(relay_latency, 3 * D, "Relay holds 1.5 rounds");
    assert_eq!(relay_metrics.relay_reads, 1);
    assert_eq!(relay_metrics.write_backs, 0, "no write-back in relay mode");
}
