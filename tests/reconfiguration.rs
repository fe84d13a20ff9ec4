//! Integration: the reconfigurable store (RAMBO-lite) — an epoch fence
//! around `KvNode` — under the simulator and under hand-driven schedules:
//! data survives membership changes, resilience renews against the new
//! member set, operations racing a reconfiguration complete and stay
//! linearizable per key in every read mode, under loss, duplication, a
//! crash and a partition; and the six defects of the hand-written `RcNode`
//! this one replaced stay closed.

use abd_core::engine;
use abd_core::host::NodeHost;
use abd_core::types::{Nanos, OpId, ProcessId, ReadMode};
use abd_kv::reconfig::{Config, RcMsg, RcNode, RcNodeConfig, RcOp, RcResp};
use abd_kv::KvMsg;
use abd_repro::lincheck::{check_linearizable_with_limit, CheckResult, History, RegAction};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use std::collections::{BTreeMap, VecDeque};

type RcSim = Sim<RcNode<u32, u64>>;

const READ_MODES: [ReadMode; 3] = [ReadMode::TwoRound, ReadMode::FastUnanimous, ReadMode::Relay];

fn node_config(n: usize, me: usize, initial: &[usize], mode: ReadMode) -> RcNodeConfig {
    let mut cfg =
        RcNodeConfig::new(n, ProcessId(me)).with_initial(Config::initial(members(initial)));
    cfg.kv = cfg.kv.with_read_mode(mode);
    cfg
}

fn cluster(n: usize, seed: u64) -> RcSim {
    let nodes = (0..n)
        .map(|i| RcNode::new(RcNodeConfig::new(n, ProcessId(i))))
        .collect();
    Sim::new(
        SimConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: 20_000,
        }),
        nodes,
    )
}

fn members(ids: &[usize]) -> Vec<ProcessId> {
    ids.iter().copied().map(ProcessId).collect()
}

#[test]
fn data_survives_a_membership_change() {
    let mut sim = cluster(6, 1);
    // Epoch 0: all six nodes. Write some data.
    sim.invoke(ProcessId(0), RcOp::Put(1, 100));
    sim.invoke(ProcessId(1), RcOp::Put(2, 200));
    assert!(sim.run_until_ops_complete(60_000_000_000));

    // Reconfigure to a disjoint-ish trio {3, 4, 5}.
    sim.invoke(ProcessId(0), RcOp::Reconfig(members(&[3, 4, 5])));
    assert!(sim.run_until_ops_complete(120_000_000_000));
    let last = sim.completed().last().unwrap();
    assert_eq!(last.resp, RcResp::ReconfigOk { epoch: 1 });

    // Reads through the new configuration still see the data (completion
    // order is not invocation order — match by key).
    sim.invoke(ProcessId(5), RcOp::Get(1));
    sim.invoke(ProcessId(3), RcOp::Get(2));
    assert!(sim.run_until_ops_complete(240_000_000_000));
    for r in sim.completed().iter().rev().take(2) {
        match &r.input {
            RcOp::Get(1) => assert_eq!(r.resp, RcResp::GetOk(Some(100))),
            RcOp::Get(2) => assert_eq!(r.resp, RcResp::GetOk(Some(200))),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn resilience_renews_against_the_new_member_set() {
    // Universe of 5; epoch 0 members = all 5 (tolerates 2 crashes).
    let mut sim = cluster(5, 2);
    sim.invoke(ProcessId(0), RcOp::Put(7, 77));
    assert!(sim.run_until_ops_complete(60_000_000_000));

    // Crash nodes 3 and 4: the static emulation is now at its bound — one
    // more crash would kill it forever.
    sim.crash_at(sim.now(), ProcessId(3));
    sim.crash_at(sim.now(), ProcessId(4));

    // Shrink the configuration to the three survivors.
    sim.invoke(ProcessId(0), RcOp::Reconfig(members(&[0, 1, 2])));
    assert!(
        sim.run_until_ops_complete(240_000_000_000),
        "reconfig must survive the crashes"
    );

    // Now crash node 2 as well: 3 of the original 5 are gone — fatal for
    // the static protocol — but {0,1} is a majority of the *new* config.
    sim.crash_at(sim.now(), ProcessId(2));
    sim.invoke(ProcessId(0), RcOp::Get(7));
    sim.invoke(ProcessId(1), RcOp::Put(8, 88));
    assert!(
        sim.run_until_ops_complete(sim.now() + 240_000_000_000),
        "the reconfigured store must survive a third crash"
    );
    for r in sim.completed().iter().rev().take(2) {
        match &r.input {
            RcOp::Get(7) => assert_eq!(r.resp, RcResp::GetOk(Some(77))),
            RcOp::Put(8, _) => assert_eq!(r.resp, RcResp::PutOk),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn writes_racing_the_reconfiguration_are_not_lost() {
    for seed in 0..30u64 {
        let mut sim = cluster(5, seed);
        // Launch several puts and a reconfig at overlapping times.
        sim.invoke_at(0, ProcessId(1), RcOp::Put(1, 11));
        sim.invoke_at(500, ProcessId(2), RcOp::Put(2, 22));
        sim.invoke_at(1_000, ProcessId(0), RcOp::Reconfig(members(&[0, 1, 2])));
        sim.invoke_at(1_500, ProcessId(3), RcOp::Put(3, 33));
        assert!(
            sim.run_until_ops_complete(600_000_000_000),
            "seed {seed}: racing operations must all complete (restart under the new epoch)"
        );
        // Every completed put must be readable afterwards.
        for key in [1u32, 2, 3] {
            sim.invoke(ProcessId(1), RcOp::Get(key));
        }
        assert!(
            sim.run_until_ops_complete(sim.now() + 600_000_000_000),
            "seed {seed}"
        );
        let recs = sim.completed();
        let gets: Vec<_> = recs.iter().rev().take(3).collect();
        for g in gets {
            let RcOp::Get(k) = &g.input else { panic!() };
            assert_eq!(
                g.resp,
                RcResp::GetOk(Some(u64::from(*k) * 11)),
                "seed {seed}: key {k} lost across reconfiguration"
            );
        }
    }
}

/// A workload of mixed gets and puts with reconfigurations racing it.
struct Scenario {
    initial: &'static [usize],
    /// `(round, administrator, new members)`: reconfigurations are
    /// serialized with respect to each other (the documented assumption —
    /// every round runs to completion) but race their round's operations.
    reconfigs: &'static [(u64, usize, &'static [usize])],
    /// 5 % loss + 5 % duplication throughout; node 2 blinks (crash, then
    /// restart 50 µs later) in round 2; nodes 3 and 4 are partitioned from
    /// the rest for 300 µs from the start of round 3.
    faults: bool,
}

/// All five nodes to {0,1,2} to {1,2,3,4} to {0,3,4}, each by a different
/// administrator. Under `faults` node 2 blinks as a member between the
/// first two, and the partition lies over the second: its coordinator
/// cannot gather a majority of the new members until the partition heals.
const FROM_EVERYONE: Scenario = Scenario {
    initial: &[0, 1, 2, 3, 4],
    reconfigs: &[
        (1, 0, &[0, 1, 2]),
        (3, 1, &[1, 2, 3, 4]),
        (4, 3, &[0, 3, 4]),
    ],
    faults: false,
};

/// An initial configuration that is a strict subset of the universe: 3 and
/// 4 start as non-member clients, and the first administrator, 4, is a
/// member of neither the configuration it closes nor the one it installs.
const FROM_A_SUBSET: Scenario = Scenario {
    initial: &[0, 1, 2],
    reconfigs: &[(1, 4, &[1, 2, 3]), (3, 2, &[0, 4]), (4, 1, &[2, 3, 4])],
    faults: false,
};

const ROUNDS: u64 = 6;

/// Runs `sc`: in each of [`ROUNDS`] rounds every node invokes a put on one
/// of two keys and a get on the other, 50 ns apart, the nodes 100 ns apart.
/// Panics unless every operation on a live node completes.
fn run_scenario(sc: &Scenario, mode: ReadMode, seed: u64) -> RcSim {
    let n = 5;
    let nodes = (0..n)
        .map(|i| RcNode::new(node_config(n, i, sc.initial, mode)))
        .collect();
    let p = if sc.faults { 0.05 } else { 0.0 };
    let latency = LatencyModel::Uniform {
        lo: 100,
        hi: 20_000,
    };
    let cfg = SimConfig::new(seed).with_latency(latency);
    let mut sim: RcSim = Sim::new(cfg.with_loss(p).with_duplication(p), nodes);
    let mut value = 0u64;
    for round in 0..ROUNDS {
        let t = sim.now();
        for node in 0..n {
            value += 1;
            let (at, key) = (t + node as u64 * 100, (round as u32 + node as u32) % 2);
            sim.invoke_at(at, ProcessId(node), RcOp::Put(key, value));
            sim.invoke_at(at + 50, ProcessId(node), RcOp::Get(1 - key));
        }
        for &(_, admin, new) in sc.reconfigs.iter().filter(|r| r.0 == round) {
            sim.invoke_at(t + 1_000, ProcessId(admin), RcOp::Reconfig(members(new)));
        }
        if sc.faults && round == 2 {
            sim.crash_at(t + 10_000, ProcessId(2));
            sim.restart_at(t + 60_000, ProcessId(2));
        }
        if sc.faults && round == 3 {
            sim.partition_at(t + 500, vec![0, 0, 0, 1, 1]);
            sim.heal_at(t + 300_500);
        }
        assert!(
            sim.run_until_ops_complete(t + 600_000_000_000),
            "{mode:?} seed {seed} round {round}: unfinished {:?}",
            sim.pending_details()
        );
    }
    for r in sim.completed() {
        if let RcOp::Reconfig(_) = r.input {
            let ok = matches!(r.resp, RcResp::ReconfigOk { .. });
            assert!(ok, "{mode:?} seed {seed}: {r:?}");
        }
    }
    sim
}

/// Judges each key's history on its own — operations a crash aborted close
/// it as pending writes — and returns how many reads were judged.
fn judge_per_key(sim: &RcSim, context: &str) -> usize {
    // Each node runs a put and a get at once: two sequential clients.
    let client = |node: ProcessId, get: bool| node.index() * 2 + usize::from(get);
    let mut histories: BTreeMap<u32, History<u64>> = BTreeMap::new();
    let mut reads = 0;
    for r in sim.completed() {
        let (key, action) = match (&r.input, &r.resp) {
            (RcOp::Put(k, v), RcResp::PutOk) => (*k, RegAction::Write(*v)),
            (RcOp::Get(k), RcResp::GetOk(v)) => (*k, RegAction::Read(v.unwrap_or(0))),
            (RcOp::Reconfig(_), _) => continue,
            other => panic!("{context}: {other:?}"),
        };
        let get = matches!(action, RegAction::Read(_));
        reads += usize::from(get);
        let h = histories.entry(key).or_insert_with(|| History::new(0));
        h.push(client(r.client, get), action, r.invoked_at, r.completed_at);
    }
    for (_, node, input, at) in sim.aborted_details() {
        if let RcOp::Put(k, v) = input {
            let h = histories.entry(*k).or_insert_with(|| History::new(0));
            h.push_pending_write(client(*node, false), *v, *at);
        }
    }
    for (key, h) in histories {
        assert_eq!(
            check_linearizable_with_limit(&h, 2_000_000),
            CheckResult::Linearizable,
            "{context}, key {key}: reconfiguration broke per-key atomicity\n{h}"
        );
    }
    reads
}

#[test]
fn per_key_histories_stay_linearizable_across_reconfigs() {
    for mode in READ_MODES {
        let mut reads = 0;
        for seed in 0..40u64 {
            let sim = run_scenario(&FROM_EVERYONE, mode, seed ^ 0xc0fe);
            reads += judge_per_key(&sim, &format!("{mode:?} seed {seed}"));
        }
        println!("{mode:?}: {reads} reads judged over 40 seeds, 0 violations");
        // The oracle once judged write-only histories without anyone
        // noticing; it cannot go back there silently.
        assert!(reads >= 1_000, "{mode:?}: only {reads} reads judged");
    }
}

#[test]
fn non_member_clients_and_an_outside_coordinator_stay_linearizable() {
    for mode in READ_MODES {
        for seed in 0..20u64 {
            let sim = run_scenario(&FROM_A_SUBSET, mode, seed ^ 0x5b5e7);
            judge_per_key(&sim, &format!("{mode:?} seed {seed}"));
            let last = Config {
                epoch: 3,
                members: members(&[2, 3, 4]),
            };
            for i in [2, 3, 4] {
                assert_eq!(sim.node(i).current_config(), &last, "node {i}");
            }
        }
    }
}

/// The first reconfiguration campaign (ROADMAP direction 5(b), smoke size):
/// [`FROM_EVERYONE`] under loss, duplication, a blink crash and a partition.
/// Every operation on a live node completes, every key's history is
/// linearizable, and a second run of the seed reproduces the trace digest.
fn reconfig_campaign(mode: ReadMode) {
    let sc = Scenario {
        faults: true,
        ..FROM_EVERYONE
    };
    let (seeds, mut reads, mut aborted) = (100u64, 0, 0);
    for seed in 0..seeds {
        let sim = run_scenario(&sc, mode, seed);
        reads += judge_per_key(&sim, &format!("{mode:?} campaign seed {seed}"));
        aborted += sim.aborted_details().len();
        let again = run_scenario(&sc, mode, seed);
        assert_eq!(
            sim.trace_digest(),
            again.trace_digest(),
            "{mode:?} seed {seed}: the second run took a different schedule"
        );
    }
    println!(
        "reconfig campaign {mode:?}: {seeds}/{seeds} seeds finished, {reads} reads judged, \
         0 violations, {aborted} operations aborted by the crash, double-run digests equal"
    );
}

#[test]
fn reconfig_campaign_two_round() {
    reconfig_campaign(ReadMode::TwoRound);
}

#[test]
fn reconfig_campaign_fast_unanimous() {
    reconfig_campaign(ReadMode::FastUnanimous);
}

#[test]
fn reconfig_campaign_relay() {
    reconfig_campaign(ReadMode::Relay);
}

#[test]
fn second_reconfig_from_another_admin_works_after_the_first() {
    let mut sim = cluster(4, 9);
    sim.invoke(ProcessId(0), RcOp::Put(5, 50));
    assert!(sim.run_until_ops_complete(60_000_000_000));
    sim.invoke(ProcessId(0), RcOp::Reconfig(members(&[0, 1])));
    assert!(sim.run_until_ops_complete(240_000_000_000));
    // A different node runs the next reconfiguration (serialized after).
    sim.invoke(ProcessId(1), RcOp::Reconfig(members(&[2, 3])));
    assert!(sim.run_until_ops_complete(sim.now() + 240_000_000_000));
    let last = sim.completed().last().unwrap();
    assert_eq!(last.resp, RcResp::ReconfigOk { epoch: 2 });
    sim.invoke(ProcessId(3), RcOp::Get(5));
    assert!(sim.run_until_ops_complete(sim.now() + 240_000_000_000));
    assert_eq!(
        sim.completed().last().unwrap().resp,
        RcResp::GetOk(Some(50)),
        "data must survive two migrations"
    );
}

// ---- hand-driven schedules: the six defects of the `RcNode` this one
// replaced (each test fails on that one for the reason its comment gives) ----

type Msg = RcMsg<u32, u64>;

fn is_update(m: &Msg) -> bool {
    matches!(
        m,
        RcMsg::Op {
            msg: KvMsg::Op(engine::Msg::Update { .. }),
            ..
        }
    )
}

fn is_update_ack(m: &Msg) -> bool {
    matches!(
        m,
        RcMsg::Op {
            msg: KvMsg::Op(engine::Msg::UpdateAck { .. }),
            ..
        }
    )
}

fn is_install(m: &Msg) -> bool {
    matches!(m, RcMsg::Install { .. })
}

fn is_announce(m: &Msg) -> bool {
    matches!(m, RcMsg::Announce { .. })
}

/// A cluster in which the test decides every delivery, loss, timer firing
/// and restart. Time is a logical clock: one tick per invocation, delivery
/// or pass of timer firings.
struct Net {
    hosts: Vec<NodeHost<RcNode<u32, u64>>>,
    wire: VecDeque<(usize, usize, Msg)>,
    clock: u64,
    /// Indexed by operation id: `(node, input, invoked at)`.
    invoked: Vec<(usize, RcOp<u32, u64>, u64)>,
    done: BTreeMap<usize, (RcResp<u64>, u64)>,
}

impl Net {
    /// Nodes `0..n`, `initial` the members of epoch 0.
    fn new(n: usize, initial: &[usize]) -> Self {
        let node = |i| RcNode::new(node_config(n, i, initial, ReadMode::TwoRound));
        Net {
            hosts: NodeHost::cluster((0..n).map(node).collect()),
            wire: VecDeque::new(),
            clock: 0,
            invoked: Vec::new(),
            done: BTreeMap::new(),
        }
    }

    fn absorb(&mut self, at: usize) {
        self.clock += 1;
        let out = self.hosts[at].outbox();
        for (to, m) in out.fx.sends.drain(..) {
            self.wire.push_back((at, to.index(), m));
        }
        for (op, resp) in out.fx.responses.drain(..) {
            self.done.insert(op.0 as usize, (resp, self.clock));
        }
        out.armed.clear();
    }

    fn invoke(&mut self, at: usize, op: RcOp<u32, u64>) -> usize {
        let id = self.invoked.len();
        self.invoked.push((at, op.clone(), self.clock + 1));
        self.hosts[at].invoke(0, OpId(id as u64), op);
        self.absorb(at);
        id
    }

    /// Delivers, oldest first, every message `pick(from, to, msg)` selects
    /// — those the deliveries themselves send included — until none is
    /// left; the rest stays on the wire.
    fn deliver(&mut self, pick: impl Fn(usize, usize, &Msg) -> bool) {
        while let Some(i) = self.wire.iter().position(|(f, t, m)| pick(*f, *t, m)) {
            let (from, to, m) = self.wire.remove(i).expect("position is in range");
            self.hosts[to].deliver(0, ProcessId(from), m);
            self.absorb(to);
        }
    }

    fn run(&mut self) {
        self.deliver(|_, _, _| true);
    }

    /// Loses every message on the wire that `pick` selects.
    fn lose(&mut self, pick: impl Fn(usize, usize, &Msg) -> bool) {
        self.wire.retain(|(f, t, m)| !pick(*f, *t, m));
    }

    /// Fires every timer armed on `at`, once each: with no clock, each is
    /// due at the end of time.
    fn fire(&mut self, at: usize) {
        self.hosts[at].fire_due(Nanos::MAX);
        self.absorb(at);
    }

    /// Crash and reboot: what was on its way to `at` is lost, its timers
    /// are gone, its operations in flight never answer.
    fn restart(&mut self, at: usize) {
        self.wire.retain(|(_, to, _)| *to != at);
        self.hosts[at].crash();
        self.hosts[at].restart(0);
        self.absorb(at);
    }

    fn resp(&self, op: usize) -> Option<&RcResp<u64>> {
        self.done.get(&op).map(|(r, _)| r)
    }

    /// Runs, and fires `at`'s timers, until `op` answers (at most 8 times).
    fn retry_until_done(&mut self, at: usize, op: usize) -> Option<&RcResp<u64>> {
        for _ in 0..8 {
            self.run();
            if self.done.contains_key(&op) {
                break;
            }
            self.fire(at);
        }
        self.resp(op)
    }
}

/// Defect 1: a sealed replica counted *itself* toward quorums of the epoch
/// it was sealed out of, while neither contributing its state nor adopting.
/// Old `RcNode`: the put answers `PutOk` before the install, off node 1
/// alone, and the get through the new configuration then returns `None`.
#[test]
fn a_sealed_replica_never_counts_toward_its_closed_epoch() {
    let mut net = Net::new(3, &[0, 1, 2]);
    // Node 2 collects from {2, 0}; its install stays on the wire.
    let rc = net.invoke(2, RcOp::Reconfig(members(&[0, 2])));
    net.deliver(|from, to, m| from != 1 && to != 1 && !is_install(m));
    // A put on sealed node 0, with only node 1 — never sealed — answering.
    let put = net.invoke(0, RcOp::Put(7, 70));
    net.deliver(|from, to, _| from + to == 1);
    assert_eq!(
        net.resp(put),
        None,
        "completed in an epoch whose collect had already sealed its own replica"
    );
    net.run();
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
    assert_eq!(net.resp(put), Some(&RcResp::PutOk));
    let get = net.invoke(2, RcOp::Get(7));
    net.run();
    assert_eq!(net.resp(get), Some(&RcResp::GetOk(Some(70))));
}

/// Defect 2: the install's *retransmission* shipped the coordinator's own
/// store instead of the merged one. Old `RcNode`: a coordinator outside the
/// new member set migrates nothing, and the get returns `None`.
#[test]
fn install_retransmission_ships_the_merged_store() {
    let mut net = Net::new(4, &[0, 1, 2]);
    // A put that completes on {1, 2}; node 0 never hears of it.
    let put = net.invoke(1, RcOp::Put(5, 50));
    net.deliver(|from, to, _| from != 0 && to != 0);
    assert_eq!(net.resp(put), Some(&RcResp::PutOk));
    net.lose(|_, _, _| true);
    // Node 0 migrates the store to {3}; the first install is lost.
    let rc = net.invoke(0, RcOp::Reconfig(members(&[3])));
    net.deliver(|_, _, m| !is_install(m));
    net.lose(|_, _, m| is_install(m));
    assert_eq!(net.resp(rc), None);
    net.fire(0);
    net.run();
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
    let get = net.invoke(3, RcOp::Get(5));
    net.run();
    assert_eq!(net.resp(get), Some(&RcResp::GetOk(Some(50))));
}

/// Defect 3: a put caught in its update round by an epoch change restarted
/// as a fresh put and was stamped twice. Old `RcNode`: one client reads
/// 1, 2, 1 with one `Put(1)` and one `Put(2)` in the history.
#[test]
fn a_put_caught_in_its_update_round_keeps_its_tag() {
    let mut net = Net::new(3, &[0, 1, 2]);
    // Node 0's update reaches node 1 and nobody else; the ack is lost.
    let slow = net.invoke(0, RcOp::Put(9, 1));
    net.deliver(|_, to, m| !is_update_ack(m) && (!is_update(m) || to == 1));
    net.lose(|_, _, m| is_update(m) || is_update_ack(m));
    assert_eq!(net.resp(slow), None);
    // Node 2 reconfigures to the same members. Whatever node 0 sends to
    // finish its put is held back while a client on node 1 works.
    let held = |from: usize, _: usize, m: &Msg| !(from == 0 && is_update(m));
    let rc = net.invoke(2, RcOp::Reconfig(members(&[0, 1, 2])));
    net.deliver(held);
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
    for op in [RcOp::Get(9), RcOp::Put(9, 2), RcOp::Get(9)] {
        let id = net.invoke(1, op);
        net.deliver(held);
        assert!(net.resp(id).is_some());
    }
    // Node 0's put finishes (on a retry, if it waits for one).
    assert_eq!(net.retry_until_done(0, slow), Some(&RcResp::PutOk));
    let last = net.invoke(1, RcOp::Get(9));
    net.run();
    assert!(net.resp(last).is_some());
    let mut h = History::new(0u64);
    for (id, (node, input, start)) in net.invoked.iter().enumerate() {
        let (resp, end) = &net.done[&id];
        let action = match (input, resp) {
            (RcOp::Put(_, v), RcResp::PutOk) => RegAction::Write(*v),
            (RcOp::Get(_), RcResp::GetOk(v)) => RegAction::Read(v.unwrap_or(0)),
            _ => continue,
        };
        h.push(*node, action, *start, *end);
    }
    assert_eq!(
        check_linearizable_with_limit(&h, 2_000_000),
        CheckResult::Linearizable,
        "one Put(1), one Put(2), and a client that read\n{h}"
    );
}

/// Defect 4: a coordinator that is a member of the new configuration had
/// installed locally, so its first retry saw "its" epoch already in force,
/// called itself overtaken and gave up. Old `RcNode`:
/// `Rejected("configuration changed during reconfiguration")`.
#[test]
fn member_coordinator_retries_a_lost_install() {
    let mut net = Net::new(3, &[0, 1, 2]);
    let rc = net.invoke(0, RcOp::Reconfig(members(&[0, 1])));
    net.deliver(|_, _, m| !is_install(m));
    net.lose(|_, _, m| is_install(m));
    net.fire(0);
    net.run();
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
}

/// Defect 5: there was no `on_restart`. Old `RcNode`: the rebooted
/// administrator still believes a reconfiguration is in flight — with every
/// timer gone — and answers `Rejected("reconfiguration already in flight")`
/// for good.
#[test]
fn a_restarted_administrator_can_reconfigure_again() {
    let mut net = Net::new(3, &[0, 1, 2]);
    let first = net.invoke(0, RcOp::Reconfig(members(&[0, 1])));
    net.deliver(|_, to, _| to == 1); // node 1 is sealed; node 0 crashes
    net.restart(0);
    let again = net.invoke(0, RcOp::Reconfig(members(&[0, 1])));
    net.run();
    assert_eq!(net.resp(again), Some(&RcResp::ReconfigOk { epoch: 1 }));
    assert_eq!(net.resp(first), None, "the crash aborted it");
    // The replica the dead collect had sealed serves again.
    let get = net.invoke(1, RcOp::Get(1));
    net.run();
    assert_eq!(net.resp(get), Some(&RcResp::GetOk(None)));
}

/// Defect 6: "stragglers learn the configuration when their fenced retries
/// time out" was documented and never implemented. Old `RcNode`: a node
/// that misses the one best-effort announcement retries its old epoch
/// forever, and the get never answers.
#[test]
fn a_straggler_learns_the_configuration_from_whoever_it_contacts() {
    let mut net = Net::new(4, &[0, 1, 2]);
    net.invoke(0, RcOp::Put(4, 40));
    net.run();
    let rc = net.invoke(0, RcOp::Reconfig(members(&[1, 2])));
    net.deliver(|_, to, _| to != 3);
    net.lose(|_, _, _| true);
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
    assert_eq!(net.hosts[3].node().current_config().epoch, 0);
    let get = net.invoke(3, RcOp::Get(4));
    let got = net.retry_until_done(3, get);
    assert_eq!(got, Some(&RcResp::GetOk(Some(40))));
}

/// Defect 6, the sealed twin: a member the collect sealed, and that then
/// missed both the install and the announcement. Old `RcNode`: as above.
#[test]
fn a_sealed_straggler_completes_what_was_invoked_on_it() {
    let mut net = Net::new(3, &[0, 1, 2]);
    net.invoke(0, RcOp::Put(4, 40));
    net.run();
    let rc = net.invoke(0, RcOp::Reconfig(members(&[0, 1, 2])));
    net.deliver(|_, to, m| to != 2 || !(is_install(m) || is_announce(m)));
    net.lose(|_, _, _| true);
    assert_eq!(net.resp(rc), Some(&RcResp::ReconfigOk { epoch: 1 }));
    assert_eq!(net.hosts[2].node().current_config().epoch, 0);
    let get = net.invoke(2, RcOp::Get(4));
    let got = net.retry_until_done(2, get);
    assert_eq!(got, Some(&RcResp::GetOk(Some(40))));
}

/// Why a bare announcement moves non-members only: a member-to-be that
/// started serving the new epoch off whatever store it had could form a
/// quorum with its like before the install reached a majority, and a read
/// through that quorum would miss everything the old epochs completed.
#[test]
fn a_member_to_be_serves_only_off_an_install() {
    let mut net = Net::new(6, &[0, 1, 2]);
    // A put that completes on {0, 1}; node 2 hears of nothing for a while.
    let put = net.invoke(0, RcOp::Put(3, 30));
    net.deliver(|from, to, _| from != 2 && to != 2);
    assert_eq!(net.resp(put), Some(&RcResp::PutOk));
    // Node 0 migrates to {3, 4, 5}; so far its install has reached node 3.
    let rc = net.invoke(0, RcOp::Reconfig(members(&[3, 4, 5])));
    net.deliver(|from, to, m| from != 2 && to != 2 && (!is_install(m) || to == 3));
    net.lose(|_, to, _| to == 2);
    assert_eq!(net.resp(rc), None);
    // A get on node 2, which learns the new epoch from node 3 — whose
    // replies to the get itself are slow, so the quorum will be {4, 5}.
    let get = net.invoke(2, RcOp::Get(3));
    for _ in 0..8 {
        let held = |from: usize, m: &Msg| match m {
            RcMsg::Install { .. } => from == 0,
            RcMsg::Op { .. } => from == 3,
            _ => false,
        };
        net.deliver(|from, _, m| !held(from, m));
        net.fire(2);
    }
    assert_eq!(net.resp(get), Some(&RcResp::GetOk(Some(30))));
    for i in [4, 5] {
        assert_eq!(net.hosts[i].node().current_config().epoch, 1, "node {i}");
        assert!(
            net.hosts[i].node().local_entry(&3).is_some(),
            "node {i} serves"
        );
    }
}

/// Why a reconfiguration is done only once a majority of the *old* members
/// has left the closed epoch: sealed replicas answer a collect again (its
/// coordinator may have died), so an administrator who missed a completed
/// reconfiguration could otherwise seal the same majority a second time and
/// give the epoch a second successor. (The `RcNode` this one replaced did:
/// `ReconfigOk { epoch: 1 }` twice, for {3, 4} and for {2}.)
#[test]
fn a_late_administrator_cannot_give_a_closed_epoch_a_second_successor() {
    let mut net = Net::new(5, &[0, 1, 2]);
    let first = net.invoke(3, RcOp::Reconfig(members(&[3, 4])));
    net.deliver(|_, to, m| to != 2 && !is_announce(m));
    net.lose(|_, _, _| true);
    assert_eq!(net.resp(first), Some(&RcResp::ReconfigOk { epoch: 1 }));
    // Node 2 heard none of it, and reconfigures the epoch it still is in.
    assert_eq!(net.hosts[2].node().current_config().epoch, 0);
    let late = net.invoke(2, RcOp::Reconfig(members(&[2])));
    net.run();
    assert!(matches!(net.resp(late), Some(RcResp::Rejected(_))));
    let successor = Config {
        epoch: 1,
        members: members(&[3, 4]),
    };
    for (i, host) in net.hosts.iter().enumerate() {
        assert_eq!(host.node().current_config(), &successor, "node {i}");
    }
    // It knows better now, and may try again.
    let again = net.invoke(2, RcOp::Reconfig(members(&[2])));
    net.run();
    assert_eq!(net.resp(again), Some(&RcResp::ReconfigOk { epoch: 2 }));
}
