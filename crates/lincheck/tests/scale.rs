//! The search is near-linear in the history: one campaign's worth of
//! operations on one key is decided in one call. `ci.sh` runs this file in
//! release mode under a timeout, so a checker that went super-linear again
//! shows as a hang there, not as a flaky timing assert here; the state caps
//! below catch a lost pruning rule deterministically.

use abd_lincheck::history::{History, RegAction};
use abd_lincheck::wg::{check_linearizable_with_limit, CheckResult};

/// Five sequential clients, about five operations in flight at any instant:
/// operation `i` is centred at tick `1000 + 100 i` and reaches up to 240
/// ticks either side. Client 0 writes `i + 1`, the others read the latest
/// write — the shape of the benchmark's `synthetic_history`. `stale`
/// makes that one operation (a read) return a value ten operations — two
/// completed writes — old.
fn five_client_history(len: u64, stale: Option<u64>) -> History<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut h = History::new(0);
    let mut current = 0;
    for i in 0..len {
        let at = 1_000 + 100 * i;
        let (start, end) = (at - below(240), at + below(240));
        let client = (i % 5) as usize;
        if client == 0 {
            current = i + 1;
            h.push(client, RegAction::Write(current), start, end);
        } else if stale == Some(i) {
            h.push(client, RegAction::Read(current - 10), start, end);
        } else {
            h.push(client, RegAction::Read(current), start, end);
        }
    }
    h
}

#[test]
fn a_campaign_on_one_key_is_decided_in_one_call() {
    const LEN: u64 = 40_000;
    let limit = 2 * LEN as usize;
    let h = five_client_history(LEN, None);
    assert!(h.validate_sequential_clients().is_ok());
    assert_eq!(
        check_linearizable_with_limit(&h, limit),
        CheckResult::Linearizable
    );
    // Convicting means exhausting every state short of the stale read.
    let planted = five_client_history(LEN, Some(LEN * 3 / 4 + 1));
    assert_eq!(
        check_linearizable_with_limit(&planted, limit),
        CheckResult::NotLinearizable
    );
}

#[test]
fn dangling_pending_writes_do_not_widen_the_search() {
    const LEN: u64 = 2_000;
    let limit = 2 * LEN as usize;
    for (stale, verdict) in [
        (None, CheckResult::Linearizable),
        (Some(LEN * 3 / 4 + 1), CheckResult::NotLinearizable),
    ] {
        let mut h = five_client_history(LEN, stale);
        // 64 crashed writers spread over the run; nobody reads what they
        // wrote, so no state has to try them.
        for k in 0..64 {
            h.push_pending_write(100 + k as usize, 1_000_000 + k, 1_000 + 3_000 * k);
        }
        assert_eq!(check_linearizable_with_limit(&h, limit), verdict);
    }
}

#[test]
fn an_observed_pending_write_is_found_among_dangling_ones() {
    // Ten crashed writers at tick 0, then sequential reads that return
    // their values in reverse order, then one value a second time: each
    // pending write is taken exactly when a read asks for it, and never
    // twice.
    let mut h = History::new(0u64);
    for k in 0..10 {
        h.push_pending_write(10 + k as usize, 100 + k, 0);
    }
    for k in 0..10 {
        h.push(0, RegAction::Read(109 - k), 10 + 10 * k, 15 + 10 * k);
    }
    assert_eq!(
        check_linearizable_with_limit(&h, 100),
        CheckResult::Linearizable
    );
    h.push(0, RegAction::Read(109), 200, 205);
    assert_eq!(
        check_linearizable_with_limit(&h, 100),
        CheckResult::NotLinearizable
    );
}
