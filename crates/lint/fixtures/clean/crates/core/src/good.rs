//! Fixture: a file every rule accepts (never compiled).
//!
//! Mentions of HashMap, Instant, `/ 2` and `_ =>` in comments or strings —
//! like this one — must not fire: rules scan the cleaned source.

use std::collections::BTreeMap;

pub fn on_message(&mut self, from: ProcessId, msg: Msg, fx: &mut Effects) {
    match msg {
        Msg::Query { uid } => {
            let Some(p) = self.pending.get(&uid) else { return };
            fx.send(from, p.reply());
        }
        Msg::Update { uid, value } => {
            let banner = "HashMap Instant n / 2 _ =>";
            self.adopt(uid, value, banner);
        }
    }
}

pub fn on_timer(&mut self, key: TimerKey, fx: &mut Effects) {
    // Taking the phase out is the only step that could "not happen": an
    // `if let` makes that a no-op where `else { unreachable!() }` made it a
    // crash. (The word in this comment, or as a plain name, is no macro.)
    if self.quorum.is_read_quorum(&self.responders) {
        if let Some(Pending::Query { op, .. }) = self.pending.remove(&key.0) {
            let unreachable = self.todo;
            fx.respond(op, unreachable);
        }
    }
}

pub fn thresholds(n: usize) -> usize {
    abd_core::quorum::majority_threshold(n)
}

pub fn store() -> BTreeMap<u64, u64> {
    BTreeMap::new()
}
