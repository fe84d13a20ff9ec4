//! Fixture: a message variant falls through the cracks (never compiled).
//!
//! No wildcard arm (that would trip `wildcard-msg-match` instead), just a
//! `match msg` that silently fails to mention one declared variant.

pub enum KvWire {
    Get { uid: u64 },
    Put { uid: u64 },
    SyncPull { uid: u64 },
}

pub fn on_message(&mut self, from: ProcessId, msg: KvWire, fx: &mut Fx) {
    match msg {
        KvWire::Get { uid } => self.serve(from, uid, fx),
        KvWire::Put { uid } => self.store(from, uid, fx),
        // KvWire::SyncPull is declared but unhandled: flagged
    }
}
