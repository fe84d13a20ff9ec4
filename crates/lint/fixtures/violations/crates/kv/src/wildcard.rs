//! Fixture: `wildcard-msg-match` positive (never compiled).

impl Protocol for Node {
    fn on_message(&mut self, from: ProcessId, msg: Msg, fx: &mut Effects) {
        match msg {
            Msg::Query { uid } => {
                // A nested wildcard over non-message state is fine.
                match self.pending.get(&uid) {
                    Some(p) => fx.send(from, p.reply()),
                    _ => {}
                }
            }
            Msg::Update { uid, value } => self.adopt(uid, value),
            _ => {}
        }
    }
}

impl Protocol for Liar {
    fn on_message(&mut self, from: ProcessId, msg: Msg, fx: &mut Effects) {
        match msg {
            // A guarded arm names its variant; the guard covers nothing.
            Msg::Query { uid } if self.lying => fx.send(from, self.lie(uid)),
            Msg::Relay { .. } | _ => {}
        }
    }
}

impl Protocol for Shell {
    fn on_message(&mut self, from: ProcessId, msg: Msg, fx: &mut Effects) {
        match msg {
            Msg::Query { uid } => self.serve(from, uid, fx),
            other => self.inner.on_message(from, other, fx),
        }
    }
}
