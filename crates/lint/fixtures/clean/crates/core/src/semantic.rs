//! Fixture: the `phase-graph` happy path (never compiled).
//!
//! Declares a phase spec the handlers actually implement.

// abd-lint: phase-spec(semantic-good): Invoke -> Write, Write -> Done

pub fn on_invoke(&mut self, op: OpId) {
    self.pending = Some(Pending::Write { op });
}

pub fn on_message(&mut self, from: ProcessId, msg: WireMsg, fx: &mut Fx) {
    match msg {
        WireMsg::Update { uid } => {
            self.replica.adopt(uid, uid);
            fx.send(from, WireMsg::UpdateAck { uid });
        }
        WireMsg::UpdateAck { uid } => {
            if let Some(Pending::Write { op }) = self.pending.take() {
                fx.respond(op, uid);
            }
        }
    }
}
