//! Fixture: `panic-in-handler` positives (never compiled).

pub fn on_message(&mut self, from: ProcessId, msg: Msg) {
    let v = self.pending.get(&msg.uid).unwrap();
    let w = self.table.remove(&from).expect("sender known");
    if v != w {
        panic!("inconsistent state");
    }
}

pub fn on_timer(&mut self, key: TimerKey) {
    // The aborting macros that do not spell `panic`: same crash.
    match self.pending.remove(&key.0) {
        Some(Pending::Query { .. }) => unreachable!(),
        Some(Pending::Update { .. }) => unimplemented!("update retry"),
        None => todo!(),
    }
}

pub fn fire_due(&mut self, now: Nanos) {
    // A host method that runs callbacks is on the message path too.
    let due = self.timers.values().next().expect("a timer is armed");
}

pub fn node_main(rx: Receiver<Msg>) {
    // Outside a flagged call shape: unwrap_or / expect_err are fine.
    let _a = rx.try_recv().unwrap_or_default();
}

pub fn helper() {
    // Not a handler: unwrap here is outside the rule's scope.
    let _ = std::env::var("X").unwrap();
}
