//! Fixture: a protocol file that forgot to declare its phase graph
//! (never compiled). This path is on the REQUIRED_SPECS list, so the
//! missing declaration itself is flagged.

pub fn on_invoke(&mut self, op: OpId, fx: &mut Fx) {
    self.pending = Some(Pending::Query { op });
}
