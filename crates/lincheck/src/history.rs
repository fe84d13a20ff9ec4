//! Operation histories of read/write registers.
//!
//! A *history* records, for each completed client operation, its kind
//! (write of a value, or read returning a value) and the real-time interval
//! `[start, end]` between invocation and response. Whether such a history is
//! **atomic** (linearizable against the sequential register) is exactly the
//! correctness property the paper's emulation guarantees — so the checkers
//! in this crate are how the reproduction *measures* correctness instead of
//! assuming it.
//!
//! Crashed clients leave *pending* writes: invoked operations that never
//! responded. A pending write may or may not have taken effect, so the
//! checker treats it as optional (it may be linearized anywhere after its
//! invocation, or dropped entirely).

use std::fmt;

/// One completed operation as it appears in a history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegAction<V> {
    /// A write of `V` that completed.
    Write(V),
    /// A read that returned `V`.
    Read(V),
}

/// A completed operation with its real-time interval.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompletedOp<V> {
    /// The client (process) that issued the operation.
    pub client: usize,
    /// What the operation did.
    pub action: RegAction<V>,
    /// Invocation time.
    pub start: u64,
    /// Response time (`>= start`).
    pub end: u64,
}

/// A register history: completed operations plus optional pending writes.
///
/// # Examples
///
/// ```
/// use abd_lincheck::history::{History, RegAction};
///
/// let mut h = History::new(0u32);
/// h.push(0, RegAction::Write(1), 0, 10);
/// h.push(1, RegAction::Read(1), 20, 30);
/// assert_eq!(h.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct History<V> {
    initial: V,
    ops: Vec<CompletedOp<V>>,
    /// Writes that were invoked but never completed (client crashed or the
    /// run was cut off); each may or may not have taken effect.
    pending_writes: Vec<(usize, V, u64)>,
}

impl<V> History<V> {
    /// Creates an empty history over a register whose initial value is
    /// `initial`.
    pub fn new(initial: V) -> Self {
        History {
            initial,
            ops: Vec::new(),
            pending_writes: Vec::new(),
        }
    }

    /// The register's initial value.
    pub fn initial(&self) -> &V {
        &self.initial
    }

    /// Appends a completed operation.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn push(&mut self, client: usize, action: RegAction<V>, start: u64, end: u64) {
        assert!(end >= start, "operation ends before it starts");
        self.ops.push(CompletedOp {
            client,
            action,
            start,
            end,
        });
    }

    /// Records a write that was invoked at `start` but never completed.
    pub fn push_pending_write(&mut self, client: usize, value: V, start: u64) {
        self.pending_writes.push((client, value, start));
    }

    /// The completed operations, in insertion order.
    pub fn ops(&self) -> &[CompletedOp<V>] {
        &self.ops
    }

    /// The pending writes `(client, value, start)`.
    pub fn pending_writes(&self) -> &[(usize, V, u64)] {
        &self.pending_writes
    }

    /// Number of completed operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history has no completed operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over completed operations.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, CompletedOp<V>> {
        self.ops.iter()
    }

    /// Checks basic well-formedness: per-client operations do not overlap
    /// (each client is a sequential thread of control).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_sequential_clients(&self) -> Result<(), String> {
        let mut by_client: std::collections::BTreeMap<usize, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for op in &self.ops {
            by_client
                .entry(op.client)
                .or_default()
                .push((op.start, op.end));
        }
        for (client, mut ivs) in by_client {
            ivs.sort_unstable();
            for w in ivs.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(format!(
                        "client {client} has overlapping operations [{}, {}] and [{}, {}]",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
        }
        Ok(())
    }
}

impl<'a, V> IntoIterator for &'a History<V> {
    type Item = &'a CompletedOp<V>;
    type IntoIter = std::slice::Iter<'a, CompletedOp<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl<V: fmt::Display> fmt::Display for History<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "history (initial = {}):", self.initial)?;
        for op in &self.ops {
            let (kind, v) = match &op.action {
                RegAction::Write(v) => ("W", v),
                RegAction::Read(v) => ("R", v),
            };
            writeln!(
                f,
                "  c{} {}({v}) [{}, {}]",
                op.client, kind, op.start, op.end
            )?;
        }
        for (c, v, s) in &self.pending_writes {
            writeln!(f, "  c{c} W({v}) [{s}, ∞) (pending)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_iterate() {
        let mut h = History::new(0);
        h.push(0, RegAction::Write(1), 0, 5);
        h.push(1, RegAction::Read(1), 6, 9);
        h.push_pending_write(2, 3, 7);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert_eq!(h.pending_writes(), &[(2, 3, 7)]);
        assert_eq!(h.iter().count(), 2);
        assert_eq!((&h).into_iter().count(), 2);
        assert_eq!(*h.initial(), 0);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn rejects_backwards_interval() {
        let mut h = History::new(0);
        h.push(0, RegAction::Write(1), 10, 5);
    }

    #[test]
    fn sequential_client_validation() {
        let mut h = History::new(0);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(0, RegAction::Read(1), 10, 20); // touching is allowed
        assert!(h.validate_sequential_clients().is_ok());
        h.push(0, RegAction::Read(1), 15, 25); // overlaps previous
        assert!(h.validate_sequential_clients().is_err());
    }

    #[test]
    fn display_renders_all_ops() {
        let mut h = History::new(0);
        h.push(0, RegAction::Write(1), 0, 5);
        h.push_pending_write(1, 2, 3);
        let s = h.to_string();
        assert!(s.contains("W(1)"));
        assert!(s.contains("pending"));
    }
}
