//! Typed blocking clients for the replicated key-value store, and the
//! adapter that turns the store into the shared-memory register array the
//! `abd-shmem` algorithms run on.

use crate::cluster::{Client, Cluster, Jitter};
use abd_core::types::ProcessId;
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_shmem::array::RegisterArray;
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Duration;

/// Spawns an `n`-node replicated key-value cluster on OS threads.
///
/// # Examples
///
/// ```
/// use abd_runtime::client::{spawn_kv_cluster, KvStoreClient};
/// use abd_runtime::cluster::Jitter;
///
/// let cluster = spawn_kv_cluster::<String, u64>(3, Jitter::None);
/// let kv = KvStoreClient::new(cluster.client(0));
/// kv.put("answer".to_string(), 42);
/// assert_eq!(kv.get("answer".to_string()), Some(42));
/// ```
pub fn spawn_kv_cluster<K, V>(n: usize, jitter: Jitter) -> Cluster<KvNode<K, V>>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    Cluster::spawn(
        (0..n)
            .map(|i| KvNode::new(KvConfig::new(n, ProcessId(i))))
            .collect(),
        jitter,
    )
}

/// A typed, blocking client for one node of a key-value cluster.
#[derive(Clone, Debug)]
pub struct KvStoreClient<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    inner: Client<KvNode<K, V>>,
}

impl<K, V> KvStoreClient<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    /// Wraps a raw cluster client.
    pub fn new(inner: Client<KvNode<K, V>>) -> Self {
        KvStoreClient { inner }
    }

    /// The node this client talks to.
    pub fn node(&self) -> ProcessId {
        self.inner.node()
    }

    /// Linearizable read of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the operation cannot complete (no quorum for 60s).
    pub fn get(&self, key: K) -> Option<V> {
        match self.inner.invoke(KvOp::Get(key)) {
            KvResp::GetOk(v) => v,
            other => unreachable!("get returned {other:?}"),
        }
    }

    /// Linearizable write of `value` under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the operation cannot complete (no quorum for 60s).
    pub fn put(&self, key: K, value: V) {
        match self.inner.invoke(KvOp::Put(key, value)) {
            KvResp::PutOk => {}
            other => unreachable!("put returned {other:?}"),
        }
    }

    /// `get` with a timeout; `None` result on timeout is indistinguishable
    /// from an absent key, so this is for liveness probes, not reads.
    pub fn try_get_for(&self, key: K, timeout: Duration) -> Option<Option<V>> {
        match self.inner.try_invoke_for(KvOp::Get(key), timeout) {
            Some(KvResp::GetOk(v)) => Some(v),
            Some(other) => unreachable!("get returned {other:?}"),
            None => None,
        }
    }

    /// `put` with a timeout. Returns `false` on timeout (the put may still
    /// take effect later).
    pub fn try_put_for(&self, key: K, value: V, timeout: Duration) -> bool {
        matches!(
            self.inner.try_invoke_for(KvOp::Put(key, value), timeout),
            Some(KvResp::PutOk)
        )
    }

    /// The underlying untyped client.
    pub fn raw(&self) -> &Client<KvNode<K, V>> {
        &self.inner
    }
}

/// The bridge that makes the paper's thesis executable: an
/// [`abd_shmem::array::RegisterArray`] whose registers are keys of the
/// replicated store — so every `abd-shmem` algorithm transparently runs on
/// an asynchronous, crash-prone message-passing system.
///
/// Register `i` is key `i as u64`. A register that was never written reads
/// as the `initial` value supplied at construction.
#[derive(Clone, Debug)]
pub struct KvRegisterArray<V>
where
    V: Clone + Debug + Send + 'static,
{
    client: KvStoreClient<u64, V>,
    len: usize,
    initial: V,
}

impl<V> KvRegisterArray<V>
where
    V: Clone + Debug + Send + 'static,
{
    /// Views keys `0..len` of the store as registers initialized to
    /// `initial`.
    pub fn new(client: KvStoreClient<u64, V>, len: usize, initial: V) -> Self {
        KvRegisterArray {
            client,
            len,
            initial,
        }
    }
}

impl<V> RegisterArray<V> for KvRegisterArray<V>
where
    V: Clone + Debug + Send + 'static,
{
    fn len(&self) -> usize {
        self.len
    }

    fn read(&mut self, i: usize) -> V {
        assert!(i < self.len, "register index {i} out of range");
        self.client
            .get(i as u64)
            .unwrap_or_else(|| self.initial.clone())
    }

    fn write(&mut self, i: usize, v: V) {
        assert!(i < self.len, "register index {i} out of range");
        self.client.put(i as u64, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abd_shmem::counter::Counter;
    use abd_shmem::maxreg::MaxRegister;
    use abd_shmem::snapshot::{Segment, SnapshotObject};

    #[test]
    fn kv_client_round_trip() {
        let cluster = spawn_kv_cluster::<String, String>(3, Jitter::None);
        let kv = KvStoreClient::new(cluster.client(1));
        assert_eq!(kv.get("missing".into()), None);
        kv.put("k".into(), "v".into());
        assert_eq!(kv.get("k".into()), Some("v".into()));
        // A different node sees the same data.
        let kv2 = KvStoreClient::new(cluster.client(2));
        assert_eq!(kv2.get("k".into()), Some("v".into()));
    }

    #[test]
    fn shmem_counter_over_message_passing() {
        // THE demo: a shared-memory counter, unchanged, running on a
        // 3-replica message-passing cluster.
        let cluster = spawn_kv_cluster::<u64, u64>(3, Jitter::None);
        let n_procs = 3;
        let mut joins = Vec::new();
        for p in 0..n_procs {
            let arr = KvRegisterArray::new(KvStoreClient::new(cluster.client(p)), n_procs, 0u64);
            joins.push(std::thread::spawn(move || {
                let mut c = Counter::new(p, arr);
                for _ in 0..10 {
                    c.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let arr = KvRegisterArray::new(KvStoreClient::new(cluster.client(0)), n_procs, 0u64);
        let mut c = Counter::new(0, arr);
        assert_eq!(c.value(), 30);
    }

    #[test]
    fn shmem_snapshot_over_message_passing_with_crash() {
        let cluster = spawn_kv_cluster::<u64, Segment<u64>>(5, Jitter::None);
        // A minority crash must not affect the algorithm at all.
        cluster.crash(4);
        let n_procs = 2;
        let mk = |node: usize| {
            KvRegisterArray::new(
                KvStoreClient::new(cluster.client(node)),
                n_procs,
                Segment::initial(n_procs, 0u64),
            )
        };
        let mut p0 = SnapshotObject::new(0, mk(0));
        let mut p1 = SnapshotObject::new(1, mk(1));
        p0.update(11);
        p1.update(22);
        assert_eq!(p0.scan(), vec![11, 22]);
        p0.update(33);
        assert_eq!(p1.scan(), vec![33, 22]);
    }

    #[test]
    fn shmem_maxreg_over_message_passing() {
        let cluster = spawn_kv_cluster::<u64, u64>(3, Jitter::None);
        let mk =
            |node: usize| KvRegisterArray::new(KvStoreClient::new(cluster.client(node)), 3, 0u64);
        let mut a = MaxRegister::new(0, mk(0));
        let mut b = MaxRegister::new(1, mk(1));
        a.write_max(100);
        b.write_max(50);
        assert_eq!(b.read(), 100);
    }

    #[test]
    fn restarted_node_answers_its_first_get_while_its_walk_is_still_running() {
        use abd_core::types::Tag;
        // One millisecond per hop: a get is two round trips (~4.5 ms), the
        // reboot's walk over 256 all-divergent buckets nine (>= 18 ms).
        const HOP: u64 = 1_000_000;
        let nodes: Vec<KvNode<u32, u64>> = (0..3)
            .map(|i| {
                let cfg = KvConfig::new(3, ProcessId(i)).with_sync_buckets(256);
                let mut node = KvNode::new(cfg);
                for k in 0..2_000u32 {
                    node.preload(k, Tag::new(1, ProcessId(0)), 1);
                    // Node 2 is 2 000 keys behind the other two.
                    if i < 2 {
                        node.preload(k, Tag::new(2, ProcessId(1)), 2);
                    }
                }
                node
            })
            .collect();
        let cluster = Cluster::spawn(nodes, Jitter::Uniform { lo: HOP, hi: HOP });
        cluster.crash(2);
        KvStoreClient::new(cluster.client(0)).put(7, 3);
        cluster.restart(2);
        let (got, start, end) = cluster.client(2).invoke_timed(KvOp::Get(7));
        assert_eq!(got, KvResp::GetOk(Some(3)), "the last acknowledged put");
        assert!(
            end - start < 15 * HOP,
            "the get waited for the catch-up: {} us",
            (end - start) / 1_000
        );
    }

    #[test]
    fn timeout_probe_on_healthy_cluster() {
        let cluster = spawn_kv_cluster::<String, u64>(3, Jitter::None);
        let kv = KvStoreClient::new(cluster.client(0));
        assert!(kv.try_put_for("k".into(), 1, Duration::from_secs(5)));
        assert_eq!(
            kv.try_get_for("k".into(), Duration::from_secs(5)),
            Some(Some(1))
        );
    }
}
