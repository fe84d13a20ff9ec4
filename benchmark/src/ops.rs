//! The load generator's side of the seam: every operation any workload
//! issues comes from a xorshift stream seeded by `--seed`, and the program
//! under test receives only the generated operations.

use abd_core::context::Protocol;
use abd_kv::{KvOp, KvResp};

/// Any protocol that speaks the store's client interface over `u64` keys and
/// values — `KvNode` itself, or a wrapper around it — and can be hosted on a
/// thread.
pub trait KvProtocol: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>> + Send + 'static {}
impl<P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>> + Send + 'static> KvProtocol for P {}

/// The un-gated tail metrics of a workload's untraced window: name, whether
/// it is over puts, and the percentile it aims for.
pub const CLIENT_TAILS: [(&str, bool, f64); 4] = [
    ("runtime.client.get_p99_us", false, 99.0),
    ("runtime.client.put_p99_us", true, 99.0),
    ("runtime.client.get_p999_us", false, 99.9),
    ("runtime.client.put_p999_us", true, 99.9),
];

/// Value every preloaded key starts with; distinct from any written value
/// (those carry a non-zero client id in their top bits).
pub fn preload_value(key: u64) -> u64 {
    key
}

/// xorshift64* — small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // splitmix64 of the seed, so neighbouring seeds give unrelated
        // streams and seed 0 does not stick at the all-zero fixed point.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound` (the modulo bias is below 2^-40 for the bounds
    /// used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Derives the seed of an independent sub-stream (a client, a campaign).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    XorShift::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// An endless get/put stream for one closed-loop client: uniform keys in
/// `0..keys`, `put_pct` percent puts, each put carrying a value unique in
/// the run (`client + 1` in the top 16 bits, a counter below).
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: XorShift,
    keys: u64,
    put_pct: u64,
    client: u64,
    writes: u64,
}

impl OpStream {
    pub fn new(seed: u64, client: usize, keys: u64, put_pct: u64) -> Self {
        assert!(keys > 0 && put_pct <= 100);
        OpStream {
            rng: XorShift::new(sub_seed(seed, client as u64 + 1)),
            keys,
            put_pct,
            client: client as u64,
            writes: 0,
        }
    }

    /// The next write id of this client.
    pub fn next_value(&mut self) -> u64 {
        self.writes += 1;
        ((self.client + 1) << 48) | self.writes
    }

    pub fn next_key(&mut self) -> u64 {
        self.rng.below(self.keys)
    }
}

impl Iterator for OpStream {
    type Item = KvOp<u64, u64>;

    fn next(&mut self) -> Option<Self::Item> {
        let is_put = self.rng.below(100) < self.put_pct;
        let key = self.next_key();
        Some(if is_put {
            let v = self.next_value();
            KvOp::Put(key, v)
        } else {
            KvOp::Get(key)
        })
    }
}

/// FNV-1a over the first `count` operations of a stream — what the tests
/// (and a suspicious reader) compare to see that a seed fixes the inputs.
pub fn stream_hash(stream: OpStream, count: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in stream.take(count) {
        match op {
            KvOp::Get(k) => {
                eat(0);
                eat(k);
            }
            KvOp::Put(k, v) => {
                eat(1);
                eat(k);
                eat(v);
            }
            KvOp::GetAt(..) => unreachable!("the generator issues plain gets"),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = stream_hash(OpStream::new(7, 0, 4096, 5), 10_000);
        let b = stream_hash(OpStream::new(7, 0, 4096, 5), 10_000);
        let c = stream_hash(OpStream::new(8, 0, 4096, 5), 10_000);
        let d = stream_hash(OpStream::new(7, 1, 4096, 5), 10_000);
        assert_eq!(a, b, "a seed must fix the op stream");
        assert_ne!(a, c, "another seed must give another stream");
        assert_ne!(a, d, "clients of one run draw from different streams");
    }

    #[test]
    fn mix_and_key_range_follow_the_shape() {
        let ops: Vec<_> = OpStream::new(1, 0, 8, 50).take(20_000).collect();
        let puts = ops.iter().filter(|o| matches!(o, KvOp::Put(..))).count();
        assert!((9_000..11_000).contains(&puts), "50% puts, got {puts}");
        assert!(ops.iter().all(|o| match o {
            KvOp::Get(k) | KvOp::Put(k, _) | KvOp::GetAt(k, _) => *k < 8,
        }));
        // Written values never repeat and never collide with a preload.
        let mut vals: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                KvOp::Put(_, v) => Some(*v),
                _ => None,
            })
            .collect();
        let n = vals.len();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), n);
        assert!(vals.iter().all(|v| *v >= 1 << 48));
    }
}
