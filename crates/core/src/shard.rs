//! Deterministic cell-to-shard assignment for multi-process campaigns.
//!
//! A shard spec `i/N` (0-based) assigns every memoized cell to exactly
//! one of `N` shards by hashing its full content key — the same key that
//! names its [`DiskCache`](crate::DiskCache) memo file — so the
//! partition is stable across processes, runs and machines, and
//! re-keying a cell (config/window change) re-shards only that cell.
//!
//! Ownership is a *claim preference*, not a hard partition: every worker
//! still runs the full battery, but a worker reaching a cell it does not
//! own first waits a grace period (`MICROLIB_STEAL_GRACE_MS`) for the
//! owner's result to land in the shared cache, and only then claims the
//! cell itself. That keeps the partition effective when all owners are
//! healthy and guarantees progress when one is not — a dead shard's
//! cells are simply (re)computed by whoever needs them next, which is
//! what makes the coordinator's crash recovery work.

use microlib_model::codec::fnv1a;

/// A `index/count` shard assignment (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's shard, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Parses `"i/N"` with `0 <= i < N`.
    ///
    /// # Errors
    ///
    /// Describes the malformed spec.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let err = || format!("shard spec {spec:?} is not \"i/N\" with 0 <= i < N");
        let (index, count) = spec.split_once('/').ok_or_else(err)?;
        let index: u32 = index.trim().parse().map_err(|_| err())?;
        let count: u32 = count.trim().parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this shard owns the cell with content key `key`.
    pub fn owns(&self, key: &str) -> bool {
        // FNV-1a's low bits correlate across the structured, mostly-
        // shared key strings of one battery; finalize (splitmix64-style)
        // so the modulo sees well-mixed bits and shards stay balanced.
        let mut h = fnv1a(key.as_bytes());
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h % u64::from(self.count) == u64::from(self.index)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_and_rejects_garbage() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse("3/4").unwrap(),
            ShardSpec { index: 3, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse("0/1").unwrap(),
            ShardSpec { index: 0, count: 1 }
        );
        assert!(ShardSpec::parse("1/1").is_err());
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("a/4").is_err());
        assert!(ShardSpec::parse("2").is_err());
        assert!(ShardSpec::parse("-1/4").is_err());
        assert_eq!(ShardSpec::parse("2/8").unwrap().to_string(), "2/8");
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let shards: Vec<ShardSpec> = (0..4).map(|index| ShardSpec { index, count: 4 }).collect();
        let mut per_shard = [0usize; 4];
        for i in 0..1000 {
            let key = format!("benchmark-{i}|mech|window=2000+{i}");
            let owners: Vec<u32> = shards
                .iter()
                .filter(|s| s.owns(&key))
                .map(|s| s.index)
                .collect();
            assert_eq!(owners.len(), 1, "exactly one owner for {key}");
            per_shard[owners[0] as usize] += 1;
        }
        for (i, n) in per_shard.iter().enumerate() {
            assert!(
                (150..=350).contains(n),
                "shard {i} owns {n}/1000 keys — badly unbalanced"
            );
        }
    }

    #[test]
    fn assignment_is_stable() {
        let s = ShardSpec { index: 1, count: 3 };
        let key = "swim|Ghb|seed=0xc0ffee|window=2000+2000";
        assert_eq!(s.owns(key), s.owns(key));
    }
}
