//! Stamped values and the read checker.
//!
//! Every value the benchmark writes is a pure function of `(key, seq)`:
//! the first 16 bytes are the key and the write's sequence number
//! (little-endian), the rest a filler derived from both. The oracle
//! keeps, per key, the sequence number and version of the highest
//! acknowledged write. The load generators never keep two operations
//! on one key in flight, so a linearizable store must answer every get
//! with exactly that version and those bytes.

use ring_kvs::{Key, MemgestId, Version};

/// splitmix64 finalizer: the benchmark's one mixing function.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value written by the put with sequence number `seq` to `key`.
pub fn stamped_value(key: Key, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(16));
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut w = mix64(key ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
    while out.len() < len {
        out.extend_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    out.truncate(len.max(16));
    out
}

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Sequence number of the highest acknowledged write (0 = none).
    seq: u64,
    /// Its version.
    version: Version,
    /// The memgest the key currently lives in.
    memgest: MemgestId,
    /// An operation on the key is in flight.
    busy: bool,
    /// A write whose outcome is unknown (it failed or timed out): the
    /// next read may see it or the previous value.
    unknown: Option<u64>,
}

/// Per-key expected state plus the tally of wrong reads.
#[derive(Debug)]
pub struct Oracle {
    keys: Vec<KeyState>,
    value_len: usize,
    next_seq: u64,
    /// Reads whose bytes or version disagreed with the oracle.
    pub wrong: u64,
    /// The first disagreement, for the report.
    pub first_wrong: Option<String>,
}

impl Oracle {
    /// An oracle for keys `0..keys` holding `value_len`-byte values.
    pub fn new(keys: u64, value_len: usize) -> Oracle {
        Oracle {
            keys: vec![KeyState::default(); keys as usize],
            value_len,
            next_seq: 1,
            wrong: 0,
            first_wrong: None,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    /// True when the oracle tracks no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Value length in bytes.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Reserves the sequence number of a new write.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Whether an operation on `key` is in flight.
    pub fn busy(&self, key: Key) -> bool {
        self.keys[key as usize].busy
    }

    /// Marks `key` in flight (or idle again).
    pub fn set_busy(&mut self, key: Key, busy: bool) {
        self.keys[key as usize].busy = busy;
    }

    /// The memgest `key` currently lives in.
    pub fn memgest(&self, key: Key) -> MemgestId {
        self.keys[key as usize].memgest
    }

    /// Sets the memgest a key is preloaded into.
    pub fn place(&mut self, key: Key, memgest: MemgestId) {
        self.keys[key as usize].memgest = memgest;
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(what);
        }
    }

    /// A put of write `seq` was acknowledged at `version`.
    pub fn put_ok(&mut self, key: Key, seq: u64, version: Version) {
        let st = self.keys[key as usize];
        if st.unknown.is_none() && st.seq != 0 && version <= st.version {
            self.wrong(format!(
                "key {key}: put acknowledged version {version} <= previous {}",
                st.version
            ));
        }
        let st = &mut self.keys[key as usize];
        st.seq = seq;
        st.version = version;
        st.unknown = None;
    }

    /// A move to `dst` was acknowledged at `version` (same bytes).
    pub fn move_ok(&mut self, key: Key, dst: MemgestId, version: Version) {
        let st = self.keys[key as usize];
        if st.unknown.is_none() && version <= st.version {
            self.wrong(format!(
                "key {key}: move acknowledged version {version} <= previous {}",
                st.version
            ));
        }
        let st = &mut self.keys[key as usize];
        st.version = version;
        st.memgest = dst;
    }

    /// A write failed: its effect is unknown until the next read.
    pub fn write_failed(&mut self, key: Key, seq: Option<u64>) {
        let st = &mut self.keys[key as usize];
        st.unknown = Some(seq.unwrap_or(st.seq));
    }

    /// Checks a get answer against the expected state.
    pub fn check_get(&mut self, key: Key, bytes: &[u8], version: Version) {
        let st = self.keys[key as usize];
        if let Some(alt) = st.unknown {
            // Accept either outcome of the unknown write, then adopt it.
            let seq = [st.seq, alt]
                .into_iter()
                .find(|&s| bytes == stamped_value(key, s, self.value_len).as_slice());
            match seq {
                Some(s) if version >= st.version => {
                    let m = &mut self.keys[key as usize];
                    m.seq = s;
                    m.version = version;
                    m.unknown = None;
                }
                _ => self.wrong(format!(
                    "key {key}: read version {version} matches neither write {} nor {alt}",
                    st.seq
                )),
            }
            return;
        }
        if version != st.version {
            self.wrong(format!(
                "key {key}: read version {version}, last acknowledged {}",
                st.version
            ));
        } else if bytes != stamped_value(key, st.seq, self.value_len).as_slice() {
            let got = if bytes.len() >= 16 {
                u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"))
            } else {
                0
            };
            self.wrong(format!(
                "key {key} v{version}: bytes of write {got} ({} B), expected write {}",
                bytes.len(),
                st.seq
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_distinct_and_sized() {
        let a = stamped_value(7, 1, 128);
        let b = stamped_value(7, 2, 128);
        assert_eq!(a.len(), 128);
        assert_ne!(a, b);
        assert_eq!(&a[..8], &7u64.to_le_bytes());
        assert_eq!(stamped_value(3, 9, 4096).len(), 4096);
    }

    #[test]
    fn oracle_flags_stale_and_foreign_reads() {
        let mut o = Oracle::new(4, 64);
        let s1 = o.next_seq();
        o.put_ok(1, s1, 10);
        o.check_get(1, &stamped_value(1, s1, 64), 10);
        assert_eq!(o.wrong, 0);
        let s2 = o.next_seq();
        o.put_ok(1, s2, 11);
        o.check_get(1, &stamped_value(1, s1, 64), 10); // stale version
        o.check_get(1, &stamped_value(1, s1, 64), 11); // old bytes
        assert_eq!(o.wrong, 2);
        o.move_ok(1, 2, 12);
        o.check_get(1, &stamped_value(1, s2, 64), 12);
        assert_eq!(o.wrong, 2);
    }

    #[test]
    fn unknown_write_accepts_either_outcome() {
        let mut o = Oracle::new(2, 32);
        let s1 = o.next_seq();
        o.put_ok(0, s1, 5);
        let s2 = o.next_seq();
        o.write_failed(0, Some(s2));
        o.check_get(0, &stamped_value(0, s2, 32), 6);
        assert_eq!(o.wrong, 0);
        o.check_get(0, &stamped_value(0, s2, 32), 6);
        assert_eq!(o.wrong, 0);
    }
}
