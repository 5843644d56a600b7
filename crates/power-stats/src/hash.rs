//! FNV-1a, the workspace's one cheap, stable 64-bit hash. Grid tags seed
//! campaign probes, store keys name archive entries and fingerprints
//! bind journals to campaigns, so its bits must never change.

/// FNV-1a of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a: successive writes hash their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds `v` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds the bit pattern of `v` as 8 little-endian bytes.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds `s` prefixed by its byte length, so adjacent strings cannot
    /// run into each other (`"ab" + "c"` hashes apart from `"a" + "bc"`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write_f64(1.5);
        let bytes = [&b"foo"[..], &1.5f64.to_bits().to_le_bytes()].concat();
        assert_eq!(h.finish(), fnv1a(&bytes));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let split = |a: &str, b: &str| {
            let mut h = Fnv1a::default();
            h.write_str(a);
            h.write_str(b);
            h.finish()
        };
        assert_ne!(split("ab", "c"), split("a", "bc"));
        let mut h = Fnv1a::default();
        h.write_str("ab");
        let bytes = [&2u64.to_le_bytes()[..], b"ab"].concat();
        assert_eq!(h.finish(), fnv1a(&bytes));
    }
}
