//! Stable non-cryptographic hashing.

/// FNV-1a 64-bit. Unlike `DefaultHasher` it is stable across platforms
/// and Rust versions, so anything derived from it — trial seeds, shard
/// and tenant selection, snapshot checksums — is reproducible everywhere.
/// Not cryptographic: it only needs to spread keys and catch torn or
/// bit-rotted files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Reference values from the FNV-1a specification; pinned so
        // experiment seeds, shard placement and `.snap` checksums never
        // silently change.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"hello"), 0xa430d84680aabd0b);
    }
}
