//! Content hashing for the session cache.
//!
//! A unit id is the 64-bit hash of its input text, mixed with the input
//! *kind* (mini source vs raw edge list) so the same bytes registered
//! both ways never collide into one cache slot. The mix is the same
//! SplitMix64 finalizer the rest of the repo uses for seeded generators
//! and trace ids: each 8-byte chunk of input is absorbed with a
//! multiply-xor fold and the state is finished through the SplitMix64
//! permutation. This is *not* a cryptographic hash — it keys a cache in
//! a trusted process, and a collision only costs a wrong cache hit for
//! an adversarially crafted input pair.

/// The SplitMix64 finalizer (same constants as `pst_obs::journal`).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes `bytes` under a domain-separating `kind` tag.
pub fn content_hash(kind: u64, bytes: &[u8]) -> u64 {
    let mut state = splitmix64(kind ^ 0x5045_5354_5345_5256); // "PEST SERV"-ish salt
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = splitmix64(state ^ u64::from_le_bytes(word));
    }
    // Absorb the length so `"a"` and `"a\0"` (same padded word) differ.
    splitmix64(state ^ bytes.len() as u64)
}

/// Renders a unit id the way the wire protocol spells it: 16 lowercase
/// hex digits, the same shape as journal trace ids.
pub fn unit_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a wire unit id back into the cache key.
pub fn parse_unit_hex(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_kind_separated() {
        let a = content_hash(0, b"fn f(n) { return n; }");
        assert_eq!(a, content_hash(0, b"fn f(n) { return n; }"));
        assert_ne!(a, content_hash(1, b"fn f(n) { return n; }"));
        assert_ne!(a, content_hash(0, b"fn f(n) { return n;  }"));
    }

    #[test]
    fn length_breaks_padding_collisions() {
        assert_ne!(content_hash(0, b"a"), content_hash(0, b"a\0"));
        assert_ne!(content_hash(0, b""), content_hash(0, b"\0"));
    }

    #[test]
    fn unit_hex_round_trips() {
        let h = content_hash(0, b"round trip");
        assert_eq!(parse_unit_hex(&unit_hex(h)), Some(h));
        assert_eq!(parse_unit_hex("nope"), None);
        assert_eq!(parse_unit_hex("123"), None);
        assert_eq!(parse_unit_hex("zzzzzzzzzzzzzzzz"), None);
    }
}
