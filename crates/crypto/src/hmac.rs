//! HMAC-MD5 message authentication codes.
//!
//! The thesis authenticates almost every message with UMAC32 tags computed
//! under pairwise session keys (§6.1). UMAC's role in the system is "a fast
//! symmetric MAC producing a small tag"; we reproduce that role with HMAC
//! (RFC 2104) over our [`crate::md5`] implementation, truncated to 8 bytes
//! like the 64-bit UMAC32 tags in the thesis's message formats (Figure 6-1).

use crate::md5::{Digest, Md5};

/// Length in bytes of a truncated MAC tag (matches the thesis's 64-bit tags).
pub const TAG_LEN: usize = 8;

/// A symmetric session key (128 bits, like the thesis's SFS-negotiated keys).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionKey(pub [u8; 16]);

impl SessionKey {
    /// Derives a deterministic key from a u64 seed (test/simulation helper).
    pub fn from_seed(seed: u64) -> Self {
        let d = crate::md5::digest_parts(&[b"session-key", &seed.to_le_bytes()]);
        SessionKey(d.0)
    }

    /// A key of all zeroes, used before key exchange establishes real keys.
    pub fn zero() -> Self {
        SessionKey([0u8; 16])
    }
}

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SessionKey(..)")
    }
}

/// A truncated MAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tag(pub [u8; TAG_LEN]);

impl std::fmt::Debug for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tag({:02x}{:02x}..)", self.0[0], self.0[1])
    }
}

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Cached per-key HMAC midstates: the MD5 states after absorbing the
/// ipad- and opad-xored key block. Those blocks are a pure function of
/// the key, yet the straightforward implementation re-hashed both on
/// every MAC — half the compress calls of a short-message MAC, which is
/// exactly the normal-case workload (64-byte headers under pairwise
/// session keys). The cache is thread-local (the simulator is
/// single-threaded per run) and keyed by raw key bytes; entries are tiny
/// (32 bytes) and the key population — pairwise session keys plus
/// refreshes — is bounded over a run, so it is never evicted.
struct PadStates {
    inner: [u32; 4],
    outer: [u32; 4],
}

fn pad_states(key: &SessionKey) -> PadStates {
    let mut k_block = [0u8; BLOCK_LEN];
    k_block[..16].copy_from_slice(&key.0);
    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = k_block[i] ^ IPAD;
        opad[i] = k_block[i] ^ OPAD;
    }
    let mut inner = Md5::new();
    inner.update(&ipad);
    let mut outer = Md5::new();
    outer.update(&opad);
    PadStates {
        inner: inner.midstate(),
        outer: outer.midstate(),
    }
}

thread_local! {
    static PAD_CACHE: std::cell::RefCell<std::collections::HashMap<[u8; 16], PadStates>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Computes the full (untruncated) HMAC-MD5 of `data` under `key`.
pub fn hmac(key: &SessionKey, data: &[u8]) -> Digest {
    hmac_parts(key, &[data])
}

/// Hard cap on cached keys. The pairwise key population of one run is a
/// few hundred even with recovery-driven refreshes; the cap only exists
/// so a process that churns through many simulations (test runners,
/// long-lived fuzzing) cannot leak an entry per key forever. Clearing is
/// invisible to callers: midstates are recomputed on the next MAC.
const PAD_CACHE_MAX: usize = 16 * 1024;

/// Computes HMAC-MD5 over the concatenation of `parts` under `key`.
pub fn hmac_parts(key: &SessionKey, parts: &[&[u8]]) -> Digest {
    PAD_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= PAD_CACHE_MAX {
            cache.clear();
        }
        let pads = cache.entry(key.0).or_insert_with(|| pad_states(key));
        let mut inner = Md5::from_midstate(pads.inner, BLOCK_LEN as u64);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finish();
        let mut outer = Md5::from_midstate(pads.outer, BLOCK_LEN as u64);
        outer.update(inner_digest.as_bytes());
        outer.finish()
    })
}

/// Computes a truncated 8-byte MAC tag for `data` under `key`.
pub fn mac(key: &SessionKey, data: &[u8]) -> Tag {
    truncate(hmac(key, data))
}

/// Computes a truncated tag over concatenated `parts`.
pub fn mac_parts(key: &SessionKey, parts: &[&[u8]]) -> Tag {
    truncate(hmac_parts(key, parts))
}

/// Verifies a truncated tag in constant-ish time.
pub fn verify(key: &SessionKey, data: &[u8], tag: &Tag) -> bool {
    verify_parts(key, &[data], tag)
}

/// Verifies a truncated tag over concatenated `parts`.
pub fn verify_parts(key: &SessionKey, parts: &[&[u8]], tag: &Tag) -> bool {
    let expect = mac_parts(key, parts);
    // Branch-free comparison; timing side channels are out of scope for the
    // reproduction but this matches how a real implementation compares tags.
    let mut diff = 0u8;
    for (a, b) in expect.0.iter().zip(tag.0.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

fn truncate(d: Digest) -> Tag {
    let mut t = [0u8; TAG_LEN];
    t.copy_from_slice(&d.0[..TAG_LEN]);
    Tag(t)
}

/// An owned, `Send` HMAC context for one key: the ipad/opad midstates
/// precomputed once at construction.
///
/// The thread-local `PAD_CACHE` serves the single-threaded protocol
/// loop well, but a MAC worker pool wants per-key state it can build
/// once, own outright, and use without a hash-map probe per MAC — each
/// pool worker holds one context per peer key. Tags are bit-identical
/// to [`mac_parts`] under the same key.
#[derive(Clone)]
pub struct MacContext {
    inner: [u32; 4],
    outer: [u32; 4],
}

impl MacContext {
    /// Precomputes the pad midstates for `key`.
    pub fn new(key: &SessionKey) -> Self {
        let pads = pad_states(key);
        MacContext {
            inner: pads.inner,
            outer: pads.outer,
        }
    }

    /// Full HMAC-MD5 over the concatenation of `parts`.
    pub fn hmac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Md5::from_midstate(self.inner, BLOCK_LEN as u64);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finish();
        let mut outer = Md5::from_midstate(self.outer, BLOCK_LEN as u64);
        outer.update(inner_digest.as_bytes());
        outer.finish()
    }

    /// Truncated tag over the concatenation of `parts`.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Tag {
        truncate(self.hmac_parts(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 2202 HMAC-MD5 test vectors.
    #[test]
    fn rfc2202_vectors() {
        let key1 = SessionKey([0x0b; 16]);
        assert_eq!(
            hmac(&key1, b"Hi There").to_hex(),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );

        // Case 2 uses the 4-byte key "Jefe"; pad to our fixed 16-byte key by
        // zero-extension, which equals HMAC's own zero padding of short keys.
        let mut k2 = [0u8; 16];
        k2[..4].copy_from_slice(b"Jefe");
        assert_eq!(
            hmac(&SessionKey(k2), b"what do ya want for nothing?").to_hex(),
            "750c783e6ab0b503eaa86e310a5db738"
        );

        let key3 = SessionKey([0xaa; 16]);
        assert_eq!(
            hmac(&key3, &[0xdd; 50]).to_hex(),
            "56be34521d144c88dbb8c733f0e8b3f6"
        );
    }

    #[test]
    fn tag_verifies_and_rejects() {
        let key = SessionKey::from_seed(7);
        let tag = mac(&key, b"pre-prepare header");
        assert!(verify(&key, b"pre-prepare header", &tag));
        assert!(!verify(&key, b"pre-prepare headeR", &tag));
        assert!(!verify(
            &SessionKey::from_seed(8),
            b"pre-prepare header",
            &tag
        ));
        let mut corrupted = tag;
        corrupted.0[0] ^= 1;
        assert!(!verify(&key, b"pre-prepare header", &corrupted));
    }

    #[test]
    fn parts_equal_concat() {
        let key = SessionKey::from_seed(3);
        assert_eq!(mac_parts(&key, &[b"ab", b"cd"]), mac(&key, b"abcd"));
        assert!(verify_parts(&key, &[b"ab", b"cd"], &mac(&key, b"abcd")));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let t1 = mac(&SessionKey::from_seed(1), b"m");
        let t2 = mac(&SessionKey::from_seed(2), b"m");
        assert_ne!(t1, t2);
    }

    #[test]
    fn key_debug_redacts() {
        assert_eq!(format!("{:?}", SessionKey::from_seed(1)), "SessionKey(..)");
    }

    #[test]
    fn mac_context_matches_free_functions() {
        let key = SessionKey::from_seed(11);
        let ctx = MacContext::new(&key);
        assert_eq!(
            ctx.mac_parts(&[b"nonce", b"header"]),
            mac_parts(&key, &[b"nonce", b"header"])
        );
        assert_eq!(ctx.hmac_parts(&[b"abcd"]), hmac(&key, b"abcd"));
        // Contexts are key-bound: a different key's context disagrees.
        let other = MacContext::new(&SessionKey::from_seed(12));
        assert_ne!(ctx.mac_parts(&[b"m"]), other.mac_parts(&[b"m"]));
    }

    #[test]
    fn mac_context_is_send() {
        fn assert_send<T: Send + Sync>() {}
        assert_send::<MacContext>();
    }
}
