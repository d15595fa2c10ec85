//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), built on the in-tree
//! [`Sha256`](crate::sha256).
//!
//! The signature schemes in [`keys`](crate::keys) use HMAC with a secret key
//! per processor as the simulation stand-in for public-key signatures: the
//! registry (the simulator) holds all keys and verifies on behalf of
//! receivers, so a tag constitutes an unforgeable statement "processor `p`
//! said these bytes" — exactly what the paper's authentication model needs.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// A key prepared for tagging: the two SHA-256 states after absorbing the
/// `key ^ ipad` and `key ^ opad` blocks.
///
/// Those two compressions depend on the key alone, so a holder of many
/// messages per key (the [`KeyRegistry`](crate::keys::KeyRegistry)) pays
/// them once; each tag then costs the message plus two finalizations.
#[derive(Clone, Debug)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key`. Keys longer than the SHA-256 block size are hashed
    /// first, per RFC 2104.
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// `HMAC-SHA256(key, message)` for the prepared key.
    pub(crate) fn tag(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
///
/// ```
/// use ba_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).tag(message)
}

/// Constant-shape comparison of two tags.
///
/// The simulation does not face timing attacks, but comparing the whole tag
/// avoids accidentally short-circuiting on truncated inputs.
pub fn tags_equal(a: &[u8; DIGEST_LEN], b: &[u8; DIGEST_LEN]) -> bool {
    let mut diff = 0u8;
    for i in 0..DIGEST_LEN {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn tags_equal_detects_any_flip() {
        let a = hmac_sha256(b"k", b"m");
        assert!(tags_equal(&a, &a.clone()));
        for i in 0..32 {
            let mut b = a;
            b[i] ^= 1;
            assert!(!tags_equal(&a, &b), "flip at byte {i} undetected");
        }
    }

    mod props {
        use super::*;
        use crate::testkit::run_cases;

        #[test]
        fn prop_deterministic() {
            run_cases(48, 0x41, |gen| {
                let key = gen.vec_u8(0, 100);
                let msg = gen.vec_u8(0, 300);
                assert_eq!(hmac_sha256(&key, &msg), hmac_sha256(&key, &msg));
            });
        }

        /// RFC 2104 as written: `H((K ^ opad) || H((K ^ ipad) || m))`
        /// over concatenated buffers, no midstates.
        fn hmac_by_definition(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
            let mut block = [0u8; BLOCK_LEN];
            if key.len() > BLOCK_LEN {
                block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
            } else {
                block[..key.len()].copy_from_slice(key);
            }
            let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
            inner.extend_from_slice(message);
            let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
            outer.extend_from_slice(&Sha256::digest(&inner));
            Sha256::digest(&outer)
        }

        #[test]
        fn prop_prepared_key_matches_definition_across_messages() {
            run_cases(48, 0x43, |gen| {
                // Keys on both sides of the hash-it-first threshold.
                let key = gen.vec_u8(0, 2 * BLOCK_LEN);
                let prepared = HmacKey::new(&key);
                for _ in 0..3 {
                    let msg = gen.vec_u8(0, 300);
                    let expected = hmac_by_definition(&key, &msg);
                    assert_eq!(prepared.tag(&msg), expected);
                    assert_eq!(hmac_sha256(&key, &msg), expected);
                }
            });
        }

        #[test]
        fn prop_message_tamper_detected() {
            run_cases(48, 0x42, |gen| {
                let key = gen.vec_u8(1, 64);
                let msg = gen.vec_u8(1, 128);
                let idx = gen.usize();
                let mut tampered = msg.clone();
                let i = idx % tampered.len();
                tampered[i] ^= 0x01;
                assert_ne!(hmac_sha256(&key, &msg), hmac_sha256(&key, &tampered));
            });
        }
    }
}
