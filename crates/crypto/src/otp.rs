//! One-time-pad generation for counter-mode memory encryption.
//!
//! The OTP for a 64-byte cache line is built from four AES-128 blocks:
//!
//! ```text
//! OTP = En(addr ‖ counter ‖ 0, key) ‖ En(addr ‖ counter ‖ 1, key)
//!     ‖ En(addr ‖ counter ‖ 2, key) ‖ En(addr ‖ counter ‖ 3, key)
//! ```
//!
//! which instantiates the paper's Equation 1 at line granularity. The
//! ciphertext is `OTP ⊕ plaintext` (Eq. 2) and decryption is the same XOR
//! (Eq. 3). Uniqueness of `(addr, counter)` pairs — guaranteed by the
//! global counter — makes the pad one-time.

use crate::aes::Aes128;
use crate::counter::{Counter, LINE_BYTES};

/// Number of AES blocks covering one cache line.
const BLOCKS_PER_LINE: usize = LINE_BYTES / 16;

/// A one-time pad covering a full 64-byte cache line.
pub type LinePad = [u8; LINE_BYTES];

/// Generates the OTP for `(line_addr, counter)` under `cipher`.
///
/// `line_addr` is the data line index (cache-line-granular address). The
/// AES input block encodes the address in bytes 0..8, the counter in bytes
/// 8..15 (low 56 bits; the high byte is folded into byte 14), and the
/// block index within the line in byte 15.
///
/// # Examples
///
/// ```
/// use nvmm_crypto::{aes::Aes128, counter::Counter, otp::line_pad};
/// let aes = Aes128::new(&[7; 16]);
/// let p1 = line_pad(&aes, 42, Counter(1));
/// let p2 = line_pad(&aes, 42, Counter(2));
/// assert_ne!(p1, p2, "bumping the counter must change the pad");
/// assert_eq!(p1, line_pad(&aes, 42, Counter(1)), "pads are deterministic");
/// ```
pub fn line_pad(cipher: &Aes128, line_addr: u64, counter: Counter) -> LinePad {
    let mut pad = [0u8; LINE_BYTES];
    for block in 0..BLOCKS_PER_LINE {
        let mut input = [0u8; 16];
        input[0..8].copy_from_slice(&line_addr.to_le_bytes());
        let ctr = counter.0.to_le_bytes();
        input[8..15].copy_from_slice(&ctr[0..7]);
        input[14] ^= ctr[7];
        input[15] = block as u8;
        let out = cipher.encrypt_block(&input);
        pad[block * 16..(block + 1) * 16].copy_from_slice(&out);
    }
    pad
}

/// XORs a pad into a line, returning the result. Used for both encryption
/// and decryption (Eqs. 2 and 3).
pub fn xor_line(a: &[u8; LINE_BYTES], b: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for i in 0..LINE_BYTES {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher() -> Aes128 {
        Aes128::new(&[0xa5; 16])
    }

    #[test]
    fn pad_depends_on_address() {
        let c = cipher();
        assert_ne!(line_pad(&c, 1, Counter(1)), line_pad(&c, 2, Counter(1)));
    }

    #[test]
    fn pad_depends_on_counter() {
        let c = cipher();
        assert_ne!(line_pad(&c, 1, Counter(1)), line_pad(&c, 1, Counter(2)));
    }

    #[test]
    fn pad_depends_on_key() {
        let a = Aes128::new(&[1; 16]);
        let b = Aes128::new(&[2; 16]);
        assert_ne!(line_pad(&a, 1, Counter(1)), line_pad(&b, 1, Counter(1)));
    }

    #[test]
    fn pad_blocks_are_distinct() {
        // Each 16-byte block of the pad comes from a distinct AES input.
        let p = line_pad(&cipher(), 9, Counter(3));
        for i in 0..BLOCKS_PER_LINE {
            for j in (i + 1)..BLOCKS_PER_LINE {
                assert_ne!(p[i * 16..(i + 1) * 16], p[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn high_counter_bits_affect_pad() {
        let c = cipher();
        assert_ne!(
            line_pad(&c, 1, Counter(1)),
            line_pad(&c, 1, Counter(1 | (1 << 60))),
        );
    }

    #[test]
    fn line_pad_known_answers() {
        // Pinned outputs: a pad is a persisted ciphertext's other half,
        // so any change to the AES kernel or the input-block layout must
        // show up here, not as silently different simulator digests.
        let hex = |pad: LinePad| -> String { pad.iter().map(|b| format!("{b:02x}")).collect() };
        let c = Aes128::new(&[7; 16]);
        assert_eq!(
            hex(line_pad(&c, 42, Counter(1))),
            "2c3de84c02504c3828e0ea0bd79bd4d12e871ac8e942108e6f1e52a4a9a98ee2\
             8b2f8da204b32854477e26f2a9ea07e11a481ac78014d5a0677d0cbbb075e400"
        );
        assert_eq!(
            hex(line_pad(&c, 0x1234_5678_9abc, Counter(1 | (1 << 60)))),
            "66a64d673b2b84fc6702233d553a76d681f37306349b06174966576fb0021cf3\
             7dc35ce04f8b887ee1e07f8019d790b3ac6d5f1ea4a47c7a75b734e0821fe515"
        );
    }

    #[test]
    fn xor_is_involution() {
        let c = cipher();
        let pad = line_pad(&c, 5, Counter(7));
        let data = [0x3cu8; LINE_BYTES];
        assert_eq!(xor_line(&xor_line(&data, &pad), &pad), data);
    }

    proptest! {
        #[test]
        fn encrypt_decrypt_roundtrip(
            addr in 0u64..1_000_000,
            ctr in 1u64..u64::MAX,
            data in proptest::array::uniform32(any::<u8>()),
        ) {
            let c = cipher();
            let mut line = [0u8; LINE_BYTES];
            line[..32].copy_from_slice(&data);
            let pad = line_pad(&c, addr, Counter(ctr));
            let ct = xor_line(&line, &pad);
            prop_assert_eq!(xor_line(&ct, &pad), line);
        }

        #[test]
        fn stale_counter_fails_to_decrypt(
            addr in 0u64..1_000_000,
            ctr in 1u64..u64::MAX - 1,
        ) {
            // The core failure mode of the paper (Eq. 4): decrypting with
            // any counter other than the one used to encrypt yields
            // garbage, not the plaintext.
            let c = cipher();
            let line = [0u8; LINE_BYTES];
            let ct = xor_line(&line, &line_pad(&c, addr, Counter(ctr)));
            let wrong = xor_line(&ct, &line_pad(&c, addr, Counter(ctr + 1)));
            prop_assert_ne!(wrong, line);
        }
    }
}
