//! A from-scratch software implementation of the AES-128 block cipher
//! (FIPS-197).
//!
//! The encrypted-NVMM designs in this workspace use AES-128 as the
//! pseudo-random function behind counter-mode memory encryption: each
//! one-time pad (OTP) block is `AES(key, address ‖ counter ‖ block)`.
//! Only the forward (encryption) direction is needed — counter mode never
//! runs the inverse cipher — but the inverse is provided for completeness
//! and for validating the implementation round-trip.
//!
//! Encryption is table-driven: four 256-entry `u32` T-tables fold
//! SubBytes, ShiftRows and MixColumns into one lookup per state byte per
//! round, and the last round (no MixColumns) reads the S-box. The
//! S-box and the T-tables are computed at compile time from the
//! GF(2^8) arithmetic below rather than embedded as literal tables. The
//! inverse cipher stays byte-wise: only validation runs it.
//!
//! Nothing here is constant-time: the tables are indexed by secret state
//! bytes. Neither is the byte-wise cipher the tests hold the tables to
//! (a secret-indexed S-box and a field multiply that branches on its
//! operands). Nothing here needs to be: the simulator computes real pads
//! so a stale counter really garbles, and simulated encryption latency
//! is a *timing model parameter* (see `nvmm_sim::config`), not the
//! wall-clock cost of this code.
//!
//! # Examples
//!
//! ```
//! use nvmm_crypto::aes::Aes128;
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let block = [0u8; 16];
//! let ct = aes.encrypt_block(&block);
//! assert_eq!(aes.decrypt_block(&ct), block);
//! ```

/// Number of 32-bit words in an AES-128 key.
const NK: usize = 4;
/// Number of rounds for AES-128.
const NR: usize = 10;
/// Number of 32-bit words in the state.
const NB: usize = 4;

/// The AES S-box, computed at compile time from the finite-field inverse
/// and affine transform.
static SBOX: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = if i == 0 { 0 } else { gf_inv(i as u8) };
        table[i] = affine(inv);
        i += 1;
    }
    table
};

/// The inverse AES S-box.
static INV_SBOX: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The encryption T-tables. `TE[r][x]` is the state column that byte `x`
/// in row `r` contributes after SubBytes and MixColumns: `TE[0][x]` is
/// `(2·S[x], S[x], S[x], 3·S[x])` (row 0 in the high byte), and each
/// further row rotates it one byte right, following the columns of the
/// MixColumns matrix.
static TE: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let col = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
        t[0][i] = col;
        t[1][i] = col.rotate_right(8);
        t[2][i] = col.rotate_right(16);
        t[3][i] = col.rotate_right(24);
        i += 1;
    }
    t
};

/// Multiply two elements of GF(2^8) with the AES reduction polynomial
/// x^8 + x^4 + x^3 + x + 1 (0x11b).
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// Multiplicative inverse in GF(2^8) via exponentiation (a^254).
const fn gf_inv(a: u8) -> u8 {
    // a^254 = a^(2+4+8+16+32+64+128)
    let a2 = gf_mul(a, a);
    let a4 = gf_mul(a2, a2);
    let a8 = gf_mul(a4, a4);
    let a16 = gf_mul(a8, a8);
    let a32 = gf_mul(a16, a16);
    let a64 = gf_mul(a32, a32);
    let a128 = gf_mul(a64, a64);
    let mut r = gf_mul(a128, a64);
    r = gf_mul(r, a32);
    r = gf_mul(r, a16);
    r = gf_mul(r, a8);
    r = gf_mul(r, a4);
    r = gf_mul(r, a2);
    r
}

/// The AES affine transformation applied after the field inverse.
const fn affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

fn rot_word(w: u32) -> u32 {
    w.rotate_left(8)
}

/// Round constants for the key schedule: rcon\[i\] = x^i in GF(2^8).
fn rcon(i: usize) -> u32 {
    let mut c: u8 = 1;
    for _ in 1..i {
        c = gf_mul(c, 2);
    }
    (c as u32) << 24
}

/// An expanded AES-128 key ready for block encryption and decryption.
///
/// Construction performs the full key schedule once; encrypting a block is
/// then allocation-free.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; NB * (NR + 1)],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the full AES-128 key schedule.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvmm_crypto::aes::Aes128;
    /// let aes = Aes128::new(&[0x2b; 16]);
    /// let _ = aes.encrypt_block(&[0; 16]);
    /// ```
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; NB * (NR + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in NK..w.len() {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp = sub_word(rot_word(temp)) ^ rcon(i / NK);
            }
            w[i] = w[i - NK] ^ temp;
        }
        Self { round_keys: w }
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for c in 0..NB {
            let k = self.round_keys[round * NB + c].to_be_bytes();
            for r in 0..4 {
                state[4 * c + r] ^= k[r];
            }
        }
    }

    /// Encrypts a single 16-byte block.
    ///
    /// The state is held as four big-endian column words. Each of the
    /// nine full rounds computes a new column as the XOR of four T-table
    /// lookups — one per row, taken from the column ShiftRows moves into
    /// place — and the round key; the final round substitutes through
    /// the S-box instead, since it has no MixColumns.
    pub fn encrypt_block(&self, input: &[u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let mut s: [u32; NB] = std::array::from_fn(|c| {
            u32::from_be_bytes([
                input[4 * c],
                input[4 * c + 1],
                input[4 * c + 2],
                input[4 * c + 3],
            ]) ^ rk[c]
        });
        for round in 1..NR {
            let k = &rk[round * NB..(round + 1) * NB];
            s = [
                te_column(s[0], s[1], s[2], s[3]) ^ k[0],
                te_column(s[1], s[2], s[3], s[0]) ^ k[1],
                te_column(s[2], s[3], s[0], s[1]) ^ k[2],
                te_column(s[3], s[0], s[1], s[2]) ^ k[3],
            ];
        }
        let k = &rk[NR * NB..];
        let mut out = [0u8; 16];
        for c in 0..NB {
            let col = [
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % NB] >> 16) as u8 as usize],
                SBOX[(s[(c + 2) % NB] >> 8) as u8 as usize],
                SBOX[s[(c + 3) % NB] as u8 as usize],
            ];
            out[4 * c..4 * c + 4].copy_from_slice(&(u32::from_be_bytes(col) ^ k[c]).to_be_bytes());
        }
        out
    }

    /// Decrypts a single 16-byte block (the inverse cipher).
    ///
    /// Counter-mode decryption does not need this — the same OTP XOR both
    /// encrypts and decrypts — but it is provided for validation.
    pub fn decrypt_block(&self, input: &[u8; 16]) -> [u8; 16] {
        let mut state = *input;
        self.add_round_key(&mut state, NR);
        for round in (1..NR).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            self.add_round_key(&mut state, round);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        self.add_round_key(&mut state, 0);
        state
    }
}

/// One full-round output column from the columns holding its row-0..3
/// inputs after ShiftRows: SubBytes and MixColumns by table lookup.
#[inline(always)]
fn te_column(c0: u32, c1: u32, c2: u32, c3: u32) -> u32 {
    TE[0][(c0 >> 24) as usize]
        ^ TE[1][(c1 >> 16) as u8 as usize]
        ^ TE[2][(c2 >> 8) as u8 as usize]
        ^ TE[3][c3 as u8 as usize]
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State layout of the byte-wise rounds: `state[4*c + r]` is row `r`,
/// column `c` (column-major, as in FIPS-197).
fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let mut row = [0u8; 4];
        for c in 0..4 {
            row[(c + r) % 4] = state[4 * c + r];
        }
        for c in 0..4 {
            state[4 * c + r] = row[c];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        state[4 * c + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        state[4 * c + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        state[4 * c + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-wise cipher the T-tables replaced: SubBytes, ShiftRows,
    /// MixColumns (a field multiply per byte) and AddRoundKey as
    /// separate passes over the state. Kept as the reference
    /// `encrypt_block` is held to.
    fn encrypt_block_bytewise(aes: &Aes128, input: &[u8; 16]) -> [u8; 16] {
        let mut state = *input;
        aes.add_round_key(&mut state, 0);
        for round in 1..NR {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            aes.add_round_key(&mut state, round);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        aes.add_round_key(&mut state, NR);
        state
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    #[test]
    fn sbox_known_entries() {
        // Spot values from FIPS-197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn t_tables_are_sub_bytes_then_mix_columns() {
        // Column 0 of MixColumns is (2, 1, 1, 3); each table row rotates
        // it, so every entry is the S-box output times that column.
        for x in 0..=255u8 {
            let s = SBOX[x as usize];
            let col = [gf_mul(s, 2), s, s, gf_mul(s, 3)];
            for (r, table) in TE.iter().enumerate() {
                let mut expect = col;
                expect.rotate_right(r);
                assert_eq!(
                    table[x as usize].to_be_bytes(),
                    expect,
                    "row {r}, x = {x:#x}"
                );
            }
        }
    }

    #[test]
    fn gf_mul_examples() {
        // {57} . {83} = {c1} from FIPS-197 §4.2.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn gf_inv_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a:#x}");
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B worked example.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plain), expect);
        assert_eq!(aes.decrypt_block(&expect), plain);
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1 (AES-128) known-answer test.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plain), expect);
        assert_eq!(aes.decrypt_block(&expect), plain);
    }

    #[test]
    fn key_schedule_first_words_match_fips() {
        // First expanded words for the Appendix A.1 key.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys[4], 0xa0fafe17);
        assert_eq!(aes.round_keys[5], 0x88542cb1);
        assert_eq!(aes.round_keys[43], 0xb6630ca6);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let key: [u8; 16] = rng.gen();
            let block: [u8; 16] = rng.gen();
            let aes = Aes128::new(&key);
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        assert_ne!(a.encrypt_block(&[0; 16]), b.encrypt_block(&[0; 16]));
    }

    #[test]
    fn debug_redacts_key() {
        let aes = Aes128::new(&[0x42; 16]);
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("42"));
    }

    #[test]
    fn fips197_vectors_hold_for_the_bytewise_reference() {
        // The reference is itself pinned to FIPS-197 Appendix C.1, so the
        // proptest below compares against a known-good cipher.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(encrypt_block_bytewise(&Aes128::new(&key), &plain), expect);
    }

    proptest! {
        #[test]
        fn table_cipher_matches_bytewise_reference(
            bytes in proptest::array::uniform32(any::<u8>()),
        ) {
            let key: [u8; 16] = core::array::from_fn(|i| bytes[i]);
            let block: [u8; 16] = core::array::from_fn(|i| bytes[16 + i]);
            let aes = Aes128::new(&key);
            prop_assert_eq!(aes.encrypt_block(&block), encrypt_block_bytewise(&aes, &block));
        }
    }
}
