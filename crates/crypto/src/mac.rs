//! Per-line message authentication codes (MACs) for integrity-verified
//! NVMM.
//!
//! Deployed secure-NVMM designs pair counter-mode encryption with
//! integrity verification: every data line carries a MAC bound to its
//! address, its encryption counter, and its ciphertext, so a stale or
//! tampered line is *detected* rather than silently decrypted to
//! garbage. MACs are themselves persistent metadata — they are packed
//! eight to a 64-byte MAC line (the same 8-to-1 packing the counter
//! region uses) and written through the memory controller's metadata
//! path, which is exactly the extra persist traffic whose crash
//! ordering `nvmm_sim::integrity` models.
//!
//! The MAC itself is a truncated CBC-MAC over AES-128 under a key
//! derived from the memory-encryption key. As with the rest of this
//! crate, the construction is real (changing any input changes the
//! tag) while its latency is a timing-model parameter in `nvmm-sim`.
//!
//! # Examples
//!
//! ```
//! use nvmm_crypto::mac::MacEngine;
//! use nvmm_crypto::Counter;
//!
//! let engine = MacEngine::new(*b"an aes-128 key!!");
//! let line = [7u8; 64];
//! let tag = engine.line_mac(0x40, Counter(3), &line);
//! // Bound to the counter: a stale counter fails verification.
//! assert_ne!(tag, engine.line_mac(0x40, Counter(2), &line));
//! ```

use crate::aes::Aes128;
use crate::counter::{counter_slot_for, data_line_for, Counter, CounterSlot, LINE_BYTES};
use fxhash::FxHashMap;
use std::sync::{Arc, Mutex};

/// Size of one stored (truncated) MAC in bytes.
pub const MAC_BYTES: usize = 8;

/// Number of MACs packed into one 64-byte MAC line.
pub const MACS_PER_LINE: usize = LINE_BYTES / MAC_BYTES;

/// Domain-separation tweak XORed into the encryption key to derive the
/// MAC key, so the MAC cipher is never the OTP cipher.
const MAC_KEY_TWEAK: [u8; 16] = *b"nvmm-mac-domain!";

/// A truncated per-line MAC as stored in the MAC region.
///
/// `Mac::ZERO` is reserved to mean "never written" — [`MacEngine`]
/// never emits it for real data, mirroring [`Counter::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mac(pub u64);

impl Mac {
    /// The never-written MAC value.
    pub const ZERO: Mac = Mac(0);

    /// Returns `true` if this MAC slot has never been written.
    pub fn is_unwritten(self) -> bool {
        self.0 == 0
    }

    /// The little-endian on-NVMM encoding of this MAC.
    pub fn to_bytes(self) -> [u8; MAC_BYTES] {
        self.0.to_le_bytes()
    }

    /// Decodes a MAC from its on-NVMM encoding.
    pub fn from_bytes(bytes: [u8; MAC_BYTES]) -> Self {
        Mac(u64::from_le_bytes(bytes))
    }
}

impl std::fmt::Display for Mac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mac#{:016x}", self.0)
    }
}

/// Identifies which MAC line holds a data line's MAC and the slot within
/// that line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacSlot {
    /// Index of the MAC line in the MAC region (0-based).
    pub mac_line: u64,
    /// Slot within the MAC line, `0..MACS_PER_LINE`.
    pub slot: usize,
}

/// Maps a data line index to the MAC line and slot that store its MAC.
///
/// The packing is identical to the counter region's (eight metadata
/// entries per 64-byte line), so this delegates to
/// [`counter_slot_for`] and inherits its bijectivity.
pub fn mac_slot_for(data_line: u64) -> MacSlot {
    let CounterSlot { counter_line, slot } = counter_slot_for(data_line);
    MacSlot {
        mac_line: counter_line,
        slot,
    }
}

/// Inverse of [`mac_slot_for`].
pub fn data_line_for_mac(slot: MacSlot) -> u64 {
    data_line_for(CounterSlot {
        counter_line: slot.mac_line,
        slot: slot.slot,
    })
}

/// A 64-byte line of eight packed MACs, as stored in the metadata cache
/// and in the NVMM MAC region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacLine {
    macs: [Mac; MACS_PER_LINE],
}

impl MacLine {
    /// A MAC line in which every slot is unwritten.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the MAC in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MACS_PER_LINE`.
    pub fn get(&self, slot: usize) -> Mac {
        self.macs[slot]
    }

    /// Replaces the MAC in `slot`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MACS_PER_LINE`.
    pub fn set(&mut self, slot: usize, mac: Mac) -> Mac {
        std::mem::replace(&mut self.macs[slot], mac)
    }

    /// Serializes the whole line to its 64-byte NVMM representation.
    pub fn to_bytes(&self) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, m) in self.macs.iter().enumerate() {
            out[i * MAC_BYTES..(i + 1) * MAC_BYTES].copy_from_slice(&m.to_bytes());
        }
        out
    }

    /// Deserializes a line from its 64-byte NVMM representation.
    pub fn from_bytes(bytes: &[u8; LINE_BYTES]) -> Self {
        let mut line = Self::new();
        for i in 0..MACS_PER_LINE {
            let mut b = [0u8; MAC_BYTES];
            b.copy_from_slice(&bytes[i * MAC_BYTES..(i + 1) * MAC_BYTES]);
            line.macs[i] = Mac::from_bytes(b);
        }
        line
    }

    /// Iterates over `(slot, mac)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Mac)> + '_ {
        self.macs.iter().copied().enumerate()
    }
}

/// Shared tag memo: `(addr, counter, hash64(data))` → tag.
type MacMemo = Arc<Mutex<FxHashMap<(u64, u64, u64), Mac>>>;

/// The keyed per-line MAC function: truncated CBC-MAC over AES-128.
///
/// The tag binds the data line's *address*, its *encryption counter*,
/// and its *ciphertext*: the first CBC block is `address ‖ counter`,
/// followed by the four 16-byte ciphertext blocks, and the tag is the
/// first eight bytes of the final CBC state. Binding the counter is
/// what makes the MAC useful to the crash-consistency oracle — a line
/// whose counter and ciphertext persisted out of sync fails
/// verification even when each half individually looks plausible.
#[derive(Debug, Clone)]
pub struct MacEngine {
    cipher: Aes128,
    /// Memo of computed tags keyed by `(addr, counter, hash64(data))`.
    ///
    /// The crash model checker authenticates hundreds of candidate
    /// images whose lines mostly coincide — within one crash set a
    /// `(line, counter)` pair identifies a single write and hence a
    /// single ciphertext — so each distinct line's 5-block CBC-MAC is
    /// computed once and replayed from the memo thereafter. The data
    /// hash keeps the memo honest even if a caller presents different
    /// bytes under a reused counter. Clones share the memo (`Arc`), so
    /// a warmed engine keeps its tags across the images it verifies.
    macs: MacMemo,
}

impl MacEngine {
    /// Creates a MAC engine whose key is derived from the memory
    /// encryption key by a fixed domain-separation tweak.
    pub fn new(key: [u8; 16]) -> Self {
        let mut mac_key = key;
        for (k, t) in mac_key.iter_mut().zip(MAC_KEY_TWEAK.iter()) {
            *k ^= t;
        }
        Self {
            cipher: Aes128::new(&mac_key),
            macs: Arc::new(Mutex::new(FxHashMap::default())),
        }
    }

    /// Computes the MAC of one 64-byte line.
    ///
    /// `addr` is the data line's byte address, `counter` the encryption
    /// counter the stored ciphertext was produced with, and `data` the
    /// stored (cipher)text. Never returns [`Mac::ZERO`], which stays
    /// reserved for "never written".
    pub fn line_mac(&self, addr: u64, counter: Counter, data: &[u8; LINE_BYTES]) -> Mac {
        let memo_key = (addr, counter.0, fxhash::hash64(data));
        let mut macs = self.macs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&tag) = macs.get(&memo_key) {
            return tag;
        }
        let tag = self.line_mac_uncached(addr, counter, data);
        macs.insert(memo_key, tag);
        tag
    }

    /// Computes the MAC of one 64-byte line like [`MacEngine::line_mac`],
    /// without consulting or filling the memo.
    ///
    /// For callers whose `(addr, counter)` pairs never repeat — the
    /// controller's writer tags each write-back under a fresh counter —
    /// the memo could only grow, and its data hash and lock would be
    /// pure overhead.
    pub fn line_mac_uncached(&self, addr: u64, counter: Counter, data: &[u8; LINE_BYTES]) -> Mac {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&addr.to_le_bytes());
        block[8..].copy_from_slice(&counter.to_bytes());
        let mut state = self.cipher.encrypt_block(&block);
        for chunk in data.chunks_exact(16) {
            for (s, c) in state.iter_mut().zip(chunk.iter()) {
                *s ^= c;
            }
            state = self.cipher.encrypt_block(&state);
        }
        let mut tag = [0u8; MAC_BYTES];
        tag.copy_from_slice(&state[..MAC_BYTES]);
        match u64::from_le_bytes(tag) {
            // Keep Mac::ZERO reserved; the remap costs one value of the
            // 2^64 tag space.
            0 => Mac(1),
            t => Mac(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> MacEngine {
        MacEngine::new(*b"nvmm-sim aes key")
    }

    #[test]
    fn mac_memo_is_transparent_and_shared_across_clones() {
        let e = engine();
        let line = [0x5au8; LINE_BYTES];
        let tag = e.line_mac(0x80, Counter(9), &line);
        assert_eq!(tag, e.line_mac_uncached(0x80, Counter(9), &line));
        // A clone shares the memo and still distinguishes inputs.
        let clone = e.clone();
        assert_eq!(clone.line_mac(0x80, Counter(9), &line), tag);
        assert_ne!(clone.line_mac(0x80, Counter(10), &line), tag);
        let mut other = line;
        other[0] ^= 1;
        assert_ne!(clone.line_mac(0x80, Counter(9), &other), tag);
    }

    #[test]
    fn mac_known_answer() {
        // Pinned tag: MACs are persisted in the MAC region and feed the
        // integrity tree's digests, so the AES kernel must not move them.
        let tag = engine().line_mac(0x1000, Counter(7), &[0xa5u8; LINE_BYTES]);
        assert_eq!(tag, Mac(0xe5a5_40fe_46a3_df7c));
        assert_eq!(
            engine().line_mac_uncached(0x1000, Counter(7), &[0xa5u8; LINE_BYTES]),
            tag
        );
    }

    #[test]
    fn mac_is_deterministic() {
        let e = engine();
        let data = [0xa5u8; LINE_BYTES];
        assert_eq!(
            e.line_mac(0x1000, Counter(7), &data),
            e.line_mac(0x1000, Counter(7), &data)
        );
    }

    #[test]
    fn mac_binds_address_counter_and_data() {
        let e = engine();
        let data = [0xa5u8; LINE_BYTES];
        let mut other = data;
        other[63] ^= 1;
        let tag = e.line_mac(0x1000, Counter(7), &data);
        assert_ne!(tag, e.line_mac(0x1040, Counter(7), &data), "address");
        assert_ne!(tag, e.line_mac(0x1000, Counter(8), &data), "counter");
        assert_ne!(tag, e.line_mac(0x1000, Counter(7), &other), "data");
    }

    #[test]
    fn mac_key_differs_from_encryption_key() {
        // Domain separation: the MAC of a zero line under the zero
        // counter must not equal raw AES of the same bytes under the
        // memory key.
        let key = *b"nvmm-sim aes key";
        let e = MacEngine::new(key);
        let raw = Aes128::new(&key);
        let tag = e.line_mac(0, Counter::ZERO, &[0u8; LINE_BYTES]);
        let mut aes_out = [0u8; 8];
        aes_out.copy_from_slice(&raw.encrypt_block(&[0u8; 16])[..8]);
        assert_ne!(tag.0, u64::from_le_bytes(aes_out));
    }

    #[test]
    fn zero_mac_is_unwritten() {
        assert!(Mac::ZERO.is_unwritten());
        assert!(!Mac(1).is_unwritten());
    }

    #[test]
    fn mac_byte_roundtrip() {
        let m = Mac(0xfeed_face_dead_beef);
        assert_eq!(Mac::from_bytes(m.to_bytes()), m);
    }

    #[test]
    fn mac_line_set_returns_previous() {
        let mut line = MacLine::new();
        assert_eq!(line.set(2, Mac(5)), Mac::ZERO);
        assert_eq!(line.set(2, Mac(9)), Mac(5));
        assert_eq!(line.get(2), Mac(9));
    }

    proptest! {
        #[test]
        fn mac_slot_mapping_bijective(data_line in 0u64..1_000_000) {
            let slot = mac_slot_for(data_line);
            prop_assert!(slot.slot < MACS_PER_LINE);
            prop_assert_eq!(data_line_for_mac(slot), data_line);
        }

        #[test]
        fn mac_line_bytes_roundtrip(vals in proptest::array::uniform8(0u64..u64::MAX)) {
            let mut line = MacLine::new();
            for (i, v) in vals.iter().enumerate() {
                line.set(i, Mac(*v));
            }
            prop_assert_eq!(MacLine::from_bytes(&line.to_bytes()), line);
        }

        #[test]
        fn mac_never_emits_reserved_zero(addr in 0u64..u64::MAX, ctr in 0u64..u64::MAX) {
            let e = engine();
            let data = [addr as u8; LINE_BYTES];
            prop_assert!(!e.line_mac(addr, Counter(ctr), &data).is_unwritten());
        }
    }
}
