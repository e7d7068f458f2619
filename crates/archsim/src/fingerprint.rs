//! The 128-bit content hasher behind the engine's process-wide memo keys.

/// Incremental 128-bit FNV-1a hasher fed 64-bit words (little-endian).
pub(crate) struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    pub(crate) fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    pub(crate) fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    pub(crate) fn finish(&self) -> u128 {
        self.0
    }
}
