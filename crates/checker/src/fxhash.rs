//! A small multiplicative hasher in the style of rustc's `FxHasher` for the
//! location vectors and discrete states hashed on every successor, where
//! std's DoS-resistant SipHash costs more than the lookup it serves.  The
//! keys come from the model, and no map hashed with it is iterated, so its
//! order cannot reach a result.

use std::hash::{BuildHasherDefault, Hasher};

/// Folds each word in with a rotate, an xor and a multiply.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    /// Hash tables take the bucket from the low bits, and the product mixes
    /// the high ones best.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for `HashMap`s.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;
