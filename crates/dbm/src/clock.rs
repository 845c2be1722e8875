//! Clock indices.

use std::fmt;

/// Index of a clock in a DBM.
///
/// `Clock(0)` is the *reference clock* that is constantly zero; real clocks
/// are `Clock(1) … Clock(n)` for a DBM of dimension `n + 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clock(pub u32);

impl Clock {
    /// The reference clock `x_0 ≡ 0`.
    pub const REF: Clock = Clock(0);

    /// Returns the index as a `usize` for matrix addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` iff this is the reference clock.
    #[inline]
    pub fn is_reference(self) -> bool {
        self.0 == 0
    }
}

impl From<u32> for Clock {
    fn from(i: u32) -> Self {
        Clock(i)
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_reference() {
            write!(f, "x0")
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_clock() {
        assert!(Clock::REF.is_reference());
        assert!(!Clock(3).is_reference());
        assert_eq!(Clock(3).index(), 3);
        assert_eq!(Clock::from(7), Clock(7));
    }
}
