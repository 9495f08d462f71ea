//! The processor heap's `Active` word: descriptor pointer + credits.
//!
//! Paper, Figure 3:
//!
//! ```text
//! typedef active : unsigned ptr:58, credits:6;
//! ```
//!
//! Descriptors are 64-byte aligned, so the low 6 bits of the active
//! superblock's descriptor address are free to hold `credits`. "If the
//! value of credits is n, then the active superblock contains n+1 blocks
//! available for reservation through the Active field." The common-case
//! malloc reserves a block by CASing `credits - 1` — one atomic op.

use crate::config::{DESC_ALIGN_SHIFT, MAX_CREDITS};
use crate::descriptor::Descriptor;

const CREDITS_MASK: u64 = (1 << DESC_ALIGN_SHIFT) - 1;

/// Packed `(descriptor, credits)` snapshot of a heap's `Active` word.
/// The null value (no active superblock) is raw `0`.
///
/// # Example
///
/// ```
/// use lfmalloc::active::Active;
///
/// let a = Active::null();
/// assert!(a.is_null());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Active(u64);

impl Active {
    /// No active superblock.
    #[inline]
    pub const fn null() -> Active {
        Active(0)
    }

    /// Packs a descriptor pointer and a credits value (`0..MAX_CREDITS`).
    #[inline]
    pub fn pack(desc: *const Descriptor, credits: u32) -> Active {
        debug_assert!(!desc.is_null());
        debug_assert_eq!(desc as usize as u64 & CREDITS_MASK, 0, "descriptor misaligned");
        debug_assert!(credits < MAX_CREDITS);
        Active(desc as usize as u64 | credits as u64)
    }

    /// Reinterprets a raw word.
    #[inline]
    pub const fn from_raw(raw: u64) -> Active {
        Active(raw)
    }

    /// The raw word.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// True if no active superblock is installed.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The descriptor pointer (credits masked off).
    ///
    /// This is the paper's `mask_credits(oldactive)`.
    #[inline]
    pub fn desc(self) -> *mut Descriptor {
        (self.0 & !CREDITS_MASK) as usize as *mut Descriptor
    }

    /// The credits subfield.
    #[inline]
    pub fn credits(self) -> u32 {
        (self.0 & CREDITS_MASK) as u32
    }

    /// The word after taking `n` credits (`n <= credits` required); the
    /// fast-path reservation is `CAS(active, old, old.take_credits(1))`.
    #[inline]
    pub fn take_credits(self, n: u32) -> Active {
        debug_assert!(n <= self.credits());
        Active(self.0 - n as u64)
    }
}

impl core::fmt::Debug for Active {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_null() {
            write!(f, "Active(null)")
        } else {
            write!(f, "Active(desc={:p}, credits={})", self.desc(), self.credits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_desc(addr: usize) -> *const Descriptor {
        addr as *const Descriptor
    }

    #[test]
    fn null_roundtrip() {
        assert!(Active::null().is_null());
        assert_eq!(Active::from_raw(0).raw(), 0);
    }

    #[test]
    fn pack_unpack() {
        let d = fake_desc(0x7f00_0000_1240); // 64-aligned
        let a = Active::pack(d, 63);
        assert!(!a.is_null());
        assert_eq!(a.desc() as usize, 0x7f00_0000_1240);
        assert_eq!(a.credits(), 63);
    }

    #[test]
    fn take_credits_decrements_only_credits() {
        let d = fake_desc(0x1000);
        let a = Active::pack(d, 5);
        let b = a.take_credits(1);
        assert_eq!(b.credits(), 4);
        assert_eq!(b.desc(), a.desc());
        assert_eq!(a.take_credits(5).credits(), 0);
        assert_eq!(a.take_credits(5).desc(), a.desc());
    }

    #[test]
    fn zero_credit_word_still_carries_descriptor() {
        // credits == 0 means "one block available for reservation";
        // the pointer must be recoverable.
        let d = fake_desc(0x2000);
        let a = Active::pack(d, 0);
        assert_eq!(a.credits(), 0);
        assert_eq!(a.desc() as usize, 0x2000);
        assert!(!a.is_null());
    }
}
