//! Size classes: the mapping from request sizes to block sizes.
//!
//! "Superblocks are distributed among size classes based on their block
//! sizes" (§3.1). The paper does not prescribe a class table; we use the
//! conventional geometric-ish ladder (an 8-byte class, 16-byte
//! granularity up to 256, ~12.5% steps above). Every class but the first
//! is a multiple of 16, so its blocks are 16-aligned within the
//! 16 KiB-aligned superblock; 8-byte blocks are 8-aligned, which is all
//! an 8-byte object can ask for.
//!
//! A class size is what the caller may use, all of it: a block carries
//! no header (the paper's 8-byte prefix is gone, DESIGN.md §19), so the
//! 8-byte requests of the paper's benchmarks occupy 8 bytes.
//!
//! Sizes above [`MAX_SMALL`] bypass the size classes and go straight to
//! the OS (`large` module).

use crate::config::SB_SIZE;

/// Number of small size classes.
pub const NUM_CLASSES: usize = 57;

/// Largest request served from superblocks. Anything bigger is a "large
/// block ... allocated directly from the OS".
pub const MAX_SMALL: usize = 8192;

/// Granularity of the lookup table.
const GRAIN: usize = 8;

/// Block sizes of each class, ascending.
pub const CLASS_SIZES: [u32; NUM_CLASSES] = build_sizes();

const fn build_sizes() -> [u32; NUM_CLASSES] {
    let mut s = [0u32; NUM_CLASSES];
    s[0] = 8;
    let mut i = 1;
    // 16..=256 step 16, then doubling bands with 8 steps each.
    let mut v = 16;
    while v <= 256 {
        s[i] = v;
        i += 1;
        v += 16;
    }
    let bands: [(u32, u32); 5] =
        [(256, 32), (512, 64), (1024, 128), (2048, 256), (4096, 512)];
    let mut b = 0;
    while b < bands.len() {
        let (base, step) = bands[b];
        let mut k = 1;
        while k <= 8 {
            s[i] = base + step * k;
            i += 1;
            k += 1;
        }
        b += 1;
    }
    assert!(i == NUM_CLASSES);
    assert!(s[NUM_CLASSES - 1] == MAX_SMALL as u32);
    s
}

/// `ceil(size/8) -> class` lookup table (computed at compile time),
/// covering sizes `0..=MAX_SMALL`.
static LUT: [u8; MAX_SMALL / GRAIN + 1] = build_lut();

const fn build_lut() -> [u8; MAX_SMALL / GRAIN + 1] {
    let mut lut = [0u8; MAX_SMALL / GRAIN + 1];
    let mut slot = 0;
    let mut class = 0;
    while slot < lut.len() {
        let size = slot * GRAIN;
        while CLASS_SIZES[class] < size as u32 {
            class += 1;
        }
        lut[slot] = class as u8;
        slot += 1;
    }
    lut
}

/// Maps a request size to a class index, or `None` for large blocks.
///
/// # Example
///
/// ```
/// use lfmalloc::size_classes::{class_index, CLASS_SIZES};
/// // An 8-byte request occupies an 8-byte block.
/// let c = class_index(8).unwrap();
/// assert_eq!(CLASS_SIZES[c], 8);
/// assert!(class_index(9000).is_none());
/// ```
#[inline]
pub fn class_index(size: usize) -> Option<usize> {
    if size > MAX_SMALL {
        return None;
    }
    let slot = size.div_ceil(GRAIN);
    Some(LUT[slot] as usize)
}

/// Maps a (size, alignment) pair to the smallest class whose block size
/// is a multiple of `align` and at least `size`. `None` if no small
/// class fits; caller falls back to the large path.
///
/// Within a superblock, block `i` starts at `sb + i*sz` and the
/// superblock base is 16 KiB-aligned, so `sz % align == 0` guarantees
/// every block start is `align`-aligned.
pub fn class_index_aligned(size: usize, align: usize) -> Option<usize> {
    debug_assert!(align.is_power_of_two());
    let start = class_index(size)?;
    CLASS_SIZES[start..]
        .iter()
        .position(|&sz| sz as usize % align == 0)
        .map(|off| start + off)
}

/// Blocks per superblock for class `ci`.
#[inline]
pub const fn blocks_per_superblock(ci: usize) -> u32 {
    (SB_SIZE / CLASS_SIZES[ci] as usize) as u32
}

/// Per class, `maxcount` and `ceil(2^32 / sz)`: opening a superblock reads
/// them and divides nothing. `block_index`'s multiply by the latter is
/// exact: for `off < 2^14` its error is below `2^-18`, less than the
/// `1/sz >= 2^-13` by which `off / sz` falls short of the next integer.
pub(crate) const GEOMETRY: [(u32, u32); NUM_CLASSES] = {
    let (mut g, mut ci) = ([(0, 0); NUM_CLASSES], 0);
    while ci < NUM_CLASSES {
        let sz_recip = (1u64 << 32).div_ceil(CLASS_SIZES[ci] as u64) as u32;
        g[ci] = (blocks_per_superblock(ci), sz_recip);
        ci += 1;
    }
    g
};

#[cfg(test)]
mod tests {
    use super::*;
    use malloc_api::testkit::TestRng;

    #[test]
    fn table_is_ascending_and_16_aligned_above_the_8_byte_class() {
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(CLASS_SIZES[0], 8);
        for &s in &CLASS_SIZES[1..] {
            assert_eq!(s % 16, 0, "class {s} not 16-aligned");
        }
        assert_eq!(CLASS_SIZES[NUM_CLASSES - 1] as usize, MAX_SMALL);
        // The frame-map entry keeps the class index in six bits.
        assert!(NUM_CLASSES <= 1 << crate::config::DESC_ALIGN_SHIFT);
    }

    #[test]
    fn every_class_has_at_least_two_blocks() {
        // MallocFromNewSB computes credits = min(maxcount-1, MAXCREDITS)-1,
        // which requires maxcount >= 2.
        for ci in 0..NUM_CLASSES {
            assert!(blocks_per_superblock(ci) >= 2, "class {ci} too large for superblock");
        }
    }

    #[test]
    fn class_population_fits_anchor_fields() {
        assert_eq!(blocks_per_superblock(0), 2048);
        for ci in 0..NUM_CLASSES {
            assert!(blocks_per_superblock(ci) <= crate::anchor::MAX_BLOCKS);
        }
    }

    #[test]
    fn boundary_lookups() {
        assert_eq!(CLASS_SIZES[class_index(0).unwrap()], 8);
        assert_eq!(CLASS_SIZES[class_index(1).unwrap()], 8);
        assert_eq!(CLASS_SIZES[class_index(8).unwrap()], 8);
        assert_eq!(CLASS_SIZES[class_index(9).unwrap()], 16);
        assert_eq!(CLASS_SIZES[class_index(16).unwrap()], 16);
        assert_eq!(CLASS_SIZES[class_index(17).unwrap()], 32);
        assert_eq!(CLASS_SIZES[class_index(8192).unwrap()], 8192);
        assert!(class_index(8193).is_none());
    }

    #[test]
    fn aligned_lookup_prefers_smallest_fitting_class() {
        // 100 bytes at align 64: needs sz >= 100 and sz % 64 == 0 -> 128.
        let ci = class_index_aligned(100, 64).unwrap();
        assert_eq!(CLASS_SIZES[ci], 128);
        // align 16 only rules the 8-byte class out.
        let ci = class_index_aligned(100, 16).unwrap();
        assert_eq!(CLASS_SIZES[ci], 112);
        assert_eq!(CLASS_SIZES[class_index_aligned(8, 16).unwrap()], 16);
        assert_eq!(CLASS_SIZES[class_index_aligned(8, 8).unwrap()], 8);
        // enormous alignment within small range: 4096.
        let ci = class_index_aligned(10, 4096).unwrap();
        assert_eq!(CLASS_SIZES[ci], 4096);
        assert!(class_index_aligned(10, 2 * MAX_SMALL).is_none());
    }

    #[test]
    fn lookup_is_tight_for_every_size() {
        // Exhaustive, not sampled: the whole small range is only 8 KiB.
        for size in 1..=MAX_SMALL {
            let ci = class_index(size).unwrap();
            let sz = CLASS_SIZES[ci] as usize;
            assert!(sz >= size, "class {sz} too small for {size}");
            if ci > 0 {
                assert!(
                    (CLASS_SIZES[ci - 1] as usize) < size,
                    "class below ({}) would also fit {size}",
                    CLASS_SIZES[ci - 1]
                );
            }
        }
    }

    #[test]
    fn aligned_lookup_is_correct_randomized() {
        let mut rng = TestRng::new(0x517E);
        for _ in 0..4096 {
            let size = rng.range(1, 4097);
            let align = 1usize << rng.range(3, 9);
            if let Some(ci) = class_index_aligned(size, align) {
                let sz = CLASS_SIZES[ci] as usize;
                assert!(sz >= size);
                assert_eq!(sz % align, 0);
            }
        }
    }
}
