//! Vector-lane abstraction for the alignment kernels.
//!
//! The multilane kernel ([`crate::multilane`]) advances many independent
//! alignments in lock-step, one pair per lane, on saturating i16 lanes;
//! the traceback kernel ([`crate::tblanes`]) advances one alignment's
//! anti-diagonal, one row per lane. This module supplies the lanes: a
//! [`SimdVec`] trait whose operations are the complete vocabulary of the
//! two kernels (splat/load/store, saturating add/sub, max, the
//! substitution scores of a 16-column tile; for traceback also
//! compare-greater, and/or/select, a one-lane shift, a narrowing byte
//! store and a store of six comparison masks), implemented by
//!
//! * `core::arch::x86_64` **SSE2** (8 lanes) and **AVX2** (16 lanes)
//!   intrinsics, selected at runtime with `is_x86_feature_detected!`;
//! * **NEON** (8 lanes) on aarch64, where it is a baseline feature;
//! * a portable **scalar-array fallback** ([`ScalarLanes`]) implementing
//!   the identical trait, so every platform compiles the kernel and every
//!   dispatch branch is testable on any machine.
//!
//! [`SimdBackend`] names the compiled-and-detected implementations and
//! [`SimdPolicy`] is the user-facing `--simd auto|avx2|sse2|neon|scalar`
//! selection. Every backend produces bit-identical scores (the
//! `kernel_equivalence` differential harness pins this), so the choice only
//! ever changes wall time.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

#[cfg(target_arch = "aarch64")]
use core::arch::aarch64::*;

/// Widest lane count any backend exposes; fixed-size scratch buffers in
/// the kernel are sized by this.
pub const MAX_LANES: usize = 16;

/// Reference columns one [`SimdVec::score_tile`] call scores.
pub const TILE_COLS: usize = 16;

/// Added to a residue code to index the low half of a substitution row
/// with a byte shuffle: codes 0..16 keep their low four bits with bit 7
/// clear, codes 16..32 set bit 7, for which `pshufb` yields 0.
const TILE_LO_BIAS: u8 = 0x70;

/// The two shuffle indices [`SimdVec::score_tile`] takes for residue
/// `code` (< 32): into the low half (codes 0..16) and the high half
/// (codes 16..32) of a substitution row. In the half that does not hold
/// `code`, the index has bit 7 set and the shuffle yields 0, so the two
/// lookups combine with a bitwise or.
#[inline(always)]
pub fn tile_index(code: u8) -> [u8; 2] {
    [code.saturating_add(TILE_LO_BIAS), code.wrapping_sub(16)]
}

/// [`SimdVec::score_tile`] with one indexed load per score: the portable
/// default, and what the 8-lane x86 backend runs on a CPU without SSSE3.
/// Lane by lane, so that a lane's row and codes are read in order.
fn score_tile_indexed<V: SimdVec>(rows: &[u8], idx: &[u8], out: &mut [i16]) {
    let half = V::LANES * TILE_COLS;
    let (rows, idx, out) = (&rows[..2 * half], &idx[..half], &mut out[..half]);
    let mut row = [0u8; 2 * 16];
    for l in 0..V::LANES {
        row[..16].copy_from_slice(&rows[l * 16..][..16]);
        row[16..].copy_from_slice(&rows[half + l * 16..][..16]);
        for (c, &lo) in idx[l * TILE_COLS..][..TILE_COLS].iter().enumerate() {
            out[c * V::LANES + l] = row[lo.wrapping_sub(TILE_LO_BIAS) as usize % 32] as i8 as i16;
        }
    }
}

/// Masks the traceback lanes keep of every cell
/// ([`SimdVec::store_masks`]): the five comparisons that make a direction
/// code and whether the cell raised the running maximum.
pub const TRACE_MASKS: usize = 6;

/// [`SimdVec::MASK_BYTES`] of the x86 backends: a bit per lane and mask.
#[cfg(target_arch = "x86_64")]
const fn packed_mask_bytes(lanes: usize) -> usize {
    TRACE_MASKS * lanes / 8
}

/// [`SimdVec::mask_at`] of the x86 backends, which store the masks two at
/// a time as `packs` + `movemask` leave them: per pair and per eight
/// lanes, a byte of the first mask's bits and a byte of the second's.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn packed_mask_at(stored: &[u8], lanes: usize, lane: usize, k: usize) -> bool {
    stored[(k / 2) * (lanes / 4) + 2 * (lane / 8) + k % 2] >> (lane % 8) & 1 == 1
}

/// One vector of i16 lanes: the full instruction vocabulary of the
/// lock-step Smith–Waterman recurrence.
///
/// Implementations must be element-wise and width-uniform: the kernel is
/// generic over this trait and is bit-identical across implementations by
/// construction (saturating i16 arithmetic has one defined result).
pub trait SimdVec: Copy {
    /// Number of i16 lanes in one vector.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: i16) -> Self;

    /// Load `Self::LANES` values from the front of `src`.
    fn load(src: &[i16]) -> Self;

    /// Store all lanes to the front of `dst`.
    fn store(self, dst: &mut [i16]);

    /// Lane-wise saturating add.
    fn add_sat(self, o: Self) -> Self;

    /// Lane-wise saturating subtract.
    fn sub_sat(self, o: Self) -> Self;

    /// Lane-wise maximum.
    fn max(self, o: Self) -> Self;

    /// Lane-wise `self > o` as a mask: all bits set where it holds, zero
    /// where it does not.
    fn gt(self, o: Self) -> Self;

    /// Bitwise and.
    fn and(self, o: Self) -> Self;

    /// Bitwise or.
    fn or(self, o: Self) -> Self;

    /// Lane-wise `if mask { a } else { b }`; every lane of `mask` must be
    /// all ones or all zeros, as [`SimdVec::gt`] produces.
    fn select(mask: Self, a: Self, b: Self) -> Self;

    /// Every lane moved up by one (lane `l` takes lane `l - 1`), with
    /// `low` entering at lane 0 and the top lane dropped.
    fn shift_in(self, low: i16) -> Self;

    /// Store the low byte of every lane to the front of `dst`
    /// (`Self::LANES` bytes); lanes must hold values in `0..=255`.
    fn store_bytes(self, dst: &mut [u8]);

    /// Bytes [`SimdVec::store_masks`] writes: one per lane, unless the
    /// backend packs tighter.
    const MASK_BYTES: usize = Self::LANES;

    /// Store [`TRACE_MASKS`] masks (each as [`SimdVec::gt`] yields them) to
    /// the front of `dst`, `Self::MASK_BYTES` bytes, in whatever layout is
    /// cheapest for the backend; [`SimdVec::mask_at`] reads them back. The
    /// portable layout is a byte per lane with mask `k` at bit `k`.
    #[inline(always)]
    fn store_masks(masks: [Self; TRACE_MASKS], dst: &mut [u8]) {
        let mut byte = Self::zero();
        for (k, mask) in masks.into_iter().enumerate() {
            byte = byte.or(mask.and(Self::splat(1 << k)));
        }
        byte.store_bytes(dst);
    }

    /// Whether mask `k` held in `lane`, from the bytes
    /// [`SimdVec::store_masks`] wrote.
    #[inline(always)]
    fn mask_at(stored: &[u8], lane: usize, k: usize) -> bool {
        stored[lane] >> k & 1 == 1
    }

    /// All lanes zero.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0)
    }

    /// Substitution scores of [`TILE_COLS`] reference columns for every
    /// lane at once, each lane against its own query residue: column `c`
    /// of the tile goes to `out[c * LANES..][..LANES]`, lane `l` of it the
    /// score of lane `l`'s query residue against its reference residue at
    /// that column.
    ///
    /// Both inputs are `2 × LANES × 16` bytes laid out `[half][lane][16]`.
    /// `rows` holds per lane the substitution row of its query residue as
    /// two's-complement i8 scores by reference code, codes 0..16 in half 0
    /// and 16..32 in half 1. `idx` holds per lane the [`tile_index`] pair
    /// of its 16 reference codes, the low-half indices in half 0 and the
    /// high-half ones in half 1. Reference codes must be below 32.
    ///
    /// The vector backends build the tile gather-free: two byte shuffles
    /// per lane look its 16 scores up in its row, a byte transpose turns
    /// lanes × columns into columns × lanes, and a sign extension widens
    /// each column to i16.
    #[inline(always)]
    fn score_tile(rows: &[u8], idx: &[u8], out: &mut [i16]) {
        score_tile_indexed::<Self>(rows, idx, out)
    }
}

/// Portable scalar-array lanes: plain `[i16; L]` arithmetic with the same
/// saturating semantics as the hardware vectors. This is both the fallback
/// backend on targets without intrinsics and the reference implementation
/// the differential harness runs everywhere.
#[derive(Clone, Copy, Debug)]
pub struct ScalarLanes<const L: usize>([i16; L]);

impl<const L: usize> SimdVec for ScalarLanes<L> {
    const LANES: usize = L;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        ScalarLanes([v; L])
    }

    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        let mut a = [0i16; L];
        a.copy_from_slice(&src[..L]);
        ScalarLanes(a)
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        dst[..L].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn add_sat(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x = x.saturating_add(y);
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn sub_sat(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x = x.saturating_sub(y);
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x = (*x).max(y);
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x = -i16::from(*x > y);
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x &= y;
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(o.0) {
            *x |= y;
        }
        ScalarLanes(a)
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        let mut out = b.0;
        for ((x, y), m) in out.iter_mut().zip(a.0).zip(mask.0) {
            *x = (y & m) | (*x & !m);
        }
        ScalarLanes(out)
    }

    #[inline(always)]
    fn shift_in(self, low: i16) -> Self {
        let mut a = self.0;
        a.copy_within(..L - 1, 1);
        a[0] = low;
        ScalarLanes(a)
    }

    #[inline(always)]
    fn store_bytes(self, dst: &mut [u8]) {
        for (d, x) in dst[..L].iter_mut().zip(self.0) {
            *d = x as u8;
        }
    }
}

/// The shared tail of the x86 tile builders. `t[k]` holds in each 128-bit
/// half the 16 column scores (bytes) of one lane: lane `k`, and on AVX2
/// lane `k + 8` in the high half. Three rounds of interleaves transpose
/// each half from 8 lanes × 16 columns to 16 columns × 8 lanes, leaving
/// columns `2k` and `2k + 1` in `w[k]`; interleaving a register with
/// itself and shifting right arithmetically by 8 sign-extends a column,
/// which goes to the `2k`-th (`2k + 1`-th) register-sized slot at `out`.
#[cfg(target_arch = "x86_64")]
macro_rules! transpose_tile {
    ($t:ident => $out:ident, $store:ident, $lo8:ident, $hi8:ident, $lo16:ident, $hi16:ident,
     $lo32:ident, $hi32:ident, $srai:ident) => {{
        let t = $t;
        let u = [
            $lo8(t[0], t[1]),
            $hi8(t[0], t[1]),
            $lo8(t[2], t[3]),
            $hi8(t[2], t[3]),
            $lo8(t[4], t[5]),
            $hi8(t[4], t[5]),
            $lo8(t[6], t[7]),
            $hi8(t[6], t[7]),
        ];
        let v = [
            $lo16(u[0], u[2]),
            $hi16(u[0], u[2]),
            $lo16(u[1], u[3]),
            $hi16(u[1], u[3]),
            $lo16(u[4], u[6]),
            $hi16(u[4], u[6]),
            $lo16(u[5], u[7]),
            $hi16(u[5], u[7]),
        ];
        let w = [
            $lo32(v[0], v[4]),
            $hi32(v[0], v[4]),
            $lo32(v[1], v[5]),
            $hi32(v[1], v[5]),
            $lo32(v[2], v[6]),
            $hi32(v[2], v[6]),
            $lo32(v[3], v[7]),
            $hi32(v[3], v[7]),
        ];
        for (k, w) in w.into_iter().enumerate() {
            $store($out.add(2 * k), $srai::<8>($lo8(w, w)));
            $store($out.add(2 * k + 1), $srai::<8>($hi8(w, w)));
        }
    }};
}

/// [`SimdVec::score_tile`] for the 8-lane x86 backend with `pshufb`.
///
/// # Safety
///
/// The CPU must support SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn score_tile_ssse3(rows: &[u8], idx: &[u8], out: &mut [i16]) {
    const HALF: usize = 8 * TILE_COLS;
    let (rows, idx, out) = (&rows[..2 * HALF], &idx[..2 * HALF], &mut out[..HALF]);
    let mut t = [_mm_setzero_si128(); 8];
    for (l, t) in t.iter_mut().enumerate() {
        // SAFETY: every load reads 16 bytes at `l * 16 < HALF` into one
        // half of a slice cut to `2 * HALF` bytes above.
        let load = |bytes: &[u8], half: usize| unsafe {
            _mm_loadu_si128(bytes.as_ptr().add(half * HALF + l * 16) as *const __m128i)
        };
        *t = _mm_or_si128(
            _mm_shuffle_epi8(load(rows, 0), load(idx, 0)),
            _mm_shuffle_epi8(load(rows, 1), load(idx, 1)),
        );
    }
    // SAFETY: the 16 stores of 8 lanes fill `out`, cut to `HALF` above.
    let out = out.as_mut_ptr() as *mut __m128i;
    transpose_tile!(t => out, _mm_storeu_si128, _mm_unpacklo_epi8, _mm_unpackhi_epi8,
        _mm_unpacklo_epi16, _mm_unpackhi_epi16, _mm_unpacklo_epi32, _mm_unpackhi_epi32,
        _mm_srai_epi16);
}

/// SSE2 vector: 8 × i16 in an `__m128i`. SSE2 is a baseline feature of
/// x86_64, so these wrappers are sound on every x86_64 host.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Sse2Vec(__m128i);

#[cfg(target_arch = "x86_64")]
impl SimdVec for Sse2Vec {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: SSE2 is baseline on x86_64.
        Sse2Vec(unsafe { _mm_set1_epi16(v) })
    }

    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        debug_assert!(src.len() >= 8);
        Sse2Vec(unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        debug_assert!(dst.len() >= 8);
        unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, self.0) }
    }

    #[inline(always)]
    fn add_sat(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_adds_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn sub_sat(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_subs_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_max_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_cmpgt_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_and_si128(self.0, o.0) })
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        Sse2Vec(unsafe { _mm_or_si128(self.0, o.0) })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        Sse2Vec(unsafe { _mm_or_si128(_mm_and_si128(mask.0, a.0), _mm_andnot_si128(mask.0, b.0)) })
    }

    #[inline(always)]
    fn shift_in(self, low: i16) -> Self {
        Sse2Vec(unsafe { _mm_insert_epi16::<0>(_mm_slli_si128::<2>(self.0), low as i32) })
    }

    #[inline(always)]
    fn store_bytes(self, dst: &mut [u8]) {
        assert!(dst.len() >= 8);
        // SAFETY: SSE2 is baseline on x86_64; the assert above covers the
        // 8 bytes the unaligned store writes.
        unsafe {
            _mm_storel_epi64(
                dst.as_mut_ptr() as *mut __m128i,
                _mm_packus_epi16(self.0, self.0),
            )
        }
    }

    const MASK_BYTES: usize = packed_mask_bytes(Self::LANES);

    #[inline(always)]
    fn store_masks(masks: [Self; TRACE_MASKS], dst: &mut [u8]) {
        let dst = &mut dst[..Self::MASK_BYTES];
        for (pair, out) in masks.chunks_exact(2).zip(dst.chunks_exact_mut(2)) {
            // SAFETY: SSE2 is baseline on x86_64.
            let bits = unsafe { _mm_movemask_epi8(_mm_packs_epi16(pair[0].0, pair[1].0)) };
            out.copy_from_slice(&(bits as u16).to_le_bytes());
        }
    }

    #[inline(always)]
    fn mask_at(stored: &[u8], lane: usize, k: usize) -> bool {
        packed_mask_at(stored, Self::LANES, lane, k)
    }

    /// `pshufb` is SSSE3, which the baseline does not include: it is
    /// detected here, per tile, and a CPU without it takes the indexed
    /// loads.
    #[inline(always)]
    fn score_tile(rows: &[u8], idx: &[u8], out: &mut [i16]) {
        if is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 was detected on the line above.
            unsafe { score_tile_ssse3(rows, idx, out) }
        } else {
            score_tile_indexed::<Self>(rows, idx, out)
        }
    }
}

/// AVX2 vector: 16 × i16 in an `__m256i`.
///
/// # Safety contract
///
/// Constructing or operating on this type executes AVX2 instructions; the
/// dispatcher only reaches it after `is_x86_feature_detected!("avx2")`
/// (see [`SimdBackend::is_available`]), which makes the `unsafe` intrinsic
/// calls sound.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2Vec(__m256i);

#[cfg(target_arch = "x86_64")]
impl SimdVec for Avx2Vec {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        Avx2Vec(unsafe { _mm256_set1_epi16(v) })
    }

    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        debug_assert!(src.len() >= 16);
        Avx2Vec(unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        debug_assert!(dst.len() >= 16);
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, self.0) }
    }

    #[inline(always)]
    fn add_sat(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_adds_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn sub_sat(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_subs_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_max_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_cmpgt_epi16(self.0, o.0) })
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_and_si256(self.0, o.0) })
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        Avx2Vec(unsafe { _mm256_or_si256(self.0, o.0) })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        Avx2Vec(unsafe { _mm256_blendv_epi8(b.0, a.0, mask.0) })
    }

    #[inline(always)]
    fn shift_in(self, low: i16) -> Self {
        // `alignr` shifts within each 128-bit half, taking the incoming
        // lane from the top of its second operand's half: `low` for the
        // low half, the low half's top lane for the high half.
        Avx2Vec(unsafe {
            let carry = _mm256_permute2x128_si256::<0x20>(_mm256_set1_epi16(low), self.0);
            _mm256_alignr_epi8::<14>(self.0, carry)
        })
    }

    #[inline(always)]
    fn store_bytes(self, dst: &mut [u8]) {
        assert!(dst.len() >= 16);
        // SAFETY: AVX2 per the type's contract; the assert above covers
        // the 16 bytes the unaligned store writes.
        unsafe {
            let packed = _mm_packus_epi16(
                _mm256_castsi256_si128(self.0),
                _mm256_extracti128_si256::<1>(self.0),
            );
            _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, packed)
        }
    }

    const MASK_BYTES: usize = packed_mask_bytes(Self::LANES);

    #[inline(always)]
    fn store_masks(masks: [Self; TRACE_MASKS], dst: &mut [u8]) {
        let dst = &mut dst[..Self::MASK_BYTES];
        for (pair, out) in masks.chunks_exact(2).zip(dst.chunks_exact_mut(4)) {
            // `packs` works within each 128-bit half, which gives the
            // layout of `packed_mask_at`: the first mask's lanes 0..8, the
            // second's, then lanes 8..16 of each.
            // SAFETY: AVX2 per the type's contract.
            let bits = unsafe { _mm256_movemask_epi8(_mm256_packs_epi16(pair[0].0, pair[1].0)) };
            out.copy_from_slice(&bits.to_le_bytes());
        }
    }

    #[inline(always)]
    fn mask_at(stored: &[u8], lane: usize, k: usize) -> bool {
        packed_mask_at(stored, Self::LANES, lane, k)
    }

    #[inline(always)]
    fn score_tile(rows: &[u8], idx: &[u8], out: &mut [i16]) {
        const HALF: usize = 16 * TILE_COLS;
        let (rows, idx, out) = (&rows[..2 * HALF], &idx[..2 * HALF], &mut out[..HALF]);
        // SAFETY: AVX2 per the type's contract; every load reads 32 bytes
        // at `p * 32 < HALF` into one half of a slice cut to `2 * HALF`
        // bytes above, and the 16 stores of 16 lanes fill `out`, cut to
        // `HALF`.
        unsafe {
            // Register p looks up lanes 2p (low half) and 2p + 1 (high).
            let mut s = [_mm256_setzero_si256(); 8];
            for (p, s) in s.iter_mut().enumerate() {
                let load = |bytes: &[u8], half: usize| {
                    _mm256_loadu_si256(bytes.as_ptr().add(half * HALF + p * 32) as *const __m256i)
                };
                *s = _mm256_or_si256(
                    _mm256_shuffle_epi8(load(rows, 0), load(idx, 0)),
                    _mm256_shuffle_epi8(load(rows, 1), load(idx, 1)),
                );
            }
            // Pair lane k with lane k + 8, so that the in-half transpose
            // leaves lanes 0..8 in the low half and 8..16 in the high.
            let mut t = [_mm256_setzero_si256(); 8];
            for p in 0..4 {
                t[2 * p] = _mm256_permute2x128_si256::<0x20>(s[p], s[p + 4]);
                t[2 * p + 1] = _mm256_permute2x128_si256::<0x31>(s[p], s[p + 4]);
            }
            let out = out.as_mut_ptr() as *mut __m256i;
            transpose_tile!(t => out, _mm256_storeu_si256, _mm256_unpacklo_epi8,
                _mm256_unpackhi_epi8, _mm256_unpacklo_epi16, _mm256_unpackhi_epi16,
                _mm256_unpacklo_epi32, _mm256_unpackhi_epi32, _mm256_srai_epi16);
        }
    }
}

/// NEON vector: 8 × i16 in an `int16x8_t`. NEON is a baseline feature of
/// aarch64, so these wrappers are sound on every aarch64 host.
#[cfg(target_arch = "aarch64")]
#[derive(Clone, Copy)]
pub struct NeonVec(int16x8_t);

#[cfg(target_arch = "aarch64")]
impl SimdVec for NeonVec {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        NeonVec(unsafe { vdupq_n_s16(v) })
    }

    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        debug_assert!(src.len() >= 8);
        NeonVec(unsafe { vld1q_s16(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        debug_assert!(dst.len() >= 8);
        unsafe { vst1q_s16(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add_sat(self, o: Self) -> Self {
        NeonVec(unsafe { vqaddq_s16(self.0, o.0) })
    }

    #[inline(always)]
    fn sub_sat(self, o: Self) -> Self {
        NeonVec(unsafe { vqsubq_s16(self.0, o.0) })
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        NeonVec(unsafe { vmaxq_s16(self.0, o.0) })
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        NeonVec(unsafe { vreinterpretq_s16_u16(vcgtq_s16(self.0, o.0)) })
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        NeonVec(unsafe { vandq_s16(self.0, o.0) })
    }

    #[inline(always)]
    fn or(self, o: Self) -> Self {
        NeonVec(unsafe { vorrq_s16(self.0, o.0) })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        NeonVec(unsafe { vbslq_s16(vreinterpretq_u16_s16(mask.0), a.0, b.0) })
    }

    #[inline(always)]
    fn shift_in(self, low: i16) -> Self {
        NeonVec(unsafe { vextq_s16::<7>(vdupq_n_s16(low), self.0) })
    }

    #[inline(always)]
    fn store_bytes(self, dst: &mut [u8]) {
        assert!(dst.len() >= 8);
        // SAFETY: NEON is baseline on aarch64; the assert above covers
        // the 8 bytes the store writes.
        unsafe { vst1_u8(dst.as_mut_ptr(), vmovn_u16(vreinterpretq_u16_s16(self.0))) }
    }

    #[inline(always)]
    fn score_tile(rows: &[u8], idx: &[u8], out: &mut [i16]) {
        const HALF: usize = 8 * TILE_COLS;
        let (rows, idx, out) = (&rows[..2 * HALF], &idx[..HALF], &mut out[..HALF]);
        // SAFETY: NEON is baseline on aarch64; every load reads 16 bytes
        // at `l * 16 < HALF` into a slice cut to that many halves above,
        // and the 16 stores of 8 lanes fill `out`, cut to `HALF`.
        unsafe {
            // `tbl` over the whole 32-byte row takes the plain code and
            // yields 0 past the table, so one lookup per lane does.
            let bias = vdupq_n_u8(TILE_LO_BIAS);
            let mut t = [vdupq_n_s8(0); 8];
            for (l, t) in t.iter_mut().enumerate() {
                let row =
                    |half: usize| vld1q_s8(rows.as_ptr().add(half * HALF + l * 16) as *const i8);
                let codes = vsubq_u8(vld1q_u8(idx.as_ptr().add(l * 16)), bias);
                *t = vqtbl2q_s8(int8x16x2_t(row(0), row(1)), codes);
            }
            // The x86 transpose with `zip1`/`zip2` for `unpacklo`/`hi`.
            let zip8 = |a: int8x16_t, b: int8x16_t| {
                [
                    vreinterpretq_s16_s8(vzip1q_s8(a, b)),
                    vreinterpretq_s16_s8(vzip2q_s8(a, b)),
                ]
            };
            let zip16 = |a: int16x8_t, b: int16x8_t| {
                [
                    vreinterpretq_s32_s16(vzip1q_s16(a, b)),
                    vreinterpretq_s32_s16(vzip2q_s16(a, b)),
                ]
            };
            let zip32 = |a: int32x4_t, b: int32x4_t| {
                [
                    vreinterpretq_s8_s32(vzip1q_s32(a, b)),
                    vreinterpretq_s8_s32(vzip2q_s32(a, b)),
                ]
            };
            let [u0, u1] = zip8(t[0], t[1]);
            let [u2, u3] = zip8(t[2], t[3]);
            let [u4, u5] = zip8(t[4], t[5]);
            let [u6, u7] = zip8(t[6], t[7]);
            let [v0, v1] = zip16(u0, u2);
            let [v2, v3] = zip16(u1, u3);
            let [v4, v5] = zip16(u4, u6);
            let [v6, v7] = zip16(u5, u7);
            let w = [zip32(v0, v4), zip32(v1, v5), zip32(v2, v6), zip32(v3, v7)];
            let out = out.as_mut_ptr();
            for (k, w) in w.into_iter().flatten().enumerate() {
                vst1q_s16(out.add(2 * k * 8), vmovl_s8(vget_low_s8(w)));
                vst1q_s16(out.add((2 * k + 1) * 8), vmovl_high_s8(w));
            }
        }
    }
}

/// A compiled vector backend of the multilane kernel.
///
/// All backends are bit-identical in output; they differ only in lane
/// width and instruction set. [`SimdBackend::Scalar`] exists everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdBackend {
    /// Portable scalar-array lanes (16-wide, auto-vectorizable).
    #[default]
    Scalar,
    /// x86_64 SSE2, 8 × i16 lanes (baseline on every x86_64).
    Sse2,
    /// x86_64 AVX2, 16 × i16 lanes (runtime-detected).
    Avx2,
    /// aarch64 NEON, 8 × i16 lanes (baseline on every aarch64).
    Neon,
}

impl SimdBackend {
    /// Best backend available on this host: AVX2 > SSE2 on x86_64, NEON on
    /// aarch64, the scalar-array fallback elsewhere.
    pub fn detect() -> SimdBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
            return SimdBackend::Sse2;
        }
        #[cfg(target_arch = "aarch64")]
        {
            return SimdBackend::Neon;
        }
        #[allow(unreachable_code)]
        SimdBackend::Scalar
    }

    /// Whether this backend is compiled in *and* supported by the running
    /// CPU. [`SimdBackend::Scalar`] is always available.
    pub fn is_available(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// This backend if the host has it, the portable lanes otherwise: what
    /// the kernels dispatch on, so that a forced-but-unavailable backend
    /// (possible only through library misuse; the CLI validates) degrades
    /// instead of executing instructions the CPU lacks.
    pub fn or_portable(self) -> SimdBackend {
        if self.is_available() {
            self
        } else {
            SimdBackend::Scalar
        }
    }

    /// Every backend available on this host, scalar first. The
    /// differential test harness iterates this list.
    pub fn available() -> Vec<SimdBackend> {
        [
            SimdBackend::Scalar,
            SimdBackend::Sse2,
            SimdBackend::Avx2,
            SimdBackend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }

    /// i16 lanes per vector.
    pub fn lanes(self) -> usize {
        match self {
            SimdBackend::Scalar => 16,
            SimdBackend::Sse2 => 8,
            SimdBackend::Avx2 => 16,
            SimdBackend::Neon => 8,
        }
    }

    /// Lower-case name, as accepted by `--simd`.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }

    /// Stable numeric id for telemetry span args / counters
    /// (span args are `u64`): scalar 0, sse2 1, avx2 2, neon 3.
    pub fn id(self) -> u64 {
        match self {
            SimdBackend::Scalar => 0,
            SimdBackend::Sse2 => 1,
            SimdBackend::Avx2 => 2,
            SimdBackend::Neon => 3,
        }
    }
}

impl std::fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// User-facing backend selection: `auto` defers to runtime detection, a
/// named backend forces that implementation (and errors at validation if
/// the host lacks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Pick the best available backend ([`SimdBackend::detect`]).
    #[default]
    Auto,
    /// Force a specific backend; resolution fails if unavailable.
    Force(SimdBackend),
}

impl SimdPolicy {
    /// Parse a `--simd` value: `auto`, `scalar`, `sse2`, `avx2`, `neon`.
    pub fn parse(s: &str) -> Result<SimdPolicy, String> {
        match s {
            "auto" => Ok(SimdPolicy::Auto),
            "scalar" => Ok(SimdPolicy::Force(SimdBackend::Scalar)),
            "sse2" => Ok(SimdPolicy::Force(SimdBackend::Sse2)),
            "avx2" => Ok(SimdPolicy::Force(SimdBackend::Avx2)),
            "neon" => Ok(SimdPolicy::Force(SimdBackend::Neon)),
            other => Err(format!(
                "unknown SIMD backend '{other}' (expected auto|scalar|sse2|avx2|neon)"
            )),
        }
    }

    /// Resolve the policy against the running host.
    pub fn resolve(self) -> Result<SimdBackend, String> {
        match self {
            SimdPolicy::Auto => Ok(SimdBackend::detect()),
            SimdPolicy::Force(b) if b.is_available() => Ok(b),
            SimdPolicy::Force(b) => Err(format!(
                "SIMD backend '{}' is not available on this host (available: {})",
                b.name(),
                SimdBackend::available()
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ops<V: SimdVec>() {
        assert!(V::LANES <= MAX_LANES);
        let mut src = [0i16; MAX_LANES];
        for (i, v) in src.iter_mut().enumerate() {
            *v = (i as i16) * 1000 - 5000;
        }
        let a = V::load(&src);
        let b = V::splat(30000);
        let mut got = [0i16; MAX_LANES];
        a.add_sat(b).store(&mut got);
        for l in 0..V::LANES {
            assert_eq!(got[l], src[l].saturating_add(30000), "add_sat lane {l}");
        }
        a.sub_sat(b).store(&mut got);
        for l in 0..V::LANES {
            assert_eq!(got[l], src[l].saturating_sub(30000), "sub_sat lane {l}");
        }
        a.max(V::zero()).store(&mut got);
        for l in 0..V::LANES {
            assert_eq!(got[l], src[l].max(0), "max lane {l}");
        }
        a.gt(V::zero()).store(&mut got);
        for l in 0..V::LANES {
            assert_eq!(got[l], -i16::from(src[l] > 0), "gt lane {l}");
        }
        a.and(V::splat(0x0ff0)).or(V::splat(1)).store(&mut got);
        for l in 0..V::LANES {
            assert_eq!(got[l], src[l] & 0x0ff0 | 1, "and/or lane {l}");
        }
        V::select(a.gt(V::zero()), a, b).store(&mut got);
        for l in 0..V::LANES {
            let want = if src[l] > 0 { src[l] } else { 30000 };
            assert_eq!(got[l], want, "select lane {l}");
        }
        a.shift_in(-7).store(&mut got);
        assert_eq!(got[0], -7, "shift_in lane 0");
        for l in 1..V::LANES {
            assert_eq!(got[l], src[l - 1], "shift_in lane {l}");
        }
        let mut bytes = [0xeeu8; MAX_LANES + 1];
        a.and(V::splat(0xff)).store_bytes(&mut bytes);
        for l in 0..V::LANES {
            assert_eq!(bytes[l], src[l] as u8, "store_bytes lane {l}");
        }
        assert_eq!(bytes[V::LANES], 0xee, "store_bytes wrote past its lanes");
        // Mask k holds in lane l iff bit k of 7 l + 3 is set.
        let ids: [i16; MAX_LANES] = std::array::from_fn(|l| 7 * l as i16 + 3);
        let ids = V::load(&ids);
        let masks: [V; TRACE_MASKS] =
            std::array::from_fn(|k| ids.and(V::splat(1 << k)).gt(V::zero()));
        let mut stored = [0xeeu8; MAX_LANES + 1];
        V::store_masks(masks, &mut stored);
        for l in 0..V::LANES {
            for k in 0..TRACE_MASKS {
                let want = (7 * l + 3) >> k & 1 == 1;
                assert_eq!(V::mask_at(&stored, l, k), want, "mask {k} lane {l}");
            }
        }
        assert!(V::MASK_BYTES <= V::LANES);
        assert_eq!(
            stored[V::MASK_BYTES],
            0xee,
            "store_masks wrote past its bytes"
        );
    }

    /// `score_tile` against `table[q][r]` for all 22 × 22 code pairs in
    /// every lane and every column: as `(q0, r0)` runs over all pairs, so
    /// does the pair at each position. A different query code per lane
    /// and a different reference code per lane and column make this the
    /// test of the transpose too, and negative scores that of the sign
    /// extension.
    fn check_tile<V: SimdVec>() {
        const CODES: usize = 22;
        let table = |q: usize, r: usize| ((q * 23 + r * 5) % 256) as u8;
        let half = V::LANES * TILE_COLS;
        let (mut rows, mut idx) = (vec![0u8; 2 * half], vec![0u8; 2 * half]);
        let mut out = vec![0i16; half];
        for q0 in 0..CODES {
            for r0 in 0..CODES {
                let q_of = |l: usize| (q0 + l) % CODES;
                let r_of = |l: usize, c: usize| (r0 + 7 * l + c) % CODES;
                for l in 0..V::LANES {
                    for code in 0..32 {
                        let score = if code < CODES {
                            table(q_of(l), code)
                        } else {
                            0x55
                        };
                        rows[(code / 16) * half + l * 16 + code % 16] = score;
                    }
                    for c in 0..TILE_COLS {
                        let [lo, hi] = tile_index(r_of(l, c) as u8);
                        idx[l * TILE_COLS + c] = lo;
                        idx[half + l * TILE_COLS + c] = hi;
                    }
                }
                V::score_tile(&rows, &idx, &mut out);
                for (c, column) in out.chunks_exact(V::LANES).enumerate() {
                    for (l, &got) in column.iter().enumerate() {
                        let want = table(q_of(l), r_of(l, c)) as i8 as i16;
                        assert_eq!(got, want, "q0 {q0} r0 {r0} lane {l} column {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_lanes_ops() {
        check_ops::<ScalarLanes<8>>();
        check_ops::<ScalarLanes<16>>();
        check_tile::<ScalarLanes<8>>();
        check_tile::<ScalarLanes<16>>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_ops() {
        check_ops::<Sse2Vec>();
        check_tile::<Sse2Vec>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_ops() {
        if is_x86_feature_detected!("avx2") {
            check_ops::<Avx2Vec>();
            check_tile::<Avx2Vec>();
        }
    }

    #[cfg(target_arch = "aarch64")]
    #[test]
    fn neon_ops() {
        check_ops::<NeonVec>();
        check_tile::<NeonVec>();
    }

    #[test]
    fn detection_is_consistent() {
        let best = SimdBackend::detect();
        assert!(best.is_available());
        let avail = SimdBackend::available();
        assert!(avail.contains(&SimdBackend::Scalar));
        assert!(avail.contains(&best));
        for b in avail {
            assert!(b.lanes() == 8 || b.lanes() == 16);
            assert!(b.lanes() <= MAX_LANES);
        }
    }

    #[test]
    fn policy_parse_and_resolve() {
        assert_eq!(SimdPolicy::parse("auto").unwrap(), SimdPolicy::Auto);
        assert_eq!(
            SimdPolicy::parse("scalar").unwrap(),
            SimdPolicy::Force(SimdBackend::Scalar)
        );
        assert!(SimdPolicy::parse("warp").is_err());
        assert_eq!(SimdPolicy::Auto.resolve().unwrap(), SimdBackend::detect());
        assert_eq!(
            SimdPolicy::Force(SimdBackend::Scalar).resolve().unwrap(),
            SimdBackend::Scalar
        );
        #[cfg(not(target_arch = "aarch64"))]
        assert!(SimdPolicy::Force(SimdBackend::Neon).resolve().is_err());
    }

    #[test]
    fn ids_and_names_are_stable() {
        for b in [
            SimdBackend::Scalar,
            SimdBackend::Sse2,
            SimdBackend::Avx2,
            SimdBackend::Neon,
        ] {
            assert_eq!(SimdPolicy::parse(b.name()), Ok(SimdPolicy::Force(b)));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(SimdBackend::Scalar.id(), 0);
        assert_eq!(SimdBackend::Sse2.id(), 1);
        assert_eq!(SimdBackend::Avx2.id(), 2);
        assert_eq!(SimdBackend::Neon.id(), 3);
    }
}
