//! User-defined semirings for sparse matrix "multiplication".
//!
//! The paper (Section V, Figure 2): *"the discovery of candidate pairwise
//! sequences is expressed through an overloaded sparse matrix–sparse matrix
//! multiplication, in which the elements involved are custom data types and
//! the conventional multiply-add is overloaded with custom operators, known
//! as semirings."*
//!
//! A [`Semiring`] here is the compute-facing subset GraphBLAS/CombBLAS use
//! in SpGEMM: a `multiply` mapping an `A`-element and a `B`-element to a
//! `C`-element, and a `combine` folding `C`-elements that land on the same
//! output coordinate. The additive identity is implicit in sparsity (absent
//! entries), so no `zero()` is needed; `combine` must be associative for
//! the result to be independent of stage order, which the SUMMA tests
//! verify for every semiring shipped here.
//!
//! The one place that does need "no value yet" is the row kernel's dense
//! accumulator, which keeps a slot per column of `B` across rows. That
//! state belongs to the semiring too ([`Semiring::Slot`], an [`AccSlot`]):
//! `Option<C>` over `multiply` + `combine` serves any semiring, and a
//! semiring whose `C` has a cheaper way to say "empty" and to absorb a
//! product (the overlap semiring counts and stores a seed, with no
//! branch) names its own cell. A slot is an implementation of the same
//! left fold, never a second definition of it: the heap kernel, ESC, the
//! table accumulator and SpAdd keep calling `multiply` and `combine`, and
//! the differential tests hold the two routes to the same bits.

use std::marker::PhantomData;

/// A semiring: `multiply : A × B → C` plus an associative accumulator
/// `combine : C × C → C`.
pub trait Semiring {
    /// Element type of the left operand matrix.
    type A;
    /// Element type of the right operand matrix.
    type B;
    /// Element type of the output matrix.
    type C;
    /// One column's state in the row kernel's dense accumulator;
    /// `Option<Self::C>` unless the semiring has something cheaper.
    /// `Send`, because the parallel kernel parks each worker's slots
    /// between the chunks it claims.
    type Slot: AccSlot<Self> + Send;

    /// The overloaded "multiplication" of one `A`-element with one
    /// `B`-element that share an inner index.
    fn multiply(&self, a: &Self::A, b: &Self::B) -> Self::C;

    /// Fold `incoming` into `acc`; both address the same output coordinate.
    /// Must be associative (and is applied in ascending inner-index order
    /// by the deterministic kernels).
    fn combine(&self, acc: &mut Self::C, incoming: Self::C);
}

/// One output coordinate's running value in the row kernel's dense
/// accumulator: empty, or the left fold of the products it has been given.
///
/// The law every implementation is tested against: after `n ≥ 1` calls of
/// [`fold`](AccSlot::fold), [`take`](AccSlot::take) returns `multiply` of
/// the first product `combine`d with `multiply` of each later one, in call
/// order, and leaves the slot empty — whatever the slot held in earlier
/// rows.
pub trait AccSlot<S: Semiring + ?Sized> {
    /// A slot holding nothing.
    fn empty() -> Self;

    /// Fold the product of `a` and `b` in; `true` iff the slot was empty.
    fn fold(&mut self, sr: &S, a: &S::A, b: &S::B) -> bool;

    /// Whether a product has been folded in since the last `take`.
    fn is_live(&self) -> bool;

    /// The folded value, leaving the slot empty. Called on live slots only.
    fn take(&mut self) -> S::C;
}

/// The slot any semiring can name: the option's tag is the liveness mark.
impl<S: Semiring + ?Sized> AccSlot<S> for Option<S::C> {
    #[inline]
    fn empty() -> Self {
        None
    }

    #[inline]
    fn fold(&mut self, sr: &S, a: &S::A, b: &S::B) -> bool {
        let product = sr.multiply(a, b);
        match self {
            Some(acc) => {
                sr.combine(acc, product);
                false
            }
            slot => {
                *slot = Some(product);
                true
            }
        }
    }

    #[inline]
    fn is_live(&self) -> bool {
        self.is_some()
    }

    #[inline]
    fn take(&mut self) -> S::C {
        Option::take(self).expect("take on an empty accumulator slot")
    }
}

/// The conventional arithmetic semiring `(+, ×)` over any numeric type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlusTimes<T>(PhantomData<T>);

impl<T> PlusTimes<T> {
    /// Create the arithmetic semiring.
    pub fn new() -> PlusTimes<T> {
        PlusTimes(PhantomData)
    }
}

impl<T> Semiring for PlusTimes<T>
where
    T: Copy + Send + std::ops::Add<Output = T> + std::ops::Mul<Output = T>,
{
    type A = T;
    type B = T;
    type C = T;
    type Slot = Option<T>;

    #[inline]
    fn multiply(&self, a: &T, b: &T) -> T {
        *a * *b
    }

    #[inline]
    fn combine(&self, acc: &mut T, incoming: T) {
        *acc = *acc + incoming;
    }
}

/// The boolean semiring `(∨, ∧)` — structural products / reachability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolAndOr;

impl Semiring for BoolAndOr {
    type A = bool;
    type B = bool;
    type C = bool;
    type Slot = Option<bool>;

    #[inline]
    fn multiply(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }

    #[inline]
    fn combine(&self, acc: &mut bool, incoming: bool) {
        *acc = *acc || incoming;
    }
}

/// The tropical semiring `(min, +)` over `f64` — shortest paths.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type A = f64;
    type B = f64;
    type C = f64;
    type Slot = Option<f64>;

    #[inline]
    fn multiply(&self, a: &f64, b: &f64) -> f64 {
        *a + *b
    }

    #[inline]
    fn combine(&self, acc: &mut f64, incoming: f64) {
        if incoming < *acc {
            *acc = incoming;
        }
    }
}

/// Counting semiring: multiply ignores values and yields 1; combine sums —
/// SpGEMM over it counts, per output coordinate, the number of shared inner
/// indices. This is the structural skeleton of PASTIS's overlap detection
/// (the full pipeline uses a richer value carrying seed positions; see
/// `pastis-core::overlap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountShared<A, B>(PhantomData<(A, B)>);

impl<A, B> CountShared<A, B> {
    /// Create the counting semiring.
    pub fn new() -> CountShared<A, B> {
        CountShared(PhantomData)
    }
}

impl<A, B> Semiring for CountShared<A, B> {
    type A = A;
    type B = B;
    type C = u64;
    type Slot = Option<u64>;

    #[inline]
    fn multiply(&self, _a: &A, _b: &B) -> u64 {
        1
    }

    #[inline]
    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc += incoming;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_behaves_arithmetically() {
        let s = PlusTimes::<f64>::new();
        assert_eq!(s.multiply(&3.0, &4.0), 12.0);
        let mut acc = 1.0;
        s.combine(&mut acc, 2.0);
        assert_eq!(acc, 3.0);
    }

    #[test]
    fn plus_times_integer() {
        let s = PlusTimes::<u64>::new();
        assert_eq!(s.multiply(&3, &4), 12);
    }

    #[test]
    fn bool_and_or() {
        let s = BoolAndOr;
        assert!(s.multiply(&true, &true));
        assert!(!s.multiply(&true, &false));
        let mut acc = false;
        s.combine(&mut acc, true);
        assert!(acc);
    }

    #[test]
    fn min_plus_selects_shortest() {
        let s = MinPlus;
        assert_eq!(s.multiply(&2.0, &3.0), 5.0);
        let mut acc = 7.0;
        s.combine(&mut acc, 5.0);
        assert_eq!(acc, 5.0);
        s.combine(&mut acc, 9.0);
        assert_eq!(acc, 5.0);
    }

    #[test]
    fn count_shared_counts() {
        let s = CountShared::<char, char>::new();
        assert_eq!(s.multiply(&'x', &'y'), 1);
        let mut acc = 1;
        s.combine(&mut acc, 1);
        assert_eq!(acc, 2);
    }

    #[test]
    fn combine_associativity_spotcheck() {
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) for MinPlus on sample values.
        let s = MinPlus;
        let (a, b, c) = (3.0, 1.0, 2.0);
        let mut left = a;
        s.combine(&mut left, b);
        s.combine(&mut left, c);
        let mut bc = b;
        s.combine(&mut bc, c);
        let mut right = a;
        s.combine(&mut right, bc);
        assert_eq!(left, right);
    }
}
