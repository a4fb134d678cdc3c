//! CombBLAS-equivalent distributed sparse-matrix substrate for PASTIS-RS.
//!
//! PASTIS expresses protein similarity search as sparse matrix algebra: a
//! sequences-by-k-mers matrix `A`, an overlap matrix `C = A·Aᵀ` computed by
//! a semiring SpGEMM, and a similarity graph assembled from aligned pairs.
//! The paper's substrate for this is CombBLAS; this crate rebuilds the parts
//! PASTIS needs, from storage formats up to the paper's own Blocked 2D
//! Sparse SUMMA generalization (Section VI-A):
//!
//! * [`Triples`] — coordinate (COO) form, the interchange format.
//! * [`CsrMatrix`] — compressed sparse rows, the local compute format.
//!   CombBLAS keeps hypersparse blocks in DCSC; here a hypersparse operand
//!   (an index stripe) is a CSR over its nonempty rows only, with their
//!   ids beside it, and the other operand is relabelled into those rows
//!   (`pastis_core::kmer`), so the row kernels below serve it too.
//! * [`Semiring`] — user-defined multiply/combine pairs; the overlap
//!   discovery "multiplication" of the paper is SpGEMM over a custom
//!   semiring whose values carry k-mer seed positions.
//! * [`spgemm_hash`] / [`spgemm_heap`] / [`spgemm_parallel`] — Gustavson
//!   row-wise kernels (the row kernel with its operand-chosen accumulator,
//!   the heap merge, and the row-partitioned multithreaded kernel), all
//!   semiring-generic and bit-identical to each
//!   other; [`SpGemmPool`] selects between them per multiplication
//!   ([`SpGemmKind`]) and runs each through one chunk driver,
//!   [`SpGemmPool::visit`], which hands the product to a consumer 16 rows
//!   at a time so that it need never be held whole.
//! * [`DistSparseMatrix`] — a matrix 2D-block-distributed over a
//!   `√p × √p` [`pastis_comm::ProcessGrid`].
//! * [`summa`](fn@summa) — 2D Sparse SUMMA (`√p` broadcast stages), visited like
//!   one local product.
//! * [`BlockedSumma`] — the paper's blocked variant: the output is formed
//!   in `br × bc` blocks so the search can run incrementally under a memory
//!   budget.
//!
//! # Example: semiring SpGEMM
//!
//! ```
//! use pastis_sparse::{CsrMatrix, Triples, PlusTimes, spgemm_hash};
//!
//! let a = CsrMatrix::from_triples(Triples::from_entries(
//!     2, 3, vec![(0, 0, 2.0f64), (0, 2, 1.0), (1, 1, 3.0)],
//! ));
//! let b = CsrMatrix::from_triples(Triples::from_entries(
//!     3, 2, vec![(0, 1, 4.0f64), (1, 0, 1.0), (2, 1, 5.0)],
//! ));
//! let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
//! assert_eq!(c.get(0, 1), Some(&13.0)); // 2·4 + 1·5
//! assert_eq!(stats.products, 3);
//! ```

#![warn(missing_docs)]

pub mod csr;
pub mod distmat;
pub mod parallel;
pub mod semiring;
pub mod spgemm;
pub mod spops;
pub mod summa;
pub mod triples;

pub use csr::CsrMatrix;
pub use distmat::DistSparseMatrix;
pub use parallel::{
    run_units, spgemm_parallel, spgemm_parallel_traced, SpGemmPool, Stitch, Visited,
};
pub use semiring::{AccSlot, BoolAndOr, MinPlus, PlusTimes, Semiring};
pub use spgemm::{spgemm_dense_ref, spgemm_hash, spgemm_heap, SpGemmKind, SpGemmStats};
pub use spops::spadd_into;
pub use summa::{summa, BlockedSumma};
pub use triples::{Index, Triple, Triples};

/// Approximate in-memory footprint in bytes of a CSR matrix with `nnz`
/// stored values of `val_size` bytes and `nrows` rows — used to feed the
/// α–β cost model with realistic broadcast payloads.
pub fn csr_payload_bytes(nrows: usize, nnz: usize, val_size: usize) -> usize {
    (nrows + 1) * std::mem::size_of::<usize>() + nnz * (std::mem::size_of::<Index>() + val_size)
}
