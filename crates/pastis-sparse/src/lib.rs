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
//! * [`CscMatrix`] / [`DcscMatrix`] — (doubly) compressed sparse columns,
//!   CombBLAS's storage for ordinary and hypersparse blocks.
//! * [`Semiring`] — user-defined multiply/combine pairs; the overlap
//!   discovery "multiplication" of the paper is SpGEMM over a custom
//!   semiring whose values carry k-mer seed positions.
//! * [`spgemm_hash`] / [`spgemm_heap`] / [`spgemm_parallel`] — Gustavson
//!   row-wise kernels (the row kernel with its operand-chosen accumulator,
//!   the heap merge, and the row-partitioned multithreaded kernel), all
//!   semiring-generic and bit-identical to each
//!   other; [`SpGemmPool`] selects between them per multiplication
//!   ([`SpGemmKind`]).
//! * [`spgemm_esc`] — the outer-product expand–sort–compress kernel over
//!   DCSC operands for hypersparse blocks.
//! * [`spmv_dense`] / [`spmv_sparse`] — semiring matrix–vector products
//!   (the primitive the similarity graph's downstream clustering uses).
//! * [`DistSparseMatrix`] — a matrix 2D-block-distributed over a
//!   `√p × √p` [`pastis_comm::ProcessGrid`].
//! * [`summa`] — 2D Sparse SUMMA (`√p` broadcast stages).
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
pub mod dcsc;
pub mod distmat;
pub mod esc;
pub mod parallel;
pub mod semiring;
pub mod spgemm;
pub mod spmv;
pub mod spops;
pub mod summa;
pub mod triples;

pub use csr::CsrMatrix;
pub use dcsc::{CscMatrix, DcscMatrix};
pub use distmat::DistSparseMatrix;
pub use esc::spgemm_esc;
pub use parallel::{run_units, spgemm_parallel, spgemm_parallel_traced, SpGemmPool};
pub use semiring::{AccSlot, BoolAndOr, MinPlus, PlusTimes, Semiring};
pub use spgemm::{spgemm_dense_ref, spgemm_hash, spgemm_heap, SpGemmKind, SpGemmStats};
pub use spmv::{spmv_dense, spmv_sparse};
pub use spops::{spadd, spadd_into};
pub use summa::{
    summa, summa_with, summa_with_overlap, summa_with_overlap_hooked, BlockedSumma, StageMemHook,
};
pub use triples::{Index, Triple, Triples};

/// Approximate in-memory footprint in bytes of a CSR matrix with `nnz`
/// stored values of `val_size` bytes and `nrows` rows — used to feed the
/// α–β cost model with realistic broadcast payloads.
pub fn csr_payload_bytes(nrows: usize, nnz: usize, val_size: usize) -> usize {
    (nrows + 1) * std::mem::size_of::<usize>() + nnz * (std::mem::size_of::<Index>() + val_size)
}
