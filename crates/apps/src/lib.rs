//! # pmr-apps — the paper's motivating applications
//!
//! Runnable versions of the four §1 workloads of *Pairwise Element
//! Computation with MapReduce*, each built on the `pmr-core` pairwise
//! runner with a synthetic workload generator:
//!
//! * [`distance`] — pairwise Euclidean/Manhattan/cosine distances and
//!   DBSCAN clustering on the aggregated neighbor lists;
//! * [`docsim`] — pairwise document cosine similarity, plus the Elsayed
//!   et al. inverted-index MapReduce baseline the paper's §2 contrasts
//!   against;
//! * [`mutualinfo`] — binned pairwise mutual information and gene-network
//!   edge reconstruction;
//! * [`covariance`] — covariance matrices via pairwise inner products and
//!   PCA by power iteration;
//! * [`prune`] — candidate pruning (exact prefix filtering, minhash LSH
//!   banding) for thresholded similarity joins;
//! * [`vector`] / [`generate`] — payload types and synthetic data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod covariance;
pub mod distance;
pub mod docsim;
pub mod generate;
pub mod kernels;
pub mod mutualinfo;
pub mod prune;
pub mod vector;

pub use vector::{DenseVector, SparseVector};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared sequential-reference setup for the app test suites: every
    //! suite compares against the same symmetric ground-truth run, so the
    //! aggregator plumbing lives here and each call site stays one line.
    use pmr_core::runner::{Aggregator, CompFn, ConcatSort, PairwiseJob, PairwiseOutput};
    use pmr_mapreduce::Wire;

    /// Symmetric sequential reference with the default concat-sort
    /// aggregator.
    pub fn reference<T, R>(data: &[T], comp: &CompFn<T, R>) -> PairwiseOutput<R>
    where
        T: Wire + Clone + Sync,
        R: Wire + Clone + Sync,
    {
        reference_with(data, comp, ConcatSort)
    }

    /// [`reference`] under a custom aggregator (pruned / top-k runs).
    pub fn reference_with<T, R>(
        data: &[T],
        comp: &CompFn<T, R>,
        aggregator: impl Aggregator<R> + 'static,
    ) -> PairwiseOutput<R>
    where
        T: Wire + Clone + Sync,
        R: Wire + Clone + Sync,
    {
        PairwiseJob::new(data, comp.clone()).aggregator(aggregator).run().unwrap().output
    }
}
