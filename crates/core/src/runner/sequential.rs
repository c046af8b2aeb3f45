//! Single-threaded reference execution: the paper's trivial solution
//! (`b = 1`, `D₁ = S`, `P₁` the full strict upper triangle).
//!
//! Runs through the same `evaluate_task` as the parallel backends (the
//! stream here is the full triangle rather than one task's share), so the
//! ground truth exercises the identical filter, tile and kernel code.

use crate::runner::filter::PairFilter;
use crate::runner::kernel::{evaluate_task, BatchComp};
use crate::runner::local::LocalRunStats;
use crate::runner::{Accumulator, Aggregator, PairwiseOutput, Symmetry};

/// Evaluates all pairs of `payloads` sequentially — the full strict upper
/// triangle as one task, optionally screened by a [`PairFilter`]. Element
/// `i` of the slice has id `i`. Each element has exactly one accumulator,
/// so the aggregator folds straight into it (decomposable or not) and
/// finishes it; the stats report one task whose working set is the whole
/// dataset, with pruning tallies only when a filter was active.
pub(crate) fn run_sequential<T, R: Clone>(
    payloads: &[T],
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    filter: Option<&dyn PairFilter>,
) -> (PairwiseOutput<R>, LocalRunStats) {
    let v = payloads.len() as u64;
    let mut accs: Vec<Accumulator<R>> = (0..v).map(|id| aggregator.init(id)).collect();
    let (evaluations, prune) = evaluate_task(
        |f| {
            for a in 1..v {
                for b in 0..a {
                    f(a, b);
                }
            }
        },
        filter,
        kernel,
        symmetry,
        |id| &payloads[id as usize],
        |element, other, result| aggregator.fold(&mut accs[element as usize], other, result),
    );
    let per_element = accs.into_iter().map(|acc| (acc.element(), aggregator.finish(acc))).collect();
    let stats =
        LocalRunStats { tasks: 1, evaluations, max_working_set: v, pruning: filter.map(|_| prune) };
    (PairwiseOutput { per_element }, stats)
}

#[cfg(test)]
mod tests {
    use crate::runner::{comp_fn, CompFn, PairwiseJob, PairwiseOutput, Symmetry};

    fn run(payloads: &[i64], comp: &CompFn<i64, i64>, symmetry: Symmetry) -> PairwiseOutput<i64> {
        PairwiseJob::new(payloads, comp.clone()).symmetry(symmetry).run().unwrap().output
    }

    #[test]
    fn all_pairs_of_integers() {
        let payloads: Vec<i64> = vec![10, 20, 30];
        let comp = comp_fn(|a: &i64, b: &i64| (a - b).abs());
        let out = run(&payloads, &comp, Symmetry::Symmetric);
        assert_eq!(out.per_element.len(), 3);
        assert_eq!(out.results_of(0).unwrap(), &[(1, 10), (2, 20)]);
        assert_eq!(out.results_of(1).unwrap(), &[(0, 10), (2, 10)]);
        assert_eq!(out.results_of(2).unwrap(), &[(0, 20), (1, 10)]);
        // v−1 results per element (Figure 2).
        assert_eq!(out.total_results(), 3 * 2);
    }

    #[test]
    fn non_symmetric_directional() {
        let payloads: Vec<i64> = vec![1, 5];
        let comp = comp_fn(|a: &i64, b: &i64| a - b);
        let out = run(&payloads, &comp, Symmetry::NonSymmetric);
        assert_eq!(out.results_of(0).unwrap(), &[(1, -4)]); // comp(p0, p1)
        assert_eq!(out.results_of(1).unwrap(), &[(0, 4)]); // comp(p1, p0)
    }

    #[test]
    fn empty_and_singleton() {
        let comp = comp_fn(|a: &i64, b: &i64| a + b);
        let out = run(&[], &comp, Symmetry::Symmetric);
        assert!(out.per_element.is_empty());
        let out = run(&[7], &comp, Symmetry::Symmetric);
        assert_eq!(out.per_element.len(), 1);
        assert!(out.results_of(0).unwrap().is_empty());
    }
}
