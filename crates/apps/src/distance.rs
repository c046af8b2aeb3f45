//! Pairwise distances and DBSCAN clustering (paper §1: "clustering
//! algorithms like DBSCAN group elements based on their similarity").

use crate::vector::DenseVector;
use pmr_core::runner::{CompFn, PairwiseOutput};

/// Euclidean distance between dense vectors.
pub fn euclidean(a: &DenseVector, b: &DenseVector) -> f64 {
    assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    a.0.iter().zip(&b.0).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Manhattan (L1) distance.
pub fn manhattan(a: &DenseVector, b: &DenseVector) -> f64 {
    assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    a.0.iter().zip(&b.0).map(|(x, y)| (x - y).abs()).sum()
}

/// Cosine *distance* `1 − cos(a, b)` (0 for identical directions).
pub fn cosine_distance(a: &DenseVector, b: &DenseVector) -> f64 {
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        1.0
    } else {
        1.0 - a.dot(b) / denom
    }
}

/// A [`CompFn`] computing Euclidean distance (the pairwise `comp` of the
/// DBSCAN workload).
pub fn euclidean_comp() -> CompFn<DenseVector, f64> {
    pmr_core::runner::comp_fn(euclidean)
}

/// DBSCAN cluster labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given id.
    Cluster(u32),
}

/// Runs DBSCAN given the aggregated pairwise-distance output.
///
/// `output` must hold, per element, *all* `(other, distance)` entries (the
/// full Figure-2 neighbor lists) or at least every entry with distance
/// `≤ eps` (a [`pmr_core::runner::FilterAggregator`]-pruned run — the
/// optimization the paper mentions for DBSCAN).
///
/// A point is *core* when it has at least `min_pts` neighbors within `eps`
/// (counting itself); clusters are the connected components of core points
/// under ε-adjacency, with border points attached to any adjacent core.
pub fn dbscan(output: &PairwiseOutput<f64>, eps: f64, min_pts: usize) -> Vec<DbscanLabel> {
    let v = output.per_element.len();
    // ε-neighborhoods (ids are dense 0..v).
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); v];
    for (id, results) in &output.per_element {
        for (other, d) in results {
            if *d <= eps {
                neighbors[*id as usize].push(*other as u32);
            }
        }
    }
    let core: Vec<bool> = neighbors.iter().map(|nb| nb.len() + 1 >= min_pts).collect();

    let mut labels = vec![DbscanLabel::Noise; v];
    let mut cluster = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for start in 0..v {
        if !core[start] || labels[start] != DbscanLabel::Noise {
            continue;
        }
        labels[start] = DbscanLabel::Cluster(cluster);
        stack.push(start as u32);
        while let Some(p) = stack.pop() {
            for &q in &neighbors[p as usize] {
                let q = q as usize;
                if labels[q] == DbscanLabel::Noise {
                    labels[q] = DbscanLabel::Cluster(cluster);
                    if core[q] {
                        stack.push(q as u32);
                    }
                }
            }
        }
        cluster += 1;
    }
    labels
}

/// The k-distance curve used to pick DBSCAN's ε (Ester et al., §4.2 of the
/// DBSCAN paper): for every point, its distance to the `k`-th nearest
/// neighbor, sorted descending. The "elbow" of this curve is the usual ε
/// choice. Requires the full (unpruned) pairwise output.
pub fn k_distance_curve(output: &PairwiseOutput<f64>, k: usize) -> Vec<f64> {
    let mut curve: Vec<f64> = output
        .per_element
        .iter()
        .filter_map(|(_, results)| {
            let mut ds: Vec<f64> = results.iter().map(|(_, d)| *d).collect();
            if ds.len() < k {
                return None;
            }
            ds.sort_by(f64::total_cmp);
            Some(ds[k - 1])
        })
        .collect();
    curve.sort_by(|a, b| b.total_cmp(a));
    curve
}

/// Number of clusters in a label vector.
pub fn num_clusters(labels: &[DbscanLabel]) -> usize {
    labels
        .iter()
        .filter_map(|l| match l {
            DbscanLabel::Cluster(c) => Some(*c),
            DbscanLabel::Noise => None,
        })
        .max()
        .map_or(0, |m| m as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gaussian_clusters;
    use crate::testutil::{reference, reference_with};
    use pmr_core::runner::FilterAggregator;

    #[test]
    fn distances_basic() {
        let a = DenseVector(vec![0.0, 0.0]);
        let b = DenseVector(vec![3.0, 4.0]);
        assert_eq!(euclidean(&a, &b), 5.0);
        assert_eq!(manhattan(&a, &b), 7.0);
        assert!((cosine_distance(&b, &b)).abs() < 1e-12);
        assert_eq!(cosine_distance(&a, &b), 1.0); // zero vector
    }

    #[test]
    fn dbscan_recovers_planted_clusters() {
        let (points, truth) = gaussian_clusters(90, 3, 2, 0.4, 11);
        let out = reference(&points, &euclidean_comp());
        let labels = dbscan(&out, 3.0, 4);
        assert_eq!(num_clusters(&labels), 3);
        // Every pair with the same truth label must share a cluster label.
        for i in 0..90 {
            for j in 0..i {
                let same_truth = truth[i] == truth[j];
                let same_label = labels[i] == labels[j];
                assert_eq!(same_truth, same_label, "points {i},{j}");
            }
        }
    }

    #[test]
    fn dbscan_with_pruned_results_matches_full() {
        // The paper's pruning remark: only distances ≤ ε need to be kept.
        let (points, _) = gaussian_clusters(60, 2, 3, 0.5, 5);
        let eps = 4.0;
        let full = reference(&points, &euclidean_comp());
        let pruned = reference_with(
            &points,
            &euclidean_comp(),
            FilterAggregator::new(move |d: &f64| *d <= eps),
        );
        assert!(pruned.total_results() < full.total_results());
        assert_eq!(dbscan(&full, eps, 4), dbscan(&pruned, eps, 4));
    }

    #[test]
    fn k_distance_curve_separates_cluster_scale_from_gap_scale() {
        let (points, _) = gaussian_clusters(60, 3, 2, 0.4, 11);
        let out = reference(&points, &euclidean_comp());
        let curve = k_distance_curve(&out, 4);
        assert_eq!(curve.len(), 60);
        // Sorted descending.
        assert!(curve.windows(2).all(|w| w[0] >= w[1]));
        // Every point's 4-NN distance is within its own (tight) cluster:
        // the whole curve sits well below the inter-cluster gap, and an ε
        // chosen anywhere above the curve's head recovers the 3 clusters.
        let eps = curve[0] * 1.5;
        let labels = dbscan(&out, eps, 4);
        assert_eq!(num_clusters(&labels), 3);
    }

    #[test]
    fn dbscan_all_noise_when_eps_tiny() {
        let (points, _) = gaussian_clusters(20, 2, 2, 1.0, 3);
        let out = reference(&points, &euclidean_comp());
        let labels = dbscan(&out, 1e-9, 3);
        assert!(labels.iter().all(|l| *l == DbscanLabel::Noise));
        assert_eq!(num_clusters(&labels), 0);
    }

    #[test]
    fn dbscan_single_cluster_when_eps_huge() {
        let (points, _) = gaussian_clusters(20, 4, 2, 1.0, 3);
        let out = reference(&points, &euclidean_comp());
        let labels = dbscan(&out, 1e9, 2);
        assert_eq!(num_clusters(&labels), 1);
    }
}
