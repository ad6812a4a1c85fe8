//! CSR graphs and the mean-neighbour aggregation of the paper's GCN.
//!
//! The CSR is built with a two-pass counting sort (count, prefix-sum,
//! scatter — the same construction as `hetgraph::to_csr`), so building a
//! 300K-node graph touches no per-node heap allocations. Aggregation
//! picks between two bitwise-identical paths by feature width: a
//! row-wise loop for narrow features and the tiled SpMM kernel for wide
//! ones. Both run over disjoint output-row panels on the `m3d-par` pool
//! and are bitwise identical to the naive references in
//! [`reference`](crate::reference) at any thread count.

use crate::matrix::{self, Matrix};

/// An undirected graph in CSR form with self-loops, ready for GCN
/// aggregation (paper eq. (1): mean over neighbours).
///
/// # Examples
///
/// ```
/// use m3d_gnn::GcnGraph;
///
/// let g = GcnGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.degree(1), 3); // two neighbours + self-loop
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcnGraph {
    n: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl GcnGraph {
    /// Builds the graph from undirected edges over `n` nodes; duplicate
    /// edges are merged and self-loops are added to every node.
    ///
    /// Two-pass counting-sort CSR construction: count per-node entries,
    /// prefix-sum into offsets, scatter into flat storage, then sort,
    /// dedup and compact each row in place — no per-node `Vec`s.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        // Pass 1: count (self-loop plus both endpoints of each non-self
        // edge; duplicates are counted here and merged after the sort).
        let mut counts = vec![1u32; n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} nodes");
            if a != b {
                counts[a] += 1;
                counts[b] += 1;
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + counts[v];
        }
        // Pass 2: scatter.
        let mut neighbors = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (v, cur) in cursor.iter_mut().enumerate() {
            neighbors[*cur as usize] = v as u32;
            *cur += 1;
        }
        for &(a, b) in edges {
            if a != b {
                neighbors[cursor[a] as usize] = b as u32;
                cursor[a] += 1;
                neighbors[cursor[b] as usize] = a as u32;
                cursor[b] += 1;
            }
        }
        // Sort + dedup each row, compacting in place (the write cursor
        // never overtakes the read range).
        let mut w = 0usize;
        let mut merged = vec![0u32; n + 1];
        for v in 0..n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            neighbors[s..e].sort_unstable();
            let mut prev = u32::MAX;
            for idx in s..e {
                let x = neighbors[idx];
                if x != prev {
                    neighbors[w] = x;
                    w += 1;
                    prev = x;
                }
            }
            merged[v + 1] = w as u32;
        }
        neighbors.truncate(w);
        neighbors.shrink_to_fit();
        GcnGraph {
            n,
            offsets: merged,
            neighbors,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of stored CSR entries (directed neighbour slots, self-loops
    /// included) — the nonzero count of the aggregation operator, used as
    /// the work estimate for the `m3d-par` cost gate.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of a node (self-loop included).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of `v` (self-loop included), ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Mean-neighbour aggregation: `out[v] = (1/|N(v)|) Σ_{u∈N(v)} x[u]`.
    ///
    /// Dispatches by feature width: narrow features take the row-wise
    /// loop, wide ones the tiled SpMM kernel. Both add each output
    /// element's contributions in ascending neighbour order, so the
    /// result is bitwise identical to
    /// [`aggregate_naive`](crate::reference::aggregate_naive) at any
    /// thread count.
    pub fn aggregate(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.n, "feature rows must match nodes");
        let c = x.cols();
        let work = self.neighbors.len() as u64 * c as u64;
        if c > matrix::NARROW_N {
            // Wide rows: the SpMM register tiles keep accumulators out of
            // memory; the per-row 1/deg scale afterwards matches the
            // naive path's sum-then-scale order exactly.
            return Matrix::build_rows(self.n, c, work, |rows, out| {
                matrix::spmm_panel(
                    &self.offsets,
                    &self.neighbors,
                    None,
                    x.data(),
                    c,
                    rows.clone(),
                    out,
                );
                for v in rows.clone() {
                    let inv = 1.0 / self.degree(v) as f32;
                    let base = (v - rows.start) * c;
                    for o in &mut out[base..base + c] {
                        *o *= inv;
                    }
                }
            });
        }
        Matrix::build_rows(self.n, c, work, |rows, out| {
            for v in rows.clone() {
                let ns = self.neighbors(v);
                let inv = 1.0 / ns.len() as f32;
                let base = (v - rows.start) * c;
                let row = &mut out[base..base + c];
                for &u in ns {
                    for (o, &val) in row.iter_mut().zip(x.row(u as usize)) {
                        *o += val;
                    }
                }
                for o in row.iter_mut() {
                    *o *= inv;
                }
            }
        })
    }

    /// Transposed aggregation (`Mᵀ x`), needed for backpropagation.
    ///
    /// Computed row-wise as `out[u] = Σ_{v∈N(u)} x[v] / |N(v)|` with `v`
    /// ascending. Because the graph is undirected with self-loops
    /// (`u ∈ N(v) ⇔ v ∈ N(u)`) and neighbour lists are sorted, this adds
    /// exactly the same contributions in exactly the same order as the
    /// scatter formulation
    /// [`aggregate_transpose_naive`](crate::reference::aggregate_transpose_naive)
    /// — which is what makes row-panel parallelism bitwise safe here.
    /// Dispatches across the same two paths as [`GcnGraph::aggregate`].
    pub fn aggregate_transpose(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.n, "feature rows must match nodes");
        let c = x.cols();
        let work = self.neighbors.len() as u64 * c as u64;
        // One division per node instead of one per edge; each `1/|N(v)|`
        // is the exact value the scatter form computes.
        let inv_deg: Vec<f32> = (0..self.n).map(|v| 1.0 / self.degree(v) as f32).collect();
        if c > matrix::NARROW_N {
            // Scaled SpMM: one value per nonzero, `inv_deg` of the
            // neighbour, accumulated in the same ascending order as the
            // row-wise loop below.
            let vals: Vec<f32> = self
                .neighbors
                .iter()
                .map(|&v| inv_deg[v as usize])
                .collect();
            return Matrix::build_rows(self.n, c, work, |rows, out| {
                matrix::spmm_panel(
                    &self.offsets,
                    &self.neighbors,
                    Some(&vals),
                    x.data(),
                    c,
                    rows.clone(),
                    out,
                );
            });
        }
        Matrix::build_rows(self.n, c, work, |rows, out| {
            for u in rows.clone() {
                let base = (u - rows.start) * c;
                let row = &mut out[base..base + c];
                for &v in self.neighbors(u) {
                    let inv = inv_deg[v as usize];
                    for (o, &val) in row.iter_mut().zip(x.row(v as usize)) {
                        *o += val * inv;
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-counting-sort builder (one `Vec` per node), kept as the
    /// reference the CSR construction must reproduce exactly.
    fn from_edges_reference(n: usize, edges: &[(usize, usize)]) -> GcnGraph {
        let mut adj: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32]).collect();
        for &(a, b) in edges {
            assert!(a < n && b < n);
            if a != b {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        GcnGraph {
            n,
            offsets,
            neighbors,
        }
    }

    #[test]
    fn counting_sort_csr_is_identical_to_reference_builder() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for &(n, m) in &[(1usize, 0usize), (2, 1), (5, 3), (40, 120), (300, 900)] {
            let edges: Vec<(usize, usize)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            // Throw in duplicates and self-loops deliberately.
            let mut edges = edges;
            if m > 2 {
                edges.push(edges[0]);
                edges.push((edges[1].1, edges[1].0));
                edges.push((0, 0));
            }
            let fast = GcnGraph::from_edges(n, &edges);
            let slow = from_edges_reference(n, &edges);
            assert_eq!(fast.offsets, slow.offsets, "n={n} m={m}");
            assert_eq!(fast.neighbors, slow.neighbors, "n={n} m={m}");
        }
    }

    #[test]
    fn aggregation_averages_neighbours() {
        // Path 0-1-2 with features = node index.
        let g = GcnGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let agg = g.aggregate(&x);
        // node0: mean(0,1)=0.5; node1: mean(0,1,2)=1; node2: mean(1,2)=1.5
        assert!((agg[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((agg[(1, 0)] - 1.0).abs() < 1e-6);
        assert!((agg[(2, 0)] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn transpose_aggregation_is_adjoint() {
        // <M x, y> == <x, Mᵀ y> for random x, y.
        let g = GcnGraph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (1, 2)]);
        let x = Matrix::xavier(6, 3, 1);
        let y = Matrix::xavier(6, 3, 2);
        let mx = g.aggregate(&x);
        let mty = g.aggregate_transpose(&y);
        let lhs: f32 = mx.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(mty.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn rowwise_transpose_matches_scatter_reference_bitwise() {
        let g = GcnGraph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
                (1, 2),
                (6, 7),
                (4, 8),
                (5, 8),
            ],
        );
        let x = Matrix::xavier(9, 5, 7);
        let fast = g.aggregate_transpose(&x);
        let slow = crate::reference::aggregate_transpose_naive(&g, &x);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A ring with chords: rows of mixed degree.
    fn chord_ring(n: usize) -> GcnGraph {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        edges.extend((0..n).step_by(3).map(|v| (v, (v + n / 2) % n)));
        GcnGraph::from_edges(n, &edges)
    }

    #[test]
    fn wide_spmm_paths_match_naive_bitwise() {
        let g = chord_ring(70);
        // Past NARROW_N, so the dispatch takes the SpMM kernel instead
        // of the row-wise loop.
        let x = Matrix::xavier(70, 33, 13);
        let fast = g.aggregate(&x);
        let slow = crate::reference::aggregate_naive(&g, &x);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let fast_t = g.aggregate_transpose(&x);
        let slow_t = crate::reference::aggregate_transpose_naive(&g, &x);
        for (a, b) in fast_t.data().iter().zip(slow_t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = GcnGraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn isolated_nodes_keep_self_loops() {
        let g = GcnGraph::from_edges(3, &[]);
        for v in 0..3 {
            assert_eq!(g.degree(v), 1);
        }
        let x = Matrix::from_rows(&[&[5.0], &[6.0], &[7.0]]);
        assert_eq!(g.aggregate(&x), x);
    }
}
