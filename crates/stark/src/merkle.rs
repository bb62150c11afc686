//! Poseidon Merkle commitments over Goldilocks rows.
//!
//! One tree commits one codeword (or one multi-column row per leaf).
//! Leaves are compressed with a sponge chain of two-to-one Poseidon calls,
//! internal nodes with a single one. The hash is [`crate::poseidon`] — the
//! Goldilocks implementation of the permutation whose constants
//! `circuit::poseidon` owns, pinned equal to the generic one — and tree
//! construction feeds it four independent hashes at a time: four leaf rows
//! column by column, four sibling pairs per level.
//!
//! Layer construction runs on the deterministic pool: every node is a pure
//! function of its two children, chunk boundaries depend only on the layer
//! length, and nodes are written to disjoint slots, so the tree — and with
//! it every STARK proof byte — is identical at any thread count.

use zkperf_ff::{Field, Goldilocks};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::poseidon::{hash2, hash2_x4};

type F = Goldilocks;

/// Parallelization grain: hashing fewer nodes than this per task would be
/// dominated by pool dispatch.
const GRAIN: usize = 64;

/// Compresses one leaf row (any length, including empty) to a digest with
/// a zero-initialized sponge chain.
pub fn hash_row(row: &[F]) -> F {
    row.iter().fold(F::zero(), |acc, v| hash2(acc, *v))
}

/// [`hash_row`] of four rows with the four sponge chains in lock step;
/// rows of unequal width fall back to one chain at a time.
fn hash_rows_x4(rows: [Vec<F>; 4]) -> [F; 4] {
    let width = rows[0].len();
    if rows.iter().any(|r| r.len() != width) {
        return rows.map(|r| hash_row(&r));
    }
    (0..width).fold([F::zero(); 4], |acc, col| {
        hash2_x4(acc, std::array::from_fn(|lane| rows[lane][col]))
    })
}

/// Fills `out[j] = f(j)` given a four-wide `f4(j) = [f(j), …, f(j + 3)]`:
/// whole groups of four through `f4`, the tail through `f`.
fn fill_by_fours(out: &mut [F], f4: impl Fn(usize) -> [F; 4], f: impl Fn(usize) -> F) {
    let whole = out.len() - out.len() % 4;
    let (groups, tail) = out.split_at_mut(whole);
    for (g, group) in groups.chunks_exact_mut(4).enumerate() {
        group.copy_from_slice(&f4(4 * g));
    }
    for (j, slot) in tail.iter_mut().enumerate() {
        *slot = f(whole + j);
    }
}

/// A fully materialized Merkle tree over a power-of-two number of leaf
/// digests.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` are the leaf digests; each later level halves; the
    /// last holds the single root.
    levels: Vec<Vec<F>>,
}

impl MerkleTree {
    /// Builds the tree over precomputed leaf digests.
    ///
    /// # Panics
    ///
    /// Panics when `digests` is empty or not a power of two — domain
    /// sizes in this crate always are.
    pub fn from_leaf_digests(digests: Vec<F>) -> Self {
        assert!(
            digests.len().is_power_of_two(),
            "leaf count must be a power of two"
        );
        let _g = trace::region_profile("merkle");
        let mut levels = vec![digests];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = vec![F::zero(); prev.len() / 2];
            pool::parallel_chunks_mut(&mut next, GRAIN, |ci, chunk| {
                let pairs = &prev[2 * ci * GRAIN..];
                fill_by_fours(
                    chunk,
                    |j| {
                        hash2_x4(
                            std::array::from_fn(|lane| pairs[2 * (j + lane)]),
                            std::array::from_fn(|lane| pairs[2 * (j + lane) + 1]),
                        )
                    },
                    |j| hash2(pairs[2 * j], pairs[2 * j + 1]),
                );
            });
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Builds the tree over per-leaf rows produced by `row(i)`, hashing
    /// the leaves in parallel.
    pub fn from_rows(leaves: usize, row: impl Fn(usize) -> Vec<F> + Sync) -> Self {
        let _g = trace::region_profile("merkle");
        let mut digests = vec![F::zero(); leaves];
        pool::parallel_chunks_mut(&mut digests, GRAIN, |ci, chunk| {
            let first = ci * GRAIN;
            fill_by_fours(
                chunk,
                |j| hash_rows_x4(std::array::from_fn(|lane| row(first + j + lane))),
                |j| hash_row(&row(first + j)),
            );
        });
        Self::from_leaf_digests(digests)
    }

    /// The root digest.
    pub fn root(&self) -> F {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// The authentication path for `index`: sibling digests bottom-up.
    pub fn open(&self, index: usize) -> Vec<F> {
        let mut path = Vec::with_capacity(self.levels.len() - 1);
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            path.push(level[i ^ 1]);
            i >>= 1;
        }
        path
    }
}

/// Recomputes the root from a leaf digest and its authentication path;
/// `true` iff it matches `root`.
pub fn verify_path(root: F, index: usize, leaf_digest: F, path: &[F]) -> bool {
    let mut acc = leaf_digest;
    let mut i = index;
    for sibling in path {
        acc = if i & 1 == 0 {
            hash2(acc, *sibling)
        } else {
            hash2(*sibling, acc)
        };
        i >>= 1;
    }
    i == 0 && acc == root
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::test_rng;

    #[test]
    fn open_verifies_at_every_index() {
        let mut rng = test_rng();
        let digests: Vec<F> = (0..32).map(|_| F::random(&mut rng)).collect();
        let tree = MerkleTree::from_leaf_digests(digests.clone());
        for (i, d) in digests.iter().enumerate() {
            let path = tree.open(i);
            assert_eq!(path.len(), 5);
            assert!(verify_path(tree.root(), i, *d, &path));
            // Wrong index, wrong leaf, tampered sibling: all rejected.
            assert!(!verify_path(tree.root(), i ^ 1, *d, &path));
            assert!(!verify_path(tree.root(), i, *d + F::one(), &path));
            let mut bad = path.clone();
            bad[2] += F::one();
            assert!(!verify_path(tree.root(), i, *d, &bad));
        }
    }

    #[test]
    fn path_longer_than_tree_is_rejected() {
        let tree = MerkleTree::from_leaf_digests(vec![F::one(); 4]);
        let mut path = tree.open(1);
        assert!(verify_path(tree.root(), 1, F::one(), &path));
        path.push(F::zero());
        assert!(!verify_path(tree.root(), 1, F::one(), &path));
    }

    #[test]
    fn trees_are_thread_count_invariant() {
        let mut rng = test_rng();
        let rows: Vec<Vec<F>> = (0..256)
            .map(|_| (0..4).map(|_| F::random(&mut rng)).collect())
            .collect();
        let build = || MerkleTree::from_rows(rows.len(), |i| rows[i].clone()).root();
        pool::set_threads(1);
        let serial = build();
        pool::set_threads(4);
        let parallel = build();
        pool::set_threads(1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batched_builders_match_the_generic_hash_node_by_node() {
        use zkperf_circuit::poseidon::poseidon_hash2;
        let mut rng = test_rng();
        // Leaf counts below, at and past a group of four and the pool
        // grain; widths equal within a tree, then unequal (the fallback).
        for (log, ragged) in (0..=8).flat_map(|log| [(log, false), (log, true)]) {
            let leaves = 1usize << log;
            let rows: Vec<Vec<F>> = (0..leaves)
                .map(|i| {
                    let width = if ragged { (i * 7 + log) % 6 } else { log % 6 };
                    (0..width).map(|_| F::random(&mut rng)).collect()
                })
                .collect();
            let tree = MerkleTree::from_rows(leaves, |i| rows[i].clone());
            let mut level: Vec<F> = rows
                .iter()
                .map(|r| r.iter().fold(F::zero(), |acc, v| poseidon_hash2(acc, *v)))
                .collect();
            for built in &tree.levels {
                assert_eq!(*built, level, "{leaves} leaves, ragged {ragged}");
                level = level
                    .chunks(2)
                    .map(|p| poseidon_hash2(p[0], p[p.len() - 1]))
                    .collect();
            }
        }
    }

    #[test]
    fn traced_hashing_equals_untraced() {
        let mut rng = test_rng();
        let rows: Vec<Vec<F>> = (0..16)
            .map(|_| (0..3).map(|_| F::random(&mut rng)).collect())
            .collect();
        let run = || {
            let tree = MerkleTree::from_rows(rows.len(), |i| rows[i].clone());
            (
                hash_row(&rows[0]),
                tree.root(),
                verify_path(tree.root(), 5, tree.levels[0][5], &tree.open(5)),
            )
        };
        let untraced = run();
        let session = trace::Session::begin();
        let traced = run();
        let report = session.finish();
        assert_eq!(traced, untraced);
        assert!(traced.2);
        // The kernel reports every permutation, four-lane or single, as one
        // region entry: 16·3 leaf + 15 node + 3 + 4 path.
        assert_eq!(report.region("poseidon").map(|p| p.calls), Some(70));
    }

    #[test]
    fn single_leaf_tree_is_its_own_root() {
        let tree = MerkleTree::from_leaf_digests(vec![F::from_u64(9)]);
        assert_eq!(tree.root(), F::from_u64(9));
        assert!(tree.open(0).is_empty());
        assert!(verify_path(tree.root(), 0, F::from_u64(9), &[]));
    }
}
