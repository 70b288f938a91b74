//! The scenario **grid** subsystem: composing independent parameter
//! axes (link × train × tool, or any other enumerable dimensions) into
//! one flattened cell space scheduled through the replication engine.
//!
//! `core::sweep` schedules a *single* parameter axis per figure; the
//! paper's core claim is a function of three axes at once — the link
//! configuration, the probe-train shape, and the measurement tool. A
//! [`GridScenario`] describes one cell of that product space by its
//! multi-dimensional coordinate; [`GridRunner`] flattens the coordinate
//! space row-major (last axis fastest) and schedules every
//! `(cell × replication)` pair through
//! [`csmaprobe_desim::replicate::run_cells_emit`], streaming finished
//! rows to a consumer in ascending cell order.
//!
//! # Determinism guarantees
//!
//! The runner inherits the engine's bit-compatibility contract: each
//! cell's replications fold on the cell-local
//! [`CHUNK`](csmaprobe_desim::replicate::CHUNK) grid and merge in
//! ascending chunk order, so every cell's accumulator is
//! **bit-identical** to a standalone
//! `run_reduce(reps(coord), …)` over the same replications — for any
//! worker count, any surrounding grid, and (crucially for resume) any
//! *subset* of scheduled cells: [`GridRunner::run_cells_with`] over the
//! still-missing cells of an interrupted run reproduces exactly the
//! rows an uninterrupted run would have produced for them.
//!
//! # Streaming
//!
//! [`GridRunner::run_cells_with`] emits each finished row as soon as
//! its cell's last chunk has merged, holding at most one pending cell
//! plus O(workers) chunk accumulators — a grid of a million cells never
//! materialises a million accumulators. This is what makes incremental,
//! crash-tolerant persistence (the `bench` JSONL row sink) possible.

use csmaprobe_desim::replicate;
use csmaprobe_stats::accumulate::Accumulate;

/// One shard of a sharded grid campaign: this process owns the cells at
/// positions `index`, `index + count`, `index + 2·count`, … of the
/// campaign's **name-keyed** cell order (see [`shard_members`]).
///
/// `0/1` (the [`ShardSpec::solo`] default) is the unsharded campaign:
/// one shard owning every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards in the campaign, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// The unsharded campaign: one shard owning everything.
    pub fn solo() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Is this the unsharded `0/1` campaign?
    pub fn is_solo(&self) -> bool {
        self.count == 1
    }

    /// Parse an `i/n` CLI spec (`--shard 0/4`): both integers, `n >= 1`
    /// and `i < n`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .trim()
            .split_once('/')
            .ok_or_else(|| format!("malformed shard spec {s:?} (expected i/n, e.g. 0/4)"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index {i:?} is not an integer"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range (must be below the count {count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The flat cell indices owned by `shard` out of `total` cells, in
/// **ascending flat order** (ready for [`GridRunner::run_cells_with`]).
///
/// Membership is decided by round-robin over the cells sorted by
/// `key_of` (ties broken by flat index): the cell at sorted position
/// `p` belongs to shard `p % shard.count`. With a *name* key (as the
/// bench grid uses) shard membership depends only on the set of cell
/// names in the campaign — never on axis selection order — so two
/// operators spelling the same campaign differently still agree on who
/// owns which cell.
///
/// # Panics
/// If `shard.count == 0` or `shard.index >= shard.count`.
pub fn shard_members<K: Ord>(
    total: usize,
    shard: ShardSpec,
    key_of: impl Fn(usize) -> K,
) -> Vec<usize> {
    assert!(shard.count >= 1, "shard count must be at least 1");
    assert!(shard.index < shard.count, "shard index out of range");
    let keys: Vec<K> = (0..total).map(&key_of).collect();
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    let mut members: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(pos, _)| pos % shard.count == shard.index)
        .map(|(_, &flat)| flat)
        .collect();
    members.sort_unstable();
    members
}

/// The shape of a grid: one extent per axis, flattened row-major (the
/// **last** axis varies fastest, like a nested `for` loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridShape {
    dims: Vec<usize>,
}

impl GridShape {
    /// A shape with the given per-axis extents.
    pub fn new(dims: Vec<usize>) -> Self {
        GridShape { dims }
    }

    /// Per-axis extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of cells (product of extents; 1 for a zero-axis
    /// grid, 0 if any axis is empty).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// No cells at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major flat index of `coord` (last axis fastest).
    ///
    /// # Panics
    /// If `coord` has the wrong arity or any component is out of range.
    pub fn flatten(&self, coord: &[usize]) -> usize {
        assert_eq!(coord.len(), self.dims.len(), "coordinate arity");
        let mut flat = 0usize;
        for (c, d) in coord.iter().zip(&self.dims) {
            assert!(c < d, "coordinate {c} out of range {d}");
            flat = flat * d + c;
        }
        flat
    }

    /// Inverse of [`GridShape::flatten`].
    ///
    /// # Panics
    /// If `flat >= self.len()`.
    pub fn unflatten(&self, flat: usize) -> Vec<usize> {
        assert!(flat < self.len(), "flat index {flat} out of range");
        let mut coord = vec![0usize; self.dims.len()];
        let mut rest = flat;
        for (slot, d) in coord.iter_mut().zip(&self.dims).rev() {
            *slot = rest % d;
            rest /= d;
        }
        coord
    }

    /// Iterate all coordinates in flat (row-major) order.
    pub fn coords(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        (0..self.len()).map(|f| self.unflatten(f))
    }
}

/// A parameterised *grid* of scenarios — one cell per coordinate of the
/// product space of independent axes.
///
/// The contract mirrors [`SweepScenario`](crate::sweep::SweepScenario)
/// with multi-dimensional cell addressing: [`GridScenario::replicate`]
/// must be a pure function of `(coord, rep)` (derive all randomness
/// from them), and [`GridScenario::Acc`] must satisfy the
/// [`Accumulate`] merge law, so the runner may execute cells in any
/// order on any worker.
pub trait GridScenario: Sync {
    /// Streaming per-cell accumulator.
    type Acc: Accumulate + Send;
    /// Finished row type, one per cell.
    type Row: Send;

    /// Short identifier (for registries and logs).
    fn name(&self) -> &str;

    /// The axis extents of the product space.
    fn shape(&self) -> GridShape;

    /// Replication budget of the cell at `coord`.
    fn reps(&self, coord: &[usize]) -> usize;

    /// A fresh (identity) accumulator for the cell at `coord`.
    fn identity(&self, coord: &[usize]) -> Self::Acc;

    /// Run replication `rep` of the cell at `coord`, folding its
    /// observations into `acc`. Must be a pure function of
    /// `(coord, rep)`.
    fn replicate(&self, coord: &[usize], rep: usize, acc: &mut Self::Acc);

    /// Turn a fully-reduced cell into its row.
    fn finish(&self, coord: &[usize], acc: Self::Acc) -> Self::Row;
}

/// Schedules the cells of a [`GridScenario`] through the shared
/// work-stealing chunk executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridRunner;

impl GridRunner {
    /// A runner with default scheduling.
    pub fn new() -> Self {
        GridRunner
    }

    /// Run **every** cell and return one row per cell, in flat
    /// (row-major) order.
    pub fn run<G: GridScenario + ?Sized>(&self, grid: &G) -> Vec<G::Row> {
        let shape = grid.shape();
        let all: Vec<usize> = (0..shape.len()).collect();
        let mut rows = Vec::with_capacity(all.len());
        self.run_cells_with(grid, &all, |_, row| rows.push(row));
        rows
    }

    /// Run only the cells whose **flat indices** are listed in `cells`
    /// (ascending, no duplicates), streaming each finished row to
    /// `emit(flat, row)` in ascending flat order as soon as the cell
    /// completes.
    ///
    /// This is the resume path: an interrupted run re-schedules exactly
    /// the cells missing from its persisted row set, and — by the
    /// engine's cell-local chunk-grid contract — produces rows
    /// bit-identical to what the uninterrupted run would have written.
    ///
    /// # Panics
    /// If `cells` is not strictly ascending or indexes past the grid.
    pub fn run_cells_with<G, E>(&self, grid: &G, cells: &[usize], mut emit: E)
    where
        G: GridScenario + ?Sized,
        E: FnMut(usize, G::Row) + Send,
    {
        let shape = grid.shape();
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "cell list must be strictly ascending"
        );
        if let Some(&last) = cells.last() {
            assert!(
                last < shape.len(),
                "cell {last} out of range {}",
                shape.len()
            );
        }
        let coords: Vec<Vec<usize>> = cells.iter().map(|&f| shape.unflatten(f)).collect();
        let budgets: Vec<usize> = coords.iter().map(|c| grid.reps(c)).collect();
        replicate::run_cells_emit(
            &budgets,
            |i, rep, acc: &mut G::Acc| grid.replicate(&coords[i], rep, acc),
            |i| grid.identity(&coords[i]),
            |a, b| a.merge(b),
            |i, acc| emit(cells[i], grid.finish(&coords[i], acc)),
        );
    }
}

/// Convenience: run every cell of `grid` with a default [`GridRunner`].
pub fn run_grid<G: GridScenario + ?Sized>(grid: &G) -> Vec<G::Row> {
    GridRunner::new().run(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_desim::rng::{derive_seed, SimRng};
    use csmaprobe_stats::online::OnlineStats;

    /// A synthetic 3-axis grid: cell `(i, j, k)` averages
    /// `reps(i,j,k)` pseudo observations derived from the coordinate.
    struct Synthetic {
        dims: Vec<usize>,
        seed: u64,
    }

    impl Synthetic {
        fn cell_seed(&self, coord: &[usize]) -> u64 {
            coord
                .iter()
                .fold(self.seed, |s, &c| derive_seed(s, c as u64))
        }
    }

    impl GridScenario for Synthetic {
        type Acc = OnlineStats;
        type Row = (Vec<usize>, u64, f64);

        fn name(&self) -> &str {
            "synthetic"
        }
        fn shape(&self) -> GridShape {
            GridShape::new(self.dims.clone())
        }
        fn reps(&self, coord: &[usize]) -> usize {
            // Deterministic, coordinate-dependent budget incl. zeros.
            (coord.iter().sum::<usize>() * 3) % 5
        }
        fn identity(&self, _coord: &[usize]) -> OnlineStats {
            OnlineStats::new()
        }
        fn replicate(&self, coord: &[usize], rep: usize, acc: &mut OnlineStats) {
            let s = derive_seed(self.cell_seed(coord), rep as u64);
            acc.push(SimRng::new(s).f64());
        }
        fn finish(&self, coord: &[usize], acc: OnlineStats) -> Self::Row {
            (coord.to_vec(), acc.count(), acc.mean())
        }
    }

    #[test]
    fn shape_flatten_unflatten_roundtrip() {
        let s = GridShape::new(vec![3, 4, 2]);
        assert_eq!(s.len(), 24);
        for flat in 0..s.len() {
            let coord = s.unflatten(flat);
            assert_eq!(s.flatten(&coord), flat);
        }
        // Row-major: last axis fastest.
        assert_eq!(s.unflatten(0), vec![0, 0, 0]);
        assert_eq!(s.unflatten(1), vec![0, 0, 1]);
        assert_eq!(s.unflatten(2), vec![0, 1, 0]);
        assert_eq!(s.unflatten(23), vec![2, 3, 1]);
    }

    #[test]
    fn empty_axis_means_empty_grid() {
        let s = GridShape::new(vec![3, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        let g = Synthetic {
            dims: vec![3, 0, 2],
            seed: 1,
        };
        assert!(run_grid(&g).is_empty());
    }

    #[test]
    fn grid_matches_nested_sequential_reference() {
        let g = Synthetic {
            dims: vec![2, 3, 2],
            seed: 0x9E1D,
        };
        let rows = run_grid(&g);
        assert_eq!(rows.len(), 12);
        let shape = g.shape();
        for (flat, (coord, count, mean)) in rows.iter().enumerate() {
            assert_eq!(*coord, shape.unflatten(flat));
            // Sequential reference for this cell.
            let mut acc = OnlineStats::new();
            for rep in 0..g.reps(coord) {
                g.replicate(coord, rep, &mut acc);
            }
            assert_eq!(*count, acc.count());
            assert_eq!(mean.to_bits(), acc.mean().to_bits(), "cell {coord:?}");
        }
    }

    #[test]
    fn subset_rows_bit_identical_to_full_run() {
        let g = Synthetic {
            dims: vec![3, 3],
            seed: 7,
        };
        let full = run_grid(&g);
        // Run the odd cells only, as a resume would.
        let subset: Vec<usize> = (0..g.shape().len()).filter(|f| f % 2 == 1).collect();
        let mut got = Vec::new();
        GridRunner::new().run_cells_with(&g, &subset, |flat, row| got.push((flat, row)));
        assert_eq!(got.len(), subset.len());
        let mut last = None;
        for (flat, (coord, count, mean)) in &got {
            assert!(
                last.map(|l| l < *flat).unwrap_or(true),
                "ascending emission"
            );
            last = Some(*flat);
            let (rc, rn, rm) = &full[*flat];
            assert_eq!(coord, rc);
            assert_eq!(count, rn);
            assert_eq!(mean.to_bits(), rm.to_bits(), "cell {flat}");
        }
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse(" 3/8 ").unwrap(),
            ShardSpec { index: 3, count: 8 }
        );
        assert!(
            ShardSpec::parse("4/4").is_err(),
            "index must be below count"
        );
        assert!(ShardSpec::parse("0/0").is_err(), "count must be >= 1");
        assert!(ShardSpec::parse("0").is_err(), "missing slash");
        assert!(ShardSpec::parse("a/b").is_err(), "non-numeric");
        assert!(ShardSpec::parse("-1/2").is_err(), "negative index");
        assert_eq!(ShardSpec::solo().to_string(), "0/1");
        assert!(ShardSpec::solo().is_solo());
        assert!(!ShardSpec::parse("0/2").unwrap().is_solo());
    }

    #[test]
    fn shard_members_partition_the_cell_space() {
        let key = |f: usize| format!("cell-{f:03}");
        for total in [0usize, 1, 5, 24] {
            for count in 1..=8usize {
                let mut seen = vec![false; total];
                for index in 0..count {
                    let members = shard_members(total, ShardSpec { index, count }, key);
                    assert!(
                        members.windows(2).all(|w| w[0] < w[1]),
                        "ascending flat order"
                    );
                    for &f in &members {
                        assert!(!seen[f], "cell {f} owned by two shards");
                        seen[f] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "union covers every cell");
            }
        }
        // Solo shard owns everything.
        assert_eq!(shard_members(4, ShardSpec::solo(), key), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_membership_follows_the_key_order_not_the_flat_order() {
        // Reverse the key order: sorted position of flat f is 3 - f, so
        // shard 0 of 2 owns sorted positions {0, 2} = flat cells {3, 1}.
        let key = |f: usize| 3 - f;
        let s0 = shard_members(4, ShardSpec { index: 0, count: 2 }, key);
        let s1 = shard_members(4, ShardSpec { index: 1, count: 2 }, key);
        assert_eq!(s0, vec![1, 3]);
        assert_eq!(s1, vec![0, 2]);
    }

    #[test]
    fn grid_bit_identical_across_worker_counts() {
        let g = Synthetic {
            dims: vec![2, 4],
            seed: 0x5EED,
        };
        csmaprobe_desim::replicate::set_worker_limit(1);
        let solo = run_grid(&g);
        csmaprobe_desim::replicate::set_worker_limit(4);
        let quad = run_grid(&g);
        csmaprobe_desim::replicate::set_worker_limit(0);
        for (a, b) in solo.iter().zip(&quad) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }
}
