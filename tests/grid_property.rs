//! Property tests of grid-campaign scheduling: the subset runner
//! (`core::sweep::run_sweep_cells`) the `grid` binary resumes and
//! shards through, the shard partition (`bench::campaign`), and the
//! crash-tolerant JSONL row sink (`bench::report::RowSink`).
//!
//! The properties pin the contracts a campaign relies on:
//!
//! 1. **Subset equivalence** — scheduling any ascending subset of a
//!    sweep's cells reproduces exactly the full run's rows for those
//!    cells, bit for bit and in ascending order — the resume contract.
//! 2. **Truncation recovery** — a `RowSink` file truncated at *any*
//!    byte offset resumes to the longest complete-row prefix, and
//!    re-appending the missing rows reconstructs the original file
//!    byte-for-byte: no duplicate, lost, or corrupt rows.
//! 3. **Tier-provenance rejection** — rows persisted under one engine
//!    policy carry a run fingerprint no differently-policied grid will
//!    accept, so `--resume` refuses to mix engine tiers silently.
//! 4. **Shard partition soundness** — for any shard count, the
//!    name-keyed round-robin partition covers the cell space with
//!    pairwise-disjoint member sets, and running the shards
//!    independently (each under an arbitrary worker count) then merging
//!    their rows is bitwise identical to the unsharded run — the
//!    sharded-campaign contract.

use csmaprobe::core::sweep::{run_sweep, run_sweep_cells, SweepScenario};
use csmaprobe::desim::replicate;
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::stats::online::OnlineStats;
use csmaprobe_bench::campaign::{shard_members, ShardSpec};
use csmaprobe_bench::report::{row_key, RowSink};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A synthetic campaign: cell `c` folds a cell-dependent number of
/// pseudorandom observations (pure functions of `(seed, c, rep)`) into
/// `OnlineStats`.
struct SyntheticCampaign {
    cells: usize,
    seed: u64,
}

impl SweepScenario for SyntheticCampaign {
    type Acc = OnlineStats;
    type Row = OnlineStats;

    fn name(&self) -> &str {
        "synthetic"
    }
    fn points(&self) -> usize {
        self.cells
    }
    fn reps(&self, cell: usize) -> usize {
        // Cell-dependent budgets spanning zero, sub-chunk and
        // multi-chunk cells (CHUNK = 32).
        (cell * 23) % 71
    }
    fn identity(&self, _cell: usize) -> OnlineStats {
        OnlineStats::new()
    }
    fn replicate(&self, cell: usize, rep: usize, acc: &mut OnlineStats) {
        let s = derive_seed(derive_seed(self.seed, cell as u64), rep as u64);
        acc.push(SimRng::new(s).f64());
    }
    fn finish(&self, _cell: usize, acc: OnlineStats) -> OnlineStats {
        acc
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Scheduling any subset of cells reproduces the full run's rows
    // bit-for-bit — the resume contract.
    #[test]
    fn grid_subset_scheduling_is_bit_identical(
        cells in 0usize..40,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let campaign = SyntheticCampaign { cells, seed };
        let full = run_sweep(&campaign);
        prop_assert_eq!(full.len(), cells);
        let subset: Vec<usize> = (0..cells)
            .filter(|f| mask >> (f % 64) & 1 == 1)
            .collect();
        let mut got = Vec::new();
        run_sweep_cells(&campaign, &subset, |flat, row| got.push((flat, row)));
        prop_assert_eq!(got.len(), subset.len());
        let mut previous = None;
        for (flat, row) in &got {
            prop_assert!(previous.map(|p: usize| p < *flat).unwrap_or(true));
            previous = Some(*flat);
            prop_assert_eq!(row.count(), full[*flat].count());
            prop_assert_eq!(row.mean().to_bits(), full[*flat].mean().to_bits());
            prop_assert_eq!(row.variance().to_bits(), full[*flat].variance().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Shard partition soundness + merge bit-identity, for any shard
    // count and any per-shard worker count.
    #[test]
    fn shard_union_covers_disjointly_and_merges_bit_identical(
        total in 1usize..40,
        seed in any::<u64>(),
        n in 1usize..9,
        workers in 1usize..5,
    ) {
        let campaign = SyntheticCampaign { cells: total, seed };
        // A name-like key (the reversed decimal index) whose sort order
        // deliberately differs from flat order, as cell-name keys do.
        let key_of = |f: usize| f.to_string().chars().rev().collect::<String>();
        let full = run_sweep(&campaign);

        let mut owner: Vec<Option<usize>> = vec![None; total];
        let mut merged: Vec<Option<OnlineStats>> = (0..total).map(|_| None).collect();
        for index in 0..n {
            let members = shard_members(total, ShardSpec { index, count: n }, key_of);
            prop_assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "members ascending for the runner"
            );
            for &f in &members {
                prop_assert_eq!(owner[f], None, "cell {} owned by two shards", f);
                owner[f] = Some(index);
            }
            // Each shard may run on a host with a different worker
            // count; the merged result must not care.
            replicate::set_worker_limit(workers);
            run_sweep_cells(&campaign, &members, |flat, row| {
                merged[flat] = Some(row);
            });
        }
        // Restore the ambient process-wide limit for the other tests.
        replicate::set_worker_limit(
            std::env::var("CSMAPROBE_WORKERS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        );

        prop_assert!(owner.iter().all(Option::is_some), "union covers the cell space");
        for (flat, row) in merged.into_iter().enumerate() {
            let row = row.expect("covered cell has a row");
            prop_assert_eq!(row.count(), full[flat].count());
            prop_assert_eq!(row.mean().to_bits(), full[flat].mean().to_bits());
            prop_assert_eq!(row.variance().to_bits(), full[flat].variance().to_bits());
        }
    }
}

/// A deterministic row line for sink tests.
fn sink_row(cell: usize) -> String {
    format!(
        "{{\"cell\":{cell},\"key\":\"cell-{cell}\",\"v\":{}}}",
        (cell as f64) * 1.5 - 2.0
    )
}

/// A unique scratch path per proptest case.
fn scratch_path() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "csmaprobe-gridprop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // RowSink resume after truncation at ANY byte offset recovers the
    // longest complete prefix; re-appending the missing rows
    // reconstructs the original file byte-for-byte.
    #[test]
    fn rowsink_truncation_resume_recovers(
        rows in 1usize..12,
        cut in any::<u64>(),
    ) {
        let path = scratch_path();
        {
            let mut sink = RowSink::create(&path).unwrap();
            for c in 0..rows {
                sink.append(&sink_row(c)).unwrap();
            }
        }
        let original = std::fs::read(&path).unwrap();
        let offset = (cut % (original.len() as u64 + 1)) as usize;
        std::fs::write(&path, &original[..offset]).unwrap();

        // The survivor set must be exactly the complete-line prefix of
        // the truncated bytes.
        let surviving = original[..offset].iter().filter(|&&b| b == b'\n').count();
        let mut sink = RowSink::resume(&path).unwrap();
        prop_assert_eq!(sink.len(), surviving, "offset {}", offset);
        for c in 0..rows {
            prop_assert_eq!(sink.contains(&format!("cell-{c}")), c < surviving);
        }

        // Re-run "the missing cells" and compare byte-for-byte.
        for c in surviving..rows {
            sink.append(&sink_row(c)).unwrap();
        }
        let recovered = std::fs::read(&path).unwrap();
        prop_assert_eq!(&recovered, &original, "offset {}", offset);
        let read_back = sink.read_rows().unwrap();
        prop_assert_eq!(read_back.len(), rows);
        for (c, line) in read_back.iter().enumerate() {
            prop_assert_eq!(row_key(line), Some(format!("cell-{c}")).as_deref());
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Rows persisted under one engine policy must be rejected by a resume
/// under another: the policy (and each link's resolved tier) folds into
/// the run-config fingerprint every row carries, and the `grid` bin
/// refuses any row whose fingerprint differs from the resuming grid's.
/// Without this, a forced-event row set silently absorbed into an auto
/// run would mix routing policies in one table with no trace in the
/// data.
#[test]
fn resume_rejects_rows_from_a_different_engine_policy() {
    use csmaprobe::core::engine::{test_guard, EnginePolicy};
    use csmaprobe_bench::grid::{find_link, find_train, BiasGrid, GridRow};
    use csmaprobe_probe::tool::ToolKind;

    // wlan_low's trains run on the simulator under both policies — same
    // data, different policy token in the provenance.
    let make = || {
        BiasGrid::new(
            vec![find_link("wlan_low").unwrap()],
            vec![find_train("short").unwrap()],
            vec![ToolKind::Train],
            0.05,
            42,
        )
    };

    // Persist one cell under the forced-event policy.
    let path = scratch_path();
    let event_fingerprint = {
        let _g = test_guard(EnginePolicy::Event);
        let grid = make();
        let mut sink = RowSink::create(&path).unwrap();
        for row in run_sweep(&grid) {
            sink.append(&row.to_json()).unwrap();
        }
        grid.fingerprint()
    };

    // Resume under auto: every persisted row must fail the bin's
    // fingerprint gate, even though key set and data bits both match.
    {
        let _g = test_guard(EnginePolicy::Auto);
        let grid = make();
        assert_ne!(grid.fingerprint(), event_fingerprint);
        let sink = RowSink::resume(&path).unwrap();
        let rows = sink.read_rows().unwrap();
        assert!(!rows.is_empty());
        for line in &rows {
            assert_eq!(GridRow::run_of(line), Some(event_fingerprint));
            assert_ne!(
                GridRow::run_of(line),
                Some(grid.fingerprint()),
                "row from a forced-event run must be refused on auto resume: {line}"
            );
        }
    }

    // Same policy, same grid: every row passes the gate (control).
    {
        let _g = test_guard(EnginePolicy::Event);
        let grid = make();
        let sink = RowSink::resume(&path).unwrap();
        for line in &sink.read_rows().unwrap() {
            assert_eq!(GridRow::run_of(line), Some(grid.fingerprint()));
        }
    }
    let _ = std::fs::remove_file(&path);
}
