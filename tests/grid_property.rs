//! Property tests of grid-run scheduling: the subset runner
//! (`core::sweep::run_sweep_cells`) the `grid` binary resumes and
//! budget-stops through, and the crash-tolerant JSONL row sink
//! (`bench::report::RowSink`).
//!
//! The properties pin the contracts a resumable run relies on:
//!
//! 1. **Subset equivalence** — scheduling any ascending subset of a
//!    sweep's cells reproduces exactly the full run's rows for those
//!    cells, bit for bit and in ascending order — the resume contract.
//! 2. **Truncation recovery** — a `RowSink` file truncated at *any*
//!    byte offset resumes to the longest complete-row prefix, and
//!    re-appending the missing rows reconstructs the original file
//!    byte-for-byte: no duplicate, lost, or corrupt rows.

use csmaprobe::core::sweep::{run_sweep, run_sweep_cells, SweepScenario};
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::stats::online::OnlineStats;
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
