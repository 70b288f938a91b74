//! Property test of the crash-tolerant JSONL row sink
//! (`bench::report::RowSink`) behind the daemon's session table: a row
//! file truncated at *any* byte offset resumes to the longest
//! complete-row prefix, and re-appending the missing rows reconstructs
//! the original file byte-for-byte — no duplicate, lost, or corrupt
//! rows. A restarted `csmaprobe serve` relies on it.

use csmaprobe_bench::report::{row_key, RowSink};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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
        "csmaprobe-rowsink-prop-{}-{}",
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

        // Re-append the missing rows and compare byte-for-byte.
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
