//! Deterministic load-generator session mixes.
//!
//! `loadgen` and the batch reference path both need the *same* list of
//! session specs from nothing but a master seed, so the byte-compare
//! in the `service-smoke` CI job has a pure-function source of truth:
//! session `i`'s axes are drawn from per-session RNG
//! `SimRng::new(derive_seed(master, i))` and its replication master
//! seed is a second derivation from the same stream. Nothing here
//! depends on wall-clock, host, or iteration order.

use crate::session::SessionSpec;
use crate::wire::SubmitRequest;
use csmaprobe_desim::rng::{derive_seed, RngCore, SimRng};

/// Axis pools a mix draws from. The defaults keep the bulk of the load
/// on the cheap wired link so a 200-session smoke run finishes in CI
/// time, while still exercising every tool family and the WLAN path.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Link-axis names (weighted by repetition).
    pub links: Vec<String>,
    /// Train-axis names.
    pub trains: Vec<String>,
    /// Tool names.
    pub tools: Vec<String>,
    /// Replications per session.
    pub reps: usize,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            // "wired" repeated to weight it 7/8. Per session (32 reps,
            // one pinned CPU of a 2-core x86-64 Xeon, median of 15 seeds
            // per stratum, then of 5 runs) wired costs ~1.9 ms on
            // average (train and chirp 0.11-0.17, slops 2.0-2.1, topp
            // 5.0-5.8 ms) and wlan_low ~2.7 ms (train and chirp
            // 0.16-0.24, slops 2.6-3.2, topp 6.5-8.5 ms; a WLAN session
            // is mostly its replications' single-contender warm-ups), so
            // wired sessions carry ~83% of the compute.
            links: vec![
                "wired".into(),
                "wired".into(),
                "wired".into(),
                "wired".into(),
                "wired".into(),
                "wired".into(),
                "wired".into(),
                "wlan_low".into(),
            ],
            trains: vec!["short".into(), "mid".into()],
            tools: vec![
                "train".into(),
                "slops".into(),
                "topp".into(),
                "chirp".into(),
            ],
            reps: 32,
        }
    }
}

/// The `i`-th session of the mix as a wire submit. `id` is `s<i>`
/// zero-padded (stable sort order), `cell` is `i`.
pub fn session_request(cfg: &MixConfig, master: u64, i: u64) -> SubmitRequest {
    let mut rng = SimRng::new(derive_seed(master, i));
    let pick = |rng: &mut SimRng, pool: &[String]| -> String {
        pool[rng.below(pool.len() as u64) as usize].clone()
    };
    let link = pick(&mut rng, &cfg.links);
    let train = pick(&mut rng, &cfg.trains);
    let tool = pick(&mut rng, &cfg.tools);
    SubmitRequest {
        id: format!("s{i:05}"),
        cell: i,
        link,
        train,
        tool,
        reps: cfg.reps,
        seed: rng.next_u64(),
    }
}

/// The whole mix, resolved — the batch reference path uses this.
pub fn session_specs(
    cfg: &MixConfig,
    master: u64,
    sessions: u64,
) -> Result<Vec<SessionSpec>, String> {
    (0..sessions)
        .map(|i| {
            let req = session_request(cfg, master, i);
            SessionSpec::resolve(&req).map_err(|e| format!("session {i}: {}", e.detail()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_resolvable() {
        let cfg = MixConfig::default();
        let a: Vec<SubmitRequest> = (0..50).map(|i| session_request(&cfg, 42, i)).collect();
        let b: Vec<SubmitRequest> = (0..50).map(|i| session_request(&cfg, 42, i)).collect();
        assert_eq!(a, b);
        let specs = session_specs(&cfg, 42, 50).unwrap();
        assert_eq!(specs.len(), 50);
        // Ids/cells are unique and ordered.
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.cell, i as u64);
            assert_eq!(s.id, format!("s{i:05}"));
        }
        // A different master seed produces a different mix.
        let c: Vec<SubmitRequest> = (0..50).map(|i| session_request(&cfg, 43, i)).collect();
        assert_ne!(a, c);
    }
}
