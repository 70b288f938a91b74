//! # csmaprobe-bench
//!
//! The figure-regeneration harness: one module per data figure of the
//! paper (there are no tables), each producing a [`report::FigureReport`]
//! with the same series the paper plots plus automated qualitative
//! checks ("who wins, where the knee is"). The `all_figures` binary
//! runs every entry of [`figures::REGISTRY`] (or the `--only` subset) —
//! scheduling whole figures concurrently on the shared work-stealing
//! executor — prints each report as TSV and writes `experiments.json`
//! for `EXPERIMENTS.md`.
//!
//! Scaling: every experiment takes a `scale` factor multiplying its
//! replication counts (default 1.0; the paper used up to 25 000 NS2
//! repetitions — `scale = 10.0` gets close at proportional runtime).
//! Set via `all_figures --scale <f>`.

pub mod campaign;
pub mod figures;
pub mod grid;
pub mod report;
pub mod scenarios;
pub mod tier;

/// Default master seed of `all_figures` and `grid` (overridable via
/// `--seed`).
pub const DEFAULT_SEED: u64 = 0xC5AA_2009;

/// Default replication-budget multiplier.
pub const DEFAULT_SCALE: f64 = 1.0;

/// Smallest accepted scale; anything lower is clamped so every
/// experiment still runs at least a handful of replications.
pub const MIN_SCALE: f64 = 0.01;

/// Largest accepted scale; anything higher is clamped so a typo can
/// never produce an effectively unbounded replication budget.
pub const MAX_SCALE: f64 = 10_000.0;

/// The options of `all_figures`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Replication-budget multiplier (clamped into
    /// `[MIN_SCALE, MAX_SCALE]`).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// `--list`: print the figure registry and exit.
    pub list: bool,
    /// `--only fig08,fig13`: run a subset of the registry; `None` means
    /// everything.
    pub only: Option<Vec<String>>,
    /// `--jobs N`: upper bound on figures executing concurrently;
    /// defaults to the available parallelism. Figures are one
    /// submission to the process-wide work-stealing executor, so any
    /// value — including oversubscribed ones — only caps the
    /// submission's width; the pool itself never exceeds the
    /// `CSMAPROBE_WORKERS`/hardware concurrency ceiling.
    pub jobs: usize,
}

/// Parse `all_figures`' argv (`args[0]` is the program name):
/// `--scale F`, `--seed N`, `--only ids`, `--jobs N`, `--list`.
///
/// Strict: an unknown flag, a missing or unparseable value, `--jobs 0`
/// or a `--scale` that [`parse_scale`] refuses is an `Err` naming the
/// flag, which the binary prints before exiting 2.
pub fn cli_options_from(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        scale: DEFAULT_SCALE,
        seed: DEFAULT_SEED,
        list: false,
        only: None,
        jobs: default_jobs(),
    };
    let mut it = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = it.next() {
        // Another flag is never swallowed as a value.
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--list" => opts.list = true,
            "--scale" => opts.scale = parse_scale(value()?)?,
            "--seed" => opts.seed = parse_value(flag, value()?)?,
            "--only" => opts.only = Some(parse_only(value()?)),
            "--jobs" => {
                opts.jobs = parse_value(flag, value()?)?;
                if opts.jobs == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?} (accepted: --scale, --seed, --only, --jobs, --list)"
                ))
            }
        }
    }
    Ok(opts)
}

/// Split a `fig08,fig13`-style list into trimmed, non-empty ids.
fn parse_only(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(String::from)
        .collect()
}

/// Default figure-level concurrency: the machine's parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse the value `v` of `flag`; the error names both.
pub fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {flag} value {v:?}"))
}

/// Parse a `--scale` value, the one rule `all_figures` and `grid`
/// share: finite and positive, then clamped into
/// `[MIN_SCALE, MAX_SCALE]`. Anything else is an `Err` naming the flag.
pub fn parse_scale(v: &str) -> Result<f64, String> {
    let scale: f64 = parse_value("--scale", v)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be finite and positive, got {v:?}"));
    }
    Ok(scale.clamp(MIN_SCALE, MAX_SCALE))
}

/// Force `scale` into the sane band `[MIN_SCALE, MAX_SCALE]`.
///
/// `f64::parse` happily accepts `"NaN"`, `"inf"` and negative values; a
/// raw multiply-then-`as usize` of those yields replication budgets of
/// 0 or `usize::MAX`. Anything non-finite or non-positive falls back to
/// [`MIN_SCALE`] (with a warning), finite values clamp into the band.
pub fn sanitize_scale(scale: f64) -> f64 {
    if !scale.is_finite() || scale <= 0.0 {
        eprintln!("warning: nonsensical scale {scale}; using minimum {MIN_SCALE}");
        return MIN_SCALE;
    }
    scale.clamp(MIN_SCALE, MAX_SCALE)
}

/// Scale a replication count, keeping at least `min`.
///
/// Hardened: the scale passes through [`sanitize_scale`], so NaN,
/// infinite, zero or negative scales can never produce a zero or
/// effectively unbounded replication budget.
pub fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * sanitize_scale(scale)).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `all_figures` followed by the whitespace-separated `line`.
    fn argv(line: &str) -> Vec<String> {
        std::iter::once("all_figures")
            .chain(line.split_whitespace())
            .map(String::from)
            .collect()
    }

    fn opts(line: &str) -> CliOptions {
        cli_options_from(&argv(line)).expect("valid argv")
    }

    /// The refusal message for `line`.
    fn refused(line: &str) -> String {
        cli_options_from(&argv(line)).expect_err("argv must be refused")
    }

    #[test]
    fn defaults_when_nothing_is_set() {
        let o = opts("");
        assert_eq!(o.scale, DEFAULT_SCALE);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(!o.list);
        assert_eq!(o.only, None);
        assert!(o.jobs >= 1);
    }

    #[test]
    fn flags_set_every_option() {
        // The perfbench invocation shape.
        let o = opts("--only fig06,fig10 --scale 1 --jobs 1 --seed 7");
        assert_eq!(o.only, Some(vec!["fig06".to_string(), "fig10".to_string()]));
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.jobs, 1);
        assert_eq!(o.seed, 7);
        let o = opts("--list --scale 0.05 --seed 42 --jobs 8");
        assert!(o.list);
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.seed, 42);
        assert_eq!(o.jobs, 8);
    }

    #[test]
    fn unknown_flags_are_refused() {
        assert!(refused("--scael 0.05").contains("--scael"));
        assert!(refused("fig06").contains("fig06"));
        assert!(refused("--list -v").contains("-v"));
    }

    #[test]
    fn unparseable_values_are_refused_naming_the_flag() {
        assert!(refused("--scale fast").contains("--scale"));
        let e = refused("--seed -1");
        assert!(e.contains("--seed") && e.contains("-1"), "{e}");
        assert!(refused("--seed 0x12").contains("--seed"), "no hex");
        assert!(refused("--jobs two").contains("--jobs"));
        assert!(refused("--jobs 0").contains("--jobs"));
    }

    #[test]
    fn missing_values_are_refused() {
        assert!(refused("--seed").contains("--seed needs a value"));
        // `--scale --seed 7` must not consume `--seed` as the scale's
        // value.
        assert!(refused("--scale --seed 7").contains("--scale needs a value"));
    }

    #[test]
    fn scale_clamps_finite_and_refuses_nonsense() {
        assert_eq!(opts("--scale 0.0001").scale, MIN_SCALE);
        assert_eq!(opts("--scale 1e99").scale, MAX_SCALE);
        // `"NaN"` and `"inf"` parse as f64; they and non-positive
        // scales must never reach a replication budget.
        for bad in ["NaN", "inf", "-inf", "0", "-3"] {
            let e = refused(&format!("--scale {bad}"));
            assert!(e.contains("--scale"), "{e}");
        }
    }

    #[test]
    fn only_parses_comma_list() {
        assert_eq!(parse_only("fig08, fig13,,"), vec!["fig08", "fig13"]);
        let o = opts("--only fig08,fig13");
        assert_eq!(o.only, Some(vec!["fig08".to_string(), "fig13".to_string()]));
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(1000, 0.5, 10), 500);
        assert_eq!(scaled(1000, 0.001, 10), 10);
        assert_eq!(scaled(7, 1.0, 1), 7);
    }

    #[test]
    fn scaled_survives_nonsense_scales() {
        assert_eq!(scaled(1000, f64::NAN, 10), 10);
        assert_eq!(scaled(1000, -5.0, 10), 10);
        assert_eq!(scaled(1000, 0.0, 10), 10);
        // Infinity is a typo, not a request for 10⁴× budgets: it falls
        // back to the minimum instead of usize::MAX reps.
        assert_eq!(scaled(1000, f64::INFINITY, 10), 10);
        assert_eq!(scaled(1000, f64::NEG_INFINITY, 10), 10);
        // Huge-but-finite clamps to MAX_SCALE.
        assert_eq!(scaled(1000, 1e300, 10), 1000 * MAX_SCALE as usize);
    }
}
