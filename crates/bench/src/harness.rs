//! Shared plumbing for the bench binaries: application and protocol
//! tables, and the one command-line parser every binary uses.

use std::path::{Path, PathBuf};

use ncp2::prelude::*;
use ncp2_obs::Assertion;

/// The six applications in the paper's plotting order.
pub const APP_NAMES: [&str; 6] = ["TSP", "Water", "Radix", "Barnes", "Em3d", "Ocean"];

/// The six TreadMarks overlap modes in the paper's plotting order.
pub const MODES: [OverlapMode; 6] = [
    OverlapMode::Base,
    OverlapMode::I,
    OverlapMode::ID,
    OverlapMode::P,
    OverlapMode::IP,
    OverlapMode::IPD,
];

/// The seven tier-1 workloads: the six applications plus the open-loop
/// service, in [`crate::engine::tier1_workloads`] order.
pub const TIER1_APPS: [&str; 7] = ["TSP", "Water", "Radix", "Barnes", "Em3d", "Ocean", "Svc"];

/// The figure and table binaries' flags beyond the engine flags.
pub const FIGURE_FLAGS: [&str; 2] = ["--app", "--paper-size"];

/// The engine flags every binary accepts, after its own.
const ENGINE_FLAGS: [&str; 4] = ["--jobs", "--no-cache", "--quiet", "--prof"];

/// Every flag a binary can accept, with its value placeholder (empty for a
/// switch) and a usage note.
const FLAG_HELP: [(&str, &str, &str); 21] = [
    ("--app", "NAME", "one application (listed below)"),
    ("--mode", "LABEL", "one protocol mode (listed below)"),
    ("--paper-size", "", "the paper's problem sizes (slow)"),
    ("--scale", "", "the 2..=256 processor doubling sweep"),
    ("--nprocs", "N", "processors, a positive integer"),
    ("--seed", "S", "fault-plan seed"),
    ("--rates", "P,P,...", "frame-drop permille, each <= 500"),
    ("--gaps", "G,G,...", "mean arrival gaps in cycles, each > 0"),
    ("--window", "W", "window width in cycles (0 = auto)"),
    ("--top-k", "K", "rows per table (0 = all)"),
    ("--assert", "EXPR", "'SERIES OP N for K' (repeatable)"),
    ("--out", "FILE", "JSON export"),
    ("--out-dir", "DIR", "export directory"),
    ("--bench", "FILE", "write the tier-1 bench file and exit"),
    ("--check", "", "run the CI gate"),
    ("--selfcheck", "", "re-run and compare the exports"),
    ("--fast", "", "5 samples and 100 ms per bench (CI smoke)"),
    ("--jobs", "N", "worker threads, a positive integer"),
    ("--no-cache", "", "bypass the result cache"),
    ("--quiet", "", "no per-job progress lines"),
    ("--prof", "", "host-phase attribution"),
];

/// Command-line options of the bench binaries. Every binary that runs the
/// experiment engine accepts the engine flags (`--jobs N`, `--no-cache`,
/// `--quiet`, `--prof`); each opts into the rest by name, and a flag it did
/// not name is a usage error. Unset options are `None`/empty, so each
/// binary keeps its own defaults.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Run the paper's original problem sizes (slow) instead of the scaled
    /// defaults (`--paper-size`).
    pub paper_size: bool,
    /// Restrict to one application (`--app NAME`), canonically spelled.
    pub only_app: Option<String>,
    /// Worker-thread override (`--jobs N`); `None` = one per host core.
    pub jobs: Option<usize>,
    /// Disable the content-hashed result cache (`--no-cache`).
    pub no_cache: bool,
    /// Suppress per-job progress lines (`--quiet`).
    pub quiet: bool,
    /// Attach host-side phase attribution — wall time and, under the `prof`
    /// feature, allocation counts — to every run (`--prof`). Provably inert
    /// with respect to simulated time (see `tests/prof_inert.rs`).
    pub prof: bool,
    /// Run the 2..=256 processor doubling sweep instead of the paper-shaped
    /// figure (`--scale`).
    pub scale: bool,
    /// Protocol mode label as given (`--mode LABEL`), known to
    /// [`protocol_from_label`].
    pub mode: Option<String>,
    /// Processor count (`--nprocs N`, positive).
    pub nprocs: Option<usize>,
    /// Fault-plan seed (`--seed S`).
    pub seed: Option<u64>,
    /// Frame-drop rates in permille (`--rates P,P,...`, each ≤ 500).
    pub rates: Option<Vec<u16>>,
    /// Mean inter-arrival gaps in cycles (`--gaps G,G,...`, each > 0).
    pub gaps: Option<Vec<u64>>,
    /// Time-series window width in cycles, 0 = auto (`--window W`).
    pub window: Option<u64>,
    /// Table rows, 0 = all (`--top-k K`).
    pub top_k: Option<usize>,
    /// Window assertions (`--assert EXPR`, repeatable).
    pub asserts: Vec<Assertion>,
    /// JSON export file (`--out FILE`).
    pub out: Option<PathBuf>,
    /// Export directory (`--out-dir DIR`).
    pub out_dir: Option<PathBuf>,
    /// Tier-1 bench file to write (`--bench FILE`).
    pub bench: Option<PathBuf>,
    /// Run the binary's CI gate (`--check`).
    pub check: bool,
    /// Re-run and byte-compare the exports (`--selfcheck`).
    pub selfcheck: bool,
    /// Clamp the wall-clock suite's sample counts and budgets (`--fast`).
    pub fast: bool,
}

impl Opts {
    /// Parses the figure binaries' flags ([`FIGURE_FLAGS`], `--app` one of
    /// [`APP_NAMES`]) from `std::env::args`.
    pub fn parse() -> Opts {
        Opts::parse_with(&FIGURE_FLAGS, &APP_NAMES)
    }

    /// Parses `std::env::args` for a binary that runs the experiment engine:
    /// `flags` plus the engine flags, `--app` one of `apps`.
    pub fn parse_with(flags: &[&str], apps: &[&str]) -> Opts {
        let accepted: Vec<&str> = flags.iter().chain(&ENGINE_FLAGS).copied().collect();
        Opts::parse_args(&accepted, apps)
    }

    /// Parses `std::env::args` for a binary that runs no experiment engine
    /// (`wall_bench`): exactly `flags`.
    pub fn parse_standalone(flags: &[&str]) -> Opts {
        Opts::parse_args(flags, &[])
    }

    /// Parses `std::env::args` with [`Opts::parse_from`]. `--help` prints the
    /// usage and exits 0; a malformed command line prints the error and the
    /// usage and exits 2.
    fn parse_args(flags: &[&str], apps: &[&str]) -> Opts {
        let mut args = std::env::args();
        let argv0 = args.next().unwrap_or_default();
        let bin = Path::new(&argv0).file_name().and_then(|b| b.to_str());
        let bin = bin.unwrap_or("bench");
        let args: Vec<String> = args.collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprint!("{}", usage(bin, flags, apps));
            std::process::exit(0);
        }
        Opts::parse_from(flags, apps, args).unwrap_or_else(|e| {
            eprint!("{bin}: {e}\n{}", usage(bin, flags, apps));
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name), accepting exactly `flags`;
    /// `--app` must name one of `apps` (case-insensitively).
    pub fn parse_from(
        flags: &[&str],
        apps: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            if !flags.contains(&flag) {
                return Err(format!("unknown option {flag}"));
            }
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag {
                "--app" => {
                    let v = value()?;
                    let app = apps.iter().find(|a| a.eq_ignore_ascii_case(&v));
                    let app =
                        app.ok_or(format!("unknown app '{v}'; known: {}", apps.join(", ")))?;
                    o.only_app = Some(app.to_string());
                }
                "--mode" => {
                    let v = value()?;
                    if protocol_from_label(&v).is_none() {
                        let known = ALL_MODE_LABELS.join(", ");
                        return Err(format!("unknown mode '{v}'; known: {known}"));
                    }
                    o.mode = Some(v);
                }
                "--paper-size" => o.paper_size = true,
                "--scale" => o.scale = true,
                "--nprocs" => o.nprocs = Some(positive(flag, &value()?)?),
                "--seed" => o.seed = Some(number(flag, &value()?)?),
                "--rates" => {
                    let rates: Vec<u16> = list(flag, &value()?)?;
                    if rates.iter().any(|&r| r > 500) {
                        return Err(format!("{flag}: rates are permille, each 0..=500"));
                    }
                    o.rates = Some(rates);
                }
                "--gaps" => {
                    let gaps: Vec<u64> = list(flag, &value()?)?;
                    if gaps.contains(&0) {
                        return Err(format!("{flag}: gaps must be positive"));
                    }
                    o.gaps = Some(gaps);
                }
                "--window" => o.window = Some(number(flag, &value()?)?),
                "--top-k" => o.top_k = Some(number(flag, &value()?)?),
                "--assert" => {
                    let a =
                        Assertion::parse(&value()?).map_err(|e| format!("bad assertion: {e}"))?;
                    o.asserts.push(a);
                }
                "--out" => o.out = Some(value()?.into()),
                "--out-dir" => o.out_dir = Some(value()?.into()),
                "--bench" => o.bench = Some(value()?.into()),
                "--check" => o.check = true,
                "--selfcheck" => o.selfcheck = true,
                "--fast" => o.fast = true,
                "--jobs" => o.jobs = Some(positive(flag, &value()?)?),
                "--no-cache" => o.no_cache = true,
                "--quiet" => o.quiet = true,
                "--prof" => o.prof = true,
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(o)
    }

    /// Builds the experiment engine these options describe.
    pub fn engine(&self) -> crate::engine::Engine {
        let mut e = crate::engine::Engine::new();
        if let Some(jobs) = self.jobs {
            e = e.with_jobs(jobs);
        }
        if self.no_cache {
            e = e.no_cache();
        }
        if self.quiet {
            e = e.silent();
        }
        if self.prof {
            e = e.with_prof();
        }
        e
    }

    /// The applications selected by these options.
    pub fn apps(&self) -> Vec<&'static str> {
        APP_NAMES
            .iter()
            .copied()
            .filter(|n| {
                self.only_app
                    .as_deref()
                    .is_none_or(|o| o.eq_ignore_ascii_case(n))
            })
            .collect()
    }

    /// The `--app` application, or `default`.
    pub fn app_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.only_app.as_deref().unwrap_or(default)
    }

    /// The `--mode` label, or `default`, with its protocol.
    ///
    /// # Panics
    ///
    /// Panics if `default` is not a known label (the parser has checked
    /// `--mode`).
    pub fn mode_or<'a>(&'a self, default: &'a str) -> (&'a str, Protocol) {
        let label = self.mode.as_deref().unwrap_or(default);
        let protocol = protocol_from_label(label).expect("known mode label");
        (label, protocol)
    }

    /// Default system parameters at `--nprocs`, or at `default_nprocs`.
    pub fn params(&self, default_nprocs: usize) -> SysParams {
        SysParams::default().with_nprocs(self.nprocs.unwrap_or(default_nprocs))
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: expected an integer, got '{v}'"))
}

fn positive(flag: &str, v: &str) -> Result<usize, String> {
    match number(flag, v)? {
        0 => Err(format!("{flag} needs a positive integer, got 0")),
        n => Ok(n),
    }
}

fn list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, String> {
    v.split(',').map(|s| number(flag, s.trim())).collect()
}

/// The usage text for a binary accepting `flags`.
fn usage(bin: &str, flags: &[&str], apps: &[&str]) -> String {
    let mut out = format!("usage: {bin} [OPTION]...\n");
    for (flag, meta, note) in FLAG_HELP {
        if flags.contains(&flag) {
            out.push_str(&format!("  {:<22} {note}\n", format!("{flag} {meta}")));
        }
    }
    if flags.contains(&"--app") {
        out.push_str(&format!("apps: {}\n", apps.join(", ")));
    }
    if flags.contains(&"--mode") {
        out.push_str(&format!("modes: {}\n", ALL_MODE_LABELS.join(", ")));
    }
    out
}

/// Writes `contents` to `path`, creating its directory; exits 1 on failure.
pub fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Every protocol label accepted by `--mode`, in the paper's order.
pub const ALL_MODE_LABELS: [&str; 8] = ["Base", "I", "I+D", "P", "I+P", "I+P+D", "AURC", "AURC+P"];

/// Parses a protocol from its figure label (see [`ALL_MODE_LABELS`]).
pub fn protocol_from_label(label: &str) -> Option<Protocol> {
    let l = label.to_ascii_uppercase();
    for m in MODES {
        if m.label().eq_ignore_ascii_case(&l) {
            return Some(Protocol::TreadMarks(m));
        }
    }
    match l.as_str() {
        "AURC" => Some(Protocol::Aurc { prefetch: false }),
        "AURC+P" => Some(Protocol::Aurc { prefetch: true }),
        _ => None,
    }
}

/// The six TreadMarks protocols in plotting order (the [`MODES`] wrapped).
pub fn tm_protocols() -> Vec<Protocol> {
    MODES.iter().map(|&m| Protocol::TreadMarks(m)).collect()
}

/// All eight protocols of the study in plotting order: the six TreadMarks
/// overlap modes, then AURC and AURC+P (matches [`ALL_MODE_LABELS`]).
pub fn all_protocols() -> Vec<Protocol> {
    let mut protos = tm_protocols();
    protos.push(Protocol::Aurc { prefetch: false });
    protos.push(Protocol::Aurc { prefetch: true });
    protos
}

/// Formats a `RunResult` as a breakdown-table row.
pub fn row(result: &RunResult) -> (String, u64, Breakdown, f64) {
    (
        result.protocol.clone(),
        result.total_cycles,
        result.aggregate(),
        result.diff_pct(),
    )
}

/// Renders rows through `ncp2_stats::breakdown_table` (borrowing labels).
pub fn print_breakdown(title: &str, rows: &[(String, u64, Breakdown, f64)]) {
    println!("== {title} ==");
    let borrowed: Vec<(&str, u64, Breakdown, f64)> = rows
        .iter()
        .map(|(l, c, b, d)| (l.as_str(), *c, *b, *d))
        .collect();
    print!("{}", breakdown_table(&borrowed));
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::engine::WorkloadSpec;

    #[test]
    fn all_apps_buildable_at_both_sizes() {
        for name in APP_NAMES.into_iter().chain(["Svc"]) {
            assert_eq!(WorkloadSpec::named(name, false).build().name(), name);
            assert_eq!(WorkloadSpec::named(name, true).build().name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn unknown_app_panics() {
        let _ = WorkloadSpec::named("Linpack", false);
    }

    /// Every flag a binary can accept.
    const ALL_FLAGS: [&str; 21] = [
        "--app",
        "--mode",
        "--paper-size",
        "--scale",
        "--nprocs",
        "--seed",
        "--rates",
        "--gaps",
        "--window",
        "--top-k",
        "--assert",
        "--out",
        "--out-dir",
        "--bench",
        "--check",
        "--selfcheck",
        "--fast",
        "--jobs",
        "--no-cache",
        "--quiet",
        "--prof",
    ];

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse_from(&ALL_FLAGS, &TIER1_APPS, args.iter().map(|a| a.to_string()))
    }

    fn rejects(args: &[&str], needle: &str) {
        match parse(args) {
            Ok(o) => panic!("{args:?} parsed: {o:?}"),
            Err(e) => assert!(e.contains(needle), "{args:?}: '{e}' lacks '{needle}'"),
        }
    }

    #[test]
    fn parses_every_flag_shape() {
        let o = parse(&[
            "--app",
            "svc",
            "--mode",
            "aurc+p",
            "--nprocs",
            "8",
            "--jobs",
            "3",
            "--seed",
            "0",
            "--rates",
            "0, 5,500",
            "--gaps",
            "16000,2000",
            "--window",
            "0",
            "--top-k",
            "0",
            "--assert",
            "retransmits > 0 for 2",
            "--out",
            "a.json",
            "--out-dir",
            "d",
            "--bench",
            "b.json",
            "--paper-size",
            "--scale",
            "--check",
            "--selfcheck",
            "--fast",
            "--no-cache",
            "--quiet",
            "--prof",
        ])
        .unwrap();
        assert_eq!(o.app_or("TSP"), "Svc");
        assert_eq!(o.mode_or("Base").0, "aurc+p");
        assert_eq!(o.mode_or("Base").1, Protocol::Aurc { prefetch: true });
        assert_eq!((o.nprocs, o.jobs, o.seed), (Some(8), Some(3), Some(0)));
        assert_eq!(o.rates, Some(vec![0, 5, 500]));
        assert_eq!(o.gaps, Some(vec![16_000, 2_000]));
        assert_eq!((o.window, o.top_k, o.asserts.len()), (Some(0), Some(0), 1));
        assert_eq!(o.out, Some(PathBuf::from("a.json")));
        assert_eq!(o.out_dir, Some(PathBuf::from("d")));
        assert_eq!(o.bench, Some(PathBuf::from("b.json")));
        assert!(o.paper_size && o.scale && o.check && o.selfcheck && o.fast);
        assert!(o.no_cache && o.quiet && o.prof);
    }

    #[test]
    fn unset_options_leave_the_binary_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.app_or("TSP"), "TSP");
        assert_eq!(o.mode_or("I+P+D").1, Protocol::TreadMarks(OverlapMode::IPD));
        assert_eq!(o.params(4).nprocs, 4);
        assert_eq!(o.rates, None);
        assert!(o.asserts.is_empty());
    }

    #[test]
    fn every_value_flag_needs_a_value() {
        for flag in [
            "--app",
            "--mode",
            "--nprocs",
            "--jobs",
            "--seed",
            "--rates",
            "--gaps",
            "--window",
            "--top-k",
            "--assert",
            "--out",
            "--out-dir",
            "--bench",
        ] {
            rejects(&[flag], "needs a value");
        }
    }

    #[test]
    fn counts_must_be_positive_integers() {
        for flag in ["--nprocs", "--jobs"] {
            rejects(&[flag, "four"], "expected an integer");
            rejects(&[flag, "-1"], "expected an integer");
            rejects(&[flag, "0"], "positive integer");
        }
        for flag in ["--seed", "--window", "--top-k"] {
            rejects(&[flag, "x"], "expected an integer");
        }
    }

    #[test]
    fn rates_and_gaps_are_range_checked() {
        rejects(&["--rates", "0,501"], "0..=500");
        rejects(&["--rates", "5,,10"], "expected an integer");
        rejects(&["--rates", ""], "expected an integer");
        rejects(&["--gaps", "8000,0"], "positive");
        rejects(&["--gaps", "8000,x"], "expected an integer");
    }

    #[test]
    fn malformed_assertions_modes_and_apps_are_rejected() {
        rejects(&["--assert", "retransmits >"], "bad assertion");
        rejects(&["--mode", "I+Q"], "unknown mode 'I+Q'");
        rejects(&["--app", "Linpack"], "known: TSP, Water");
        rejects(&["--app"], "--app needs a value");
    }

    #[test]
    fn flags_outside_the_binarys_surface_are_rejected() {
        rejects(&["--bogus"], "unknown option --bogus");
        let figure_flags = [&FIGURE_FLAGS[..], &ENGINE_FLAGS].concat();
        let figure = |args: &[&str]| {
            Opts::parse_from(
                &figure_flags,
                &APP_NAMES,
                args.iter().map(|a| a.to_string()),
            )
        };
        assert!(figure(&["--scale"])
            .unwrap_err()
            .contains("unknown option --scale"));
        assert!(figure(&["--app", "Svc"])
            .unwrap_err()
            .contains("unknown app 'Svc'"));
        let o = figure(&["--app", "em3d", "--paper-size", "--jobs", "2"]).unwrap();
        assert_eq!(o.apps(), vec!["Em3d"]);
        let usage = usage("fig02_breakdown", &figure_flags, &APP_NAMES);
        assert!(usage.contains("--paper-size") && usage.contains("--jobs N"));
        assert!(!usage.contains("--scale") && !usage.contains("modes:"));
    }

    #[test]
    fn a_binary_without_the_engine_rejects_the_engine_flags() {
        let flags = ["--fast", "--out"];
        let wall =
            |args: &[&str]| Opts::parse_from(&flags, &[], args.iter().map(|a| a.to_string()));
        let o = wall(&["--fast", "--out", "w.json"]).unwrap();
        assert!(o.fast);
        assert_eq!(o.out, Some(PathBuf::from("w.json")));
        for flag in ENGINE_FLAGS {
            assert!(
                wall(&[flag]).unwrap_err().contains("unknown option"),
                "{flag}"
            );
        }
        assert!(wall(&["--save-baseline", "w.json"]).is_err());
        let usage = usage("wall_bench", &flags, &[]);
        assert!(usage.contains("--fast") && usage.contains("--out FILE"));
        assert!(!usage.contains("--jobs") && !usage.contains("apps:"));
    }

    #[test]
    fn tier1_apps_follow_the_tier1_table() {
        let names: Vec<_> = crate::engine::tier1_workloads()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, TIER1_APPS);
    }

    #[test]
    fn opts_filter_apps() {
        let o = Opts {
            only_app: Some("em3d".into()),
            ..Opts::default()
        };
        assert_eq!(o.apps(), vec!["Em3d"]);
        let all = Opts::default();
        assert_eq!(all.apps().len(), 6);
    }
}
