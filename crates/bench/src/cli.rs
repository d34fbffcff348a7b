//! Tiny argument parsing for the reproduction binaries (no extra deps).
//!
//! Parsing is fallible and testable ([`Options::try_parse`]); the
//! binaries use [`Options::parse`], which prints the error plus usage
//! and exits. Validation happens here, before any simulation starts:
//! a sweep that would die hours in because `--csv` points into a
//! missing directory dies in milliseconds instead.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cmp_common::config::DirectoryConfig;
use tcmp_core::supervisor::RunPolicy;

/// Options shared by every reproduction binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Trace scale relative to the nominal 200k refs/core (default 0.1).
    pub scale: f64,
    /// Application filter (`--app MP3D`, repeatable); empty = all 13.
    pub apps: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Include perfect-compression bounds where applicable.
    pub perfect: bool,
    /// Cap on matrix worker threads (`--jobs N`); `None` = all cores.
    pub jobs: Option<usize>,
    /// Start a *fresh* journaled campaign in this directory (created if
    /// absent; refused if it already holds a journal).
    pub out: Option<PathBuf>,
    /// Resume a journaled campaign from this directory, skipping cells
    /// whose rows are already on disk.
    pub resume: Option<PathBuf>,
    /// Extra attempts per failed cell (`--retries N`).
    pub retries: u32,
    /// Per-cell wall-clock deadline in seconds (`--deadline SECS`).
    pub deadline_s: Option<u64>,
    /// Submit the sweep to a running `tcmp-serve` daemon at this Unix
    /// socket instead of simulating locally (`--submit SOCKET`). The
    /// daemon owns the worker pool, the journal, and the result CSVs.
    pub submit: Option<PathBuf>,
    /// With `--submit`: re-attach to this existing campaign id instead
    /// of submitting a new one (`--attach c0001`).
    pub attach: Option<String>,
    /// L2 directory organisation (`--directory full-map|sparse|sparse:N`);
    /// `None` = the machine default (full-map). Wide meshes (beyond 64
    /// tiles) need `sparse`.
    pub directory: Option<DirectoryConfig>,
    /// Mesh sides for sweep binaries (`--side N`, repeatable); empty =
    /// the binary's default sweep.
    pub sides: Vec<u16>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.1,
            apps: Vec::new(),
            seed: 0xC0FFEE,
            csv: None,
            perfect: true,
            jobs: None,
            out: None,
            resume: None,
            retries: 0,
            deadline_s: None,
            submit: None,
            attach: None,
            directory: None,
            sides: Vec::new(),
        }
    }
}

impl Options {
    /// Parse from `std::env::args`, exiting with the error and usage on
    /// failure.
    pub fn parse() -> Options {
        match Options::try_parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        }
    }

    /// Parse and validate an argument list. Every rejection names the
    /// offending flag and what it needs.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut o = Options::default();
        let mut args = args.into_iter();
        fn value(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            what: &str,
        ) -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs {what}"))
        }
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    o.scale = value(&mut args, "--scale", "a number")?
                        .parse()
                        .map_err(|_| "--scale needs a number".to_string())?;
                }
                "--app" => o.apps.push(value(&mut args, "--app", "a name")?),
                "--seed" => {
                    o.seed = value(&mut args, "--seed", "an integer")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                }
                "--csv" => o.csv = Some(value(&mut args, "--csv", "a path")?),
                "--no-perfect" => o.perfect = false,
                "--jobs" => {
                    o.jobs = Some(
                        value(&mut args, "--jobs", "a count")?
                            .parse()
                            .map_err(|_| "--jobs needs an unsigned integer".to_string())?,
                    );
                }
                "--out" => o.out = Some(PathBuf::from(value(&mut args, "--out", "a directory")?)),
                "--resume" => {
                    o.resume = Some(PathBuf::from(value(&mut args, "--resume", "a directory")?));
                }
                "--retries" => {
                    o.retries = value(&mut args, "--retries", "a count")?
                        .parse()
                        .map_err(|_| "--retries needs an unsigned integer".to_string())?;
                }
                "--deadline" => {
                    o.deadline_s = Some(
                        value(&mut args, "--deadline", "seconds")?
                            .parse()
                            .map_err(|_| "--deadline needs whole seconds".to_string())?,
                    );
                }
                "--submit" => {
                    o.submit = Some(PathBuf::from(value(
                        &mut args,
                        "--submit",
                        "a socket path",
                    )?));
                }
                "--attach" => {
                    o.attach = Some(value(&mut args, "--attach", "a campaign id")?);
                }
                "--directory" => {
                    let spec = value(&mut args, "--directory", "full-map|sparse|sparse:N")?;
                    o.directory = Some(
                        DirectoryConfig::parse_flag(&spec)
                            .map_err(|e| format!("--directory: {e}"))?,
                    );
                }
                "--side" => {
                    let side: u16 = value(&mut args, "--side", "a mesh side")?
                        .parse()
                        .map_err(|_| "--side needs an unsigned integer".to_string())?;
                    if side == 0 {
                        return Err("--side must be >= 1".to_string());
                    }
                    o.sides.push(side);
                }
                "--help" | "-h" => return Err("help requested".to_string()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        o.validate()?;
        Ok(o)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.scale > 0.0) {
            return Err("--scale must be positive".to_string());
        }
        if self.jobs == Some(0) {
            return Err("--jobs must be >= 1".to_string());
        }
        for name in &self.apps {
            resolve_app(name)?;
        }
        if self.deadline_s == Some(0) {
            return Err("--deadline must be >= 1 second".to_string());
        }
        if self.attach.is_some() && self.submit.is_none() {
            return Err(
                "--attach re-attaches through a daemon: it needs --submit SOCKET".to_string(),
            );
        }
        if self.submit.is_some() {
            if self.out.is_some() || self.resume.is_some() {
                return Err(
                    "--submit hands the campaign to the daemon, which owns the journal: \
                     drop --out/--resume (resume happens daemon-side, automatically)"
                        .to_string(),
                );
            }
            if self.jobs.is_some() {
                return Err("--submit runs on the daemon's shared worker pool: \
                     --jobs belongs to `tcmp-serve --jobs`, not to the client"
                    .to_string());
            }
            if let Some(sock) = &self.submit {
                if !sock.exists() {
                    return Err(format!(
                        "--submit {}: no socket there — is tcmp-serve running?",
                        sock.display()
                    ));
                }
            }
        }
        if self.out.is_some() && self.resume.is_some() {
            return Err("--out starts a fresh campaign and --resume continues one: \
                 pass exactly one of them"
                .to_string());
        }
        if let Some(dir) = &self.resume {
            if !dir.is_dir() {
                return Err(format!(
                    "--resume {}: directory does not exist",
                    dir.display()
                ));
            }
            if !dir.join(cmp_common::journal::JOURNAL_FILE).is_file() {
                return Err(format!(
                    "--resume {}: no {} found there — nothing to resume \
                     (use --out to start a fresh campaign)",
                    dir.display(),
                    cmp_common::journal::JOURNAL_FILE
                ));
            }
        }
        if let Some(dir) = &self.out {
            if dir.join(cmp_common::journal::JOURNAL_FILE).is_file() {
                return Err(format!(
                    "--out {}: already holds a campaign journal — \
                     use --resume {0} to continue it, or pick a fresh directory",
                    dir.display()
                ));
            }
            check_parent_exists(dir, "--out")?;
        }
        if let Some(csv) = &self.csv {
            check_parent_exists(Path::new(csv), "--csv")?;
        }
        Ok(())
    }

    /// The journal directory and whether it resumes an existing
    /// campaign, when the run is journaled at all.
    pub fn campaign_dir(&self) -> Option<(&Path, bool)> {
        match (&self.out, &self.resume) {
            (Some(dir), None) => Some((dir, false)),
            (None, Some(dir)) => Some((dir, true)),
            _ => None,
        }
    }

    /// The supervision policy implied by the flags.
    pub fn policy(&self) -> RunPolicy {
        RunPolicy {
            retries: self.retries,
            wall_deadline: self.deadline_s.map(Duration::from_secs),
            ..RunPolicy::default()
        }
    }

    /// The directory organisation to run with, defaulting to the
    /// machine default when `--directory` was not given.
    pub fn directory_or_default(&self) -> DirectoryConfig {
        self.directory
            .unwrap_or(cmp_common::config::CmpConfig::default().directory)
    }

    /// The selected application profiles (all 13 when no filter given).
    /// The names were resolved by [`Options::try_parse`], so an unknown
    /// one only panics here if `apps` was edited after parsing.
    pub fn selected_apps(&self) -> Vec<workloads::profile::AppProfile> {
        if self.apps.is_empty() {
            return workloads::apps::all_apps();
        }
        self.apps
            .iter()
            .map(|name| resolve_app(name).unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }
}

/// Look up an application by its exact label; the error lists every
/// known label.
pub fn resolve_app(name: &str) -> Result<workloads::profile::AppProfile, String> {
    workloads::apps::app_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::apps::all_apps().iter().map(|a| a.name).collect();
        format!("unknown app {name}; known: {}", known.join(", "))
    })
}

/// A path the run will write at the end must be creatable *now*: its
/// parent directory has to exist.
fn check_parent_exists(path: &Path, flag: &str) -> Result<(), String> {
    match path.parent() {
        None => Ok(()),
        Some(p) if p == Path::new("") => Ok(()),
        Some(parent) if parent.is_dir() => Ok(()),
        Some(parent) => Err(format!(
            "{flag} {}: parent directory {} does not exist",
            path.display(),
            parent.display()
        )),
    }
}

fn usage<T>() -> T {
    eprintln!(
        "usage: <bin> [--scale F] [--app NAME]... [--seed N] [--csv PATH] [--no-perfect] \
         [--jobs N] [--directory full-map|sparse|sparse:N] [--side N]... \
         [--out DIR | --resume DIR] [--retries N] [--deadline SECS] \
         [--submit SOCKET [--attach ID]]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn rejects_zero_jobs_and_bad_numbers() {
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--jobs", "x"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--scale", "-1"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--scale"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--deadline", "0"])
            .unwrap_err()
            .contains("--deadline"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn unknown_app_is_a_usage_error_naming_the_known_ones() {
        let err = parse(&["--app", "NoSuchApp"]).unwrap_err();
        assert!(err.contains("unknown app NoSuchApp"), "{err}");
        assert!(err.contains("MP3D"), "{err}");
        let o = parse(&["--app", "MP3D", "--app", "FFT"]).unwrap();
        let names: Vec<&str> = o.selected_apps().iter().map(|a| a.name).collect();
        assert_eq!(names, ["MP3D", "FFT"]);
    }

    #[test]
    fn directory_flag_parses_and_validates() {
        assert_eq!(
            parse(&["--directory", "sparse:128"]).unwrap().directory,
            Some(DirectoryConfig::Sparse { dir_mshrs: 128 })
        );
        assert_eq!(
            parse(&["--directory", "full-map"]).unwrap().directory,
            Some(DirectoryConfig::FullMap)
        );
        assert_eq!(
            parse(&["--directory", "sparse"])
                .unwrap()
                .directory_or_default(),
            DirectoryConfig::sparse()
        );
        assert_eq!(
            parse(&[]).unwrap().directory_or_default(),
            cmp_common::config::CmpConfig::default().directory
        );
        let err = parse(&["--directory", "mesi"]).unwrap_err();
        assert!(err.contains("--directory"), "{err}");
        assert!(parse(&["--directory", "sparse:0"]).is_err());
    }

    #[test]
    fn side_flag_accumulates_and_rejects_zero() {
        assert_eq!(
            parse(&["--side", "16", "--side", "32"]).unwrap().sides,
            vec![16, 32]
        );
        assert!(parse(&["--side", "0"]).unwrap_err().contains("--side"));
        assert!(parse(&["--side", "x"]).unwrap_err().contains("--side"));
    }

    #[test]
    fn rejects_conflicting_out_and_resume() {
        let dir = std::env::temp_dir();
        let err = parse(&[
            "--out",
            dir.join("a").to_str().unwrap(),
            "--resume",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn rejects_missing_output_directories() {
        let err = parse(&["--csv", "/definitely/not/a/dir/out.csv"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let err = parse(&["--out", "/definitely/not/a/dir/campaign"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn rejects_resume_of_nothing() {
        let err = parse(&["--resume", "/definitely/not/a/dir"]).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        // an existing directory with no journal is also not resumable
        let dir = std::env::temp_dir();
        let err = parse(&["--resume", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
    }

    #[test]
    fn accepts_a_full_well_formed_command_line() {
        let dir = std::env::temp_dir();
        let out = dir.join("fresh-campaign-dir");
        let o = parse(&[
            "--scale",
            "0.05",
            "--app",
            "FFT",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--retries",
            "3",
            "--deadline",
            "60",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.retries, 3);
        assert_eq!(o.deadline_s, Some(60));
        let (d, resuming) = o.campaign_dir().unwrap();
        assert_eq!(d, out.as_path());
        assert!(!resuming);
        let p = o.policy();
        assert_eq!(p.retries, 3);
        assert_eq!(p.wall_deadline, Some(Duration::from_secs(60)));
    }
}
