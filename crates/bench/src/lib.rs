//! Shared plumbing for the figure-regeneration binaries and
//! `perf_baseline`: random problem builders and a tiny CLI/report layer.

#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc_count;

use std::io::Write;
use std::path::PathBuf;

use peercache_core::{Candidate, ChordProblem, PastryProblem};
use peercache_id::{Id, IdSpace};
use peercache_sim::{FigureRow, Scale};
use peercache_workload::{random_ids, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

// Rounded log2 of a candidate count is tiny and non-negative, so the
// f64 → usize cast is exact.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn log2(n: usize) -> usize {
    (n as f64).log2().round() as usize
}

/// Build a random Chord selection problem: `n` candidates with Zipf(α)
/// weights, `log₂ n` core fingers at exponentially spaced offsets.
pub fn random_chord_problem(n: usize, k: usize, alpha: f64, seed: u64) -> ChordProblem {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, n + 1 + 32, &mut rng);
    let source = ids[0];
    let zipf = Zipf::new(n, alpha).expect("valid Zipf");
    let candidates: Vec<Candidate> = ids[1..=n]
        .iter()
        .enumerate()
        .map(|(i, &id)| Candidate::new(id, zipf.rank_probability(i) * 1e6))
        .collect();
    // Core fingers: closest candidate at or after source + 2^i (re-using
    // extra ids so cores never collide with candidates).
    let core: Vec<Id> = ids[n + 1..].iter().copied().take(log2(n)).collect();
    ChordProblem::new(space, source, core, candidates, k).expect("well-formed")
}

/// Build a random Pastry selection problem analogous to
/// [`random_chord_problem`].
pub fn random_pastry_problem(n: usize, k: usize, alpha: f64, seed: u64) -> PastryProblem {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = random_ids(space, n + 1 + 32, &mut rng);
    let source = ids[0];
    let zipf = Zipf::new(n, alpha).expect("valid Zipf");
    let candidates: Vec<Candidate> = ids[1..=n]
        .iter()
        .enumerate()
        .map(|(i, &id)| Candidate::new(id, zipf.rank_probability(i) * 1e6))
        .collect();
    let core: Vec<Id> = ids[n + 1..].iter().copied().take(log2(n)).collect();
    PastryProblem::new(space, 1, source, core, candidates, k).expect("well-formed")
}

/// A writer mirroring a binary's report to stdout **and** to
/// `out/<name>_output.txt`, so recorded outputs live in the gitignored
/// `out/` directory instead of being committed by hand.
pub struct Tee {
    file: std::fs::File,
    path: PathBuf,
}

impl Tee {
    /// Open `out/<name>_output.txt` for mirroring (creating `out/`).
    ///
    /// # Panics
    /// Panics when the output directory or file cannot be created.
    pub fn create(name: &str) -> Self {
        std::fs::create_dir_all("out").expect("create out/ directory");
        let path = PathBuf::from(format!("out/{name}_output.txt"));
        let file = std::fs::File::create(&path).expect("create output file");
        Tee { file, path }
    }

    /// Write one line to stdout and the mirror file.
    ///
    /// # Panics
    /// Panics when the mirror file cannot be written.
    pub fn line(&mut self, text: &str) {
        println!("{text}");
        writeln!(self.file, "{text}").expect("write output file");
    }

    /// Where the mirror is being written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

/// `println!`-style helper writing through a [`Tee`].
#[macro_export]
macro_rules! teeln {
    ($tee:expr) => { $tee.line("") };
    ($tee:expr, $($arg:tt)*) => { $tee.line(&format!($($arg)*)) };
}

/// Arguments shared by the ad-hoc ablation/extension binaries:
/// `--quick` plus the engine-wide `--threads N`, and a [`Tee`] mirroring
/// the report into `out/`.
pub struct BinArgs {
    /// Run at reduced scale.
    pub quick: bool,
    /// Mirror writer for the binary's report.
    pub tee: Tee,
}

impl BinArgs {
    /// Parse `[--quick] [--threads N]` and open the `out/` mirror.
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments.
    pub fn parse(name: &str) -> Self {
        let mut quick = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--threads" => peercache_par::set_threads(parse_threads(args.next())),
                other => panic!("unknown argument {other}; usage: [--quick] [--threads N]"),
            }
        }
        BinArgs {
            quick,
            tee: Tee::create(name),
        }
    }
}

fn parse_threads(value: Option<String>) -> usize {
    value
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .expect("--threads takes a positive integer")
}

/// CLI options shared by the figure binaries.
pub struct FigureCli {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Optional path for a JSON dump of the rows.
    pub json: Option<String>,
}

impl FigureCli {
    /// Parse `--quick`, `--seed N`, `--json PATH`, `--threads N` from
    /// `std::env::args`. `--threads` sets the [`peercache_par`] pool width
    /// for the whole process (results are bit-identical at any width).
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments (these are
    /// developer-facing binaries).
    pub fn parse() -> Self {
        let mut scale = Scale::paper();
        let mut seed = 1u64;
        let mut json = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => scale = Scale::quick(),
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed takes an integer");
                }
                "--json" => {
                    json = Some(args.next().expect("--json takes a path"));
                }
                "--threads" => peercache_par::set_threads(parse_threads(args.next())),
                other => {
                    panic!(
                        "unknown argument {other}; usage: [--quick] [--seed N] [--json PATH] [--threads N]"
                    )
                }
            }
        }
        FigureCli { scale, seed, json }
    }

    /// Print the table and optionally dump JSON rows.
    ///
    /// # Panics
    /// Panics when the JSON path cannot be written.
    pub fn report(&self, header: &str, rows: &[FigureRow]) {
        println!("{header}");
        println!("{}", peercache_sim::render_table(rows));
        if let Some(path) = &self.json {
            let mut file = std::fs::File::create(path).expect("create JSON output");
            let body = peercache_json::to_string_pretty(rows);
            file.write_all(body.as_bytes()).expect("write JSON output");
            println!("(rows written to {path})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_core::chord::select_fast;
    use peercache_core::pastry::select_greedy;

    #[test]
    fn random_problems_are_solvable() {
        let p = random_chord_problem(64, 6, 1.2, 3);
        assert_eq!(p.candidates.len(), 64);
        let sel = select_fast(&p).unwrap();
        assert_eq!(sel.aux.len(), 6);

        let p = random_pastry_problem(64, 6, 1.2, 3);
        let sel = select_greedy(&p).unwrap();
        assert_eq!(sel.aux.len(), 6);
    }

    #[test]
    fn problems_are_deterministic_per_seed() {
        let a = random_chord_problem(32, 4, 1.0, 9);
        let b = random_chord_problem(32, 4, 1.0, 9);
        assert_eq!(a.source, b.source);
        assert_eq!(a.candidates.len(), b.candidates.len());
        assert_eq!(a.candidates[0].id, b.candidates[0].id);
    }
}
