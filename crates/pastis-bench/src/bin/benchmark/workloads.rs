//! The five workloads: what each is made of, how its inputs are set up
//! from the seeds, its timed region, and the checks on its output.
//!
//! Every workload draws on one master dataset, generated from
//! `--dataset-seed`. `--seed` permutes it (and draws the `serve.repeat`
//! stream), so that every seed gives different input files holding the
//! same amount of work: regenerating the families per seed moves the DP
//! cell count by ±17% at these sizes, which no bound on `wall_s` survives.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::api::{self, SearchConfig, SearchRun, Seqs, ServeRun};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchFullsw,
    SearchSparse,
    SearchBlocked,
    ServeSelf,
    ServeRepeat,
}

pub const ALL: [Workload; 5] = [
    Workload::SearchFullsw,
    Workload::SearchSparse,
    Workload::SearchBlocked,
    Workload::ServeSelf,
    Workload::ServeRepeat,
];

/// Reference columns per persisted index stripe.
pub const STRIPE_COLS: usize = 512;
/// Each unique `serve.repeat` query appears this many times in the stream.
const REPEATS: usize = 5;
/// The loose budget of the `search.blocked` probe run.
const PROBE_BUDGET: u64 = 1 << 30;

/// What the seeds and sizes of one invocation are.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub seed: u64,
    pub dataset_seed: u64,
    pub quick: bool,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchFullsw => "search.fullsw",
            Workload::SearchSparse => "search.sparse",
            Workload::SearchBlocked => "search.blocked",
            Workload::ServeSelf => "serve.self",
            Workload::ServeRepeat => "serve.repeat",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sequences in the master dataset. The defaults are the issue's sizes
    /// scaled down (1000 : 4000 : 3500 for 1500 : 6000 : 4000) so that a
    /// warm-up and at least three timed reps fit a ten-second run.
    pub fn dataset_size(self, quick: bool) -> usize {
        match (self, quick) {
            (Workload::SearchSparse, false) => 4000,
            (Workload::SearchSparse, true) => 1000,
            (Workload::ServeRepeat, false) => 3500,
            (Workload::ServeRepeat, true) => 600,
            (_, false) => 1000,
            (_, true) => 300,
        }
    }

    /// Program threads: one, except `search.blocked` at `min(2, nproc)`.
    pub fn threads(self) -> usize {
        match self {
            Workload::SearchBlocked => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            _ => 1,
        }
    }

    /// Floors on planted-family (recall, precision), a little under the
    /// values measured at the default seeds; `search.*` only.
    pub fn truth_floors(self) -> Option<(f64, f64)> {
        match self {
            Workload::SearchFullsw | Workload::SearchBlocked => Some((0.98, 0.98)),
            Workload::SearchSparse => Some((0.90, 0.98)),
            _ => None,
        }
    }

    /// Whether the output must equal `search.fullsw`'s on the same input.
    pub fn has_reference(self) -> bool {
        matches!(self, Workload::SearchBlocked | Workload::ServeSelf)
    }

    /// Build this workload's inputs under `dir` from the seeds. This is
    /// what `setup_s` times.
    pub fn setup(self, dir: &Path, inputs: Inputs) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let n = self.dataset_size(inputs.quick);
        let master = api::generate(n, inputs.dataset_seed);
        let mut rng = SplitMix64(inputs.seed);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let paths = Paths::under(dir);
        match self {
            Workload::SearchFullsw | Workload::SearchSparse => {
                api::write_seqs(&master.select(&order), &paths.fasta)
            }
            Workload::SearchBlocked => {
                api::write_seqs(&master.select(&order), &paths.fasta)?;
                let probe =
                    SearchConfig::blocked(self.threads()).with_budget(PROBE_BUDGET, &paths.spill);
                let high = api::search_file(&paths.fasta, &probe, &paths.out)?
                    .mem_high_water
                    .ok_or("the budgeted probe reported no high-water mark")?;
                std::fs::write(&paths.budget, (high * 3 / 4).to_string())
                    .map_err(|e| format!("writing {}: {e}", paths.budget.display()))
            }
            Workload::ServeSelf => {
                let seqs = master.select(&order);
                api::write_seqs(&seqs, &paths.fasta)?;
                api::index_build(&seqs, &paths.index, STRIPE_COLS).map(drop)
            }
            Workload::ServeRepeat => {
                // References: the even master ids, in seed order. Queries:
                // the first n/5 odd master ids, each REPEATS times, in a
                // seeded order of their own.
                order.retain(|i| i % 2 == 0);
                api::index_build(&master.select(&order), &paths.index, STRIPE_COLS)?;
                let uniques = n / REPEATS;
                let mut stream: Vec<usize> = (0..uniques * REPEATS)
                    .map(|s| 2 * (s % uniques) + 1)
                    .collect();
                rng.shuffle(&mut stream);
                api::write_seqs(&master.select(&stream), &paths.fasta)
            }
        }
    }

    /// The `search.fullsw` run on this workload's input, written as the
    /// reference TSV. Untimed; made by the coordinator so that it does not
    /// count toward the measured process's peak memory.
    pub fn make_reference(self, dir: &Path) -> Result<SearchRun, String> {
        let paths = Paths::under(dir);
        api::search_file(&paths.fasta, &SearchConfig::fullsw(), &paths.reference)
    }

    /// Resolve the timed region against the inputs under `dir`.
    pub fn plan(self, dir: &Path) -> Result<Plan, String> {
        let paths = Paths::under(dir);
        let search = match self {
            Workload::SearchFullsw => Some(SearchConfig::fullsw()),
            Workload::SearchSparse => Some(SearchConfig::sparse()),
            Workload::SearchBlocked => {
                let text = std::fs::read_to_string(&paths.budget)
                    .map_err(|e| format!("reading {}: {e}", paths.budget.display()))?;
                let budget = text.trim().parse().map_err(|e| format!("budget: {e}"))?;
                Some(SearchConfig::blocked(self.threads()).with_budget(budget, &paths.spill))
            }
            Workload::ServeSelf | Workload::ServeRepeat => None,
        };
        Ok(Plan { paths, search })
    }

    /// Check a finished workload's output file; returns what is wrong.
    pub fn check(self, dir: &Path, last: &Rep) -> Vec<String> {
        let paths = Paths::under(dir);
        let mut errors = Vec::new();
        let output = match std::fs::read_to_string(&paths.out) {
            Ok(text) => text,
            Err(e) => return vec![format!("reading {}: {e}", paths.out.display())],
        };
        if self.has_reference() {
            match std::fs::read_to_string(&paths.reference) {
                Ok(reference) if reference == output => {}
                Ok(_) => errors.push("output differs from search.fullsw's TSV".to_owned()),
                Err(e) => errors.push(format!("reading {}: {e}", paths.reference.display())),
            }
        }
        let input = match api::read_seqs(&paths.fasta) {
            Ok(seqs) => seqs,
            Err(e) => {
                errors.push(e);
                return errors;
            }
        };
        if let Some((recall_floor, precision_floor)) = self.truth_floors() {
            let (recall, precision) = recall_precision(&input, &output);
            if recall < recall_floor || precision < precision_floor {
                errors.push(format!(
                    "planted-family recall {recall:.4} / precision {precision:.4} under the \
                     floors {recall_floor} / {precision_floor}"
                ));
            }
        }
        if let Rep::Serve(run) = last {
            // Every distinct query content misses once and every copy of it
            // hits, as long as the distinct contents fit the cache.
            let c = run.counts;
            let distinct: BTreeSet<&[u8]> = (0..input.len()).map(|q| input.seq(q)).collect();
            let misses = distinct.len() as u64;
            let hits = input.len() as u64 - misses;
            if (c.cache_hits, c.cache_misses) != (hits, misses) {
                errors.push(format!(
                    "cache hits/misses {}/{}, expected {hits}/{misses}",
                    c.cache_hits, c.cache_misses
                ));
            }
            if c.self_mode != (self == Workload::ServeSelf) {
                errors.push(format!("self mode is {}", c.self_mode));
            }
            if self == Workload::ServeRepeat {
                errors.extend(repeated_rows_differ(&input, &output));
            }
        }
        errors
    }
}

/// Where a workload's files live under its directory.
#[derive(Clone)]
pub struct Paths {
    /// The FASTA the program reads: the search input or the query stream.
    pub fasta: PathBuf,
    pub index: PathBuf,
    pub spill: PathBuf,
    pub budget: PathBuf,
    pub reference: PathBuf,
    /// The TSV the program writes.
    pub out: PathBuf,
}

impl Paths {
    pub fn under(dir: &Path) -> Paths {
        Paths {
            fasta: dir.join("input.fasta"),
            index: dir.join("index"),
            spill: dir.join("spill"),
            budget: dir.join("budget.txt"),
            reference: dir.join("reference.tsv"),
            out: dir.join("out.tsv"),
        }
    }
}

/// A workload's timed region, ready to run any number of times.
pub struct Plan {
    pub paths: Paths,
    /// The search parameters; `None` for the `serve.*` workloads.
    pub search: Option<SearchConfig>,
}

/// What one run of the timed region reported.
pub enum Rep {
    Search(SearchRun),
    Serve(ServeRun),
}

impl Plan {
    pub fn run(&self) -> Result<Rep, String> {
        let p = &self.paths;
        match &self.search {
            Some(cfg) => api::search_file(&p.fasta, cfg, &p.out).map(Rep::Search),
            None => api::serve_file(&p.index, &p.fasta, &p.out).map(Rep::Serve),
        }
    }
}

impl Rep {
    /// The counts that must repeat exactly from rep to rep.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let counts = match self {
            Rep::Search(r) => {
                let c = r.counts;
                vec![
                    ("candidates", c.candidates),
                    ("aligned_pairs", c.aligned_pairs),
                    ("cells", c.cells),
                    ("similar_pairs", c.similar_pairs),
                    ("spgemm_products", c.spgemm_products),
                    ("output_bytes", r.out_bytes),
                ]
            }
            Rep::Serve(r) => {
                let c = r.counts;
                vec![
                    ("requests", c.requests),
                    ("cache_hits", c.cache_hits),
                    ("cache_misses", c.cache_misses),
                    ("candidates", c.candidates),
                    ("aligned_pairs", c.aligned_pairs),
                    ("cells", c.cells),
                    ("emitted", c.emitted),
                    ("output_bytes", r.out_bytes),
                ]
            }
        };
        counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    /// Operations in this rep: one for a search, one per request served.
    pub fn ops(&self) -> u64 {
        match self {
            Rep::Search(_) => 1,
            Rep::Serve(r) => r.counts.requests,
        }
    }

    pub fn aligned_pairs(&self) -> u64 {
        match self {
            Rep::Search(r) => r.counts.aligned_pairs,
            Rep::Serve(r) => r.counts.aligned_pairs,
        }
    }

    pub fn cells(&self) -> u64 {
        match self {
            Rep::Search(r) => r.counts.cells,
            Rep::Serve(r) => r.counts.cells,
        }
    }
}

/// The planted family of a generated sequence id, `None` for singletons.
fn family(id: &str) -> Option<&str> {
    id.strip_prefix("fam")?.split_once("_m").map(|(f, _)| f)
}

/// The `(i, j)` endpoints of each TSV row.
fn row_endpoints(tsv: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    tsv.lines().filter_map(|l| {
        let mut cols = l.split('\t');
        Some((cols.next()?.parse().ok()?, cols.next()?.parse().ok()?))
    })
}

/// Recall and precision of the output edges against the planted pairs.
pub fn recall_precision(input: &Seqs, tsv: &str) -> (f64, f64) {
    let mut sizes: BTreeMap<&str, u64> = BTreeMap::new();
    for i in 0..input.len() {
        if let Some(f) = family(input.id(i)) {
            *sizes.entry(f).or_default() += 1;
        }
    }
    let planted: u64 = sizes.values().map(|s| s * (s - 1) / 2).sum();
    let (mut found, mut hit) = (0u64, 0u64);
    for (i, j) in row_endpoints(tsv) {
        found += 1;
        let (fi, fj) = (family(input.id(i)), family(input.id(j)));
        hit += u64::from(fi.is_some() && fi == fj);
    }
    (
        hit as f64 / planted.max(1) as f64,
        hit as f64 / found.max(1) as f64,
    )
}

/// `serve.repeat`: every copy of a query must get the same rows.
fn repeated_rows_differ(stream: &Seqs, tsv: &str) -> Option<String> {
    let mut rows: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); stream.len()];
    for l in tsv.lines() {
        let (q, rest) = l.split_once('\t')?;
        rows.get_mut(q.parse::<usize>().ok()?)?.insert(rest);
    }
    let mut first: BTreeMap<&[u8], usize> = BTreeMap::new();
    for q in 0..stream.len() {
        let p = *first.entry(stream.seq(q)).or_insert(q);
        if rows[p] != rows[q] {
            return Some(format!(
                "requests {p} and {q} are identical but got different rows"
            ));
        }
    }
    None
}

/// splitmix64: the harness's own seeded stream, so that input order never
/// depends on the program's random number generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("search"), None);
    }

    #[test]
    fn family_of_generated_ids() {
        assert_eq!(family("fam12_m3"), Some("12"));
        assert_eq!(family("single7"), None);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..100).collect();
            SplitMix64(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
        let mut sorted = shuffled(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
