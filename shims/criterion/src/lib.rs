//! Offline shim for `criterion`: the subset used by the workspace benches —
//! `Criterion`, `benchmark_group`/`bench_function`, `Bencher::iter` /
//! `iter_batched`, and the `criterion_group!`/`criterion_main!` macros. It
//! runs each benchmark once to warm up, then times iterations one by one —
//! at least 31, and for at least 2 s — and prints the fastest: the time the
//! routine takes when nothing else on the machine slows it. On a shared
//! 2-vCPU box whose speed swings ±20 % from one second to the next, the
//! mean of ten iterations, and even the median of a 2 s run, moved ±10 %
//! between two runs of one binary, while the fastest of a 2 s run agreed
//! within ±2 %. No HTML reports or outlier analysis.
//! Of criterion's command line it takes the positional filter only
//! (`cargo bench -- march` runs the benchmarks whose `group/id` contains
//! `march`), and ignores every flag.

use std::time::{Duration, Instant};

const WARMUP_ITERS: u32 = 1;
/// Timed iterations: at least this many, and as many more as fit in
/// `MIN_TIME`, up to `MAX_ITERS`.
const MIN_ITERS: usize = 31;
const MIN_TIME: Duration = Duration::from_secs(2);
const MAX_ITERS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

#[derive(Default)]
pub struct Bencher {
    fastest_nanos: f64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine(setup()));
        }
        let begun = Instant::now();
        let mut fastest = u128::MAX;
        let mut iters = 0;
        while iters < MIN_ITERS || (begun.elapsed() < MIN_TIME && iters < MAX_ITERS) {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            fastest = fastest.min(start.elapsed().as_nanos());
            iters += 1;
        }
        self.fastest_nanos = fastest as f64;
    }
}

#[derive(Default)]
pub struct Criterion {
    /// Runs only the benchmarks whose full id contains it.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the filter from the command line: its first argument that is
    /// not a flag (`cargo bench` passes `--bench` ahead of it).
    pub fn configure_from_args(self) -> Criterion {
        Criterion {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&id.into(), &mut f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, id: &str, f: &mut F) {
        if self.filter.as_ref().is_some_and(|want| !id.contains(want)) {
            return;
        }
        let mut b = Bencher::default();
        f(&mut b);
        if b.fastest_nanos >= 1e6 {
            println!("{id:<50} {:>12.3} ms", b.fastest_nanos / 1e6);
        } else if b.fastest_nanos >= 1e3 {
            println!("{id:<50} {:>12.3} µs", b.fastest_nanos / 1e3);
        } else {
            println!("{id:<50} {:>12.1} ns", b.fastest_nanos);
        }
    }
}

pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.c.run_one(&full, &mut f);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
