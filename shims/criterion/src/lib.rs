//! Offline shim for `criterion`: the subset used by the workspace benches —
//! `Criterion`, `benchmark_group`/`bench_function`, `Bencher::iter` /
//! `iter_batched`, and the `criterion_group!`/`criterion_main!` macros. It
//! runs each benchmark for a fixed small number of timed iterations and
//! prints mean wall time; no statistics, HTML reports or outlier analysis.
//! Of criterion's command line it takes the positional filter only
//! (`cargo bench -- march` runs the benchmarks whose `group/id` contains
//! `march`), and ignores every flag.

use std::time::Instant;

const WARMUP_ITERS: u32 = 2;
const MEASURE_ITERS: u32 = 10;

#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

#[derive(Default)]
pub struct Bencher {
    mean_nanos: f64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine());
        }
        let start = Instant::now();
        for _ in 0..MEASURE_ITERS {
            std::hint::black_box(routine());
        }
        self.mean_nanos = start.elapsed().as_nanos() as f64 / MEASURE_ITERS as f64;
    }

    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine(setup()));
        }
        let mut total = 0u128;
        for _ in 0..MEASURE_ITERS {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed().as_nanos();
        }
        self.mean_nanos = total as f64 / MEASURE_ITERS as f64;
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
        if b.mean_nanos >= 1e6 {
            println!("{id:<50} {:>12.3} ms", b.mean_nanos / 1e6);
        } else if b.mean_nanos >= 1e3 {
            println!("{id:<50} {:>12.3} µs", b.mean_nanos / 1e3);
        } else {
            println!("{id:<50} {:>12.1} ns", b.mean_nanos);
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
