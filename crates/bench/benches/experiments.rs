//! Benches for every registered experiment — tables T1–T9, figures F2–F6,
//! ablations A1–A5 and extensions X1–X2: prints each reproduced table
//! (quick scale) once, then times the experiment kernel so regressions in
//! the engines or the algorithm show up as bench deltas.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use lowsense_experiments::{registry, Scale};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for e in registry() {
        // Regenerate and print the table once (this is the reproduction
        // artifact; `cargo bench | tee bench_output.txt` captures it).
        for t in (e.run)(Scale::Quick) {
            println!("{}", t.render());
        }
        group.bench_function(e.id, |b| b.iter(|| (e.run)(Scale::Quick)));
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
