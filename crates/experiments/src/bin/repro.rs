//! `repro` — regenerate every table and figure of the reproduction.
//!
//! ```text
//! repro list                 # show the experiment index
//! repro all                  # run everything at full scale
//! repro t2 t4 f3             # run a subset
//! repro all --quick          # reduced sweeps (what the benches print)
//! repro all --csv out/       # also write one CSV per table
//! repro --help               # the usage lines, on stdout, exit 0
//! ```

use std::time::Instant;

use lowsense_experiments::{registry, Scale};

/// The usage lines: what `--help` prints, and bad input's error.
fn usage_text() -> String {
    format!(
        "usage: repro <list|all|ID...> [--quick] [--csv DIR]\n       IDs: {}",
        ids().join(" ")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Reports an output path the process cannot write and exits with the
/// bad-input code.
fn unwritable(path: &str, err: std::io::Error) -> ! {
    eprintln!("repro: cannot write {path}: {err}");
    std::process::exit(2);
}

fn ids() -> Vec<String> {
    registry().iter().map(|e| e.id.to_lowercase()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Full;
    let mut csv_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage_text());
                return;
            }
            "--quick" => scale = Scale::Quick,
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "list" => {
                println!("{0:<4} {1:<45} reproduces", "id", "title");
                for e in registry() {
                    println!("{:<4} {:<45} {}", e.id, e.title, e.claim);
                }
                return;
            }
            "all" => selected = ids(),
            id => selected.push(id.to_lowercase()),
        }
    }
    if selected.is_empty() {
        usage();
    }
    let reg = registry();
    for id in &selected {
        if !reg.iter().any(|e| e.id.to_lowercase() == *id) {
            eprintln!("unknown experiment id: {id}");
            usage();
        }
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| unwritable(dir, e));
    }

    let total = Instant::now();
    for e in reg {
        if !selected.contains(&e.id.to_lowercase()) {
            continue;
        }
        let started = Instant::now();
        let tables = (e.run)(scale);
        let elapsed = started.elapsed();
        for t in &tables {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}.csv", t.id.to_lowercase());
                std::fs::write(&path, t.to_csv()).unwrap_or_else(|e| unwritable(&path, e));
            }
        }
        println!(
            "[{} done in {:.1}s — reproduces {}]\n",
            e.id,
            elapsed.as_secs_f64(),
            e.claim
        );
    }
    println!("total: {:.1}s", total.elapsed().as_secs_f64());
}
