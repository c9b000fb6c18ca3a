//! `repro` — regenerate the tables and figures of the ERA paper.
//!
//! Usage:
//!
//! ```text
//! repro all                  # every experiment at the default (1 MiB) scale
//! repro all --quick          # every experiment at the 64 KiB smoke scale
//! repro fig10a fig9b         # selected experiments
//! repro list                 # list experiment ids
//! repro all --out report.md  # also write the Markdown report to a file
//! ```

#![deny(rust_2018_idioms)]

use std::io::Write;

use era_bench::{all_experiments, run_experiment, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();

    let mut selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| out_path.as_deref() != Some(a.as_str()))
        .cloned()
        .collect();
    if selected.iter().any(|a| a == "list") {
        for id in all_experiments() {
            println!("{id}");
        }
        return;
    }
    if selected.iter().any(|a| a == "all") {
        selected = all_experiments().into_iter().map(String::from).collect();
    }
    if selected.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let mut report = String::new();
    report.push_str(&format!(
        "# ERA reproduction report ({} scale)\n\n",
        if quick { "quick" } else { "full" }
    ));
    for id in &selected {
        eprintln!("running {id} ...");
        match run_experiment(id, &scale) {
            Some(result) => {
                let md = result.to_markdown();
                println!("{md}");
                report.push_str(&md);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = out_path {
        let mut f = std::fs::File::create(&path).expect("create report file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("report written to {path}");
    }
}

fn print_usage() {
    eprintln!("usage: repro <all|list|EXPERIMENT...> [--quick] [--out FILE]");
    eprintln!("experiments: {}", all_experiments().join(", "));
}
