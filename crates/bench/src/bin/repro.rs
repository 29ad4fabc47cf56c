//! Regenerate the paper's tables and figures. Every number is modeled (see the
//! library docs), so the output is deterministic; `tests/data/repro_all.golden.txt`
//! is `repro all`.
//!
//! ```text
//! cargo run -p hysortk-bench --release --bin repro -- list
//! cargo run -p hysortk-bench --release --bin repro -- table2
//! cargo run -p hysortk-bench --release --bin repro -- all
//! ```

#![forbid(unsafe_code)]

use hysortk_bench::{render, EXPERIMENTS};

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "list".to_string());
    match arg.as_str() {
        "list" => {
            println!("available experiments:\n");
            for (name, description, _) in EXPERIMENTS {
                println!("  {name:<16} {description}");
            }
            println!("\nrun one with `repro <name>`, or `repro all`");
        }
        "all" => {
            for (name, description, f) in EXPERIMENTS {
                eprintln!("[repro] running {name} …");
                println!("{}", render(description, &f()));
            }
        }
        name => match EXPERIMENTS.iter().find(|(n, _, _)| *n == name) {
            Some((_, description, f)) => println!("{}", render(description, &f())),
            None => {
                eprintln!("unknown experiment `{name}`; try `repro list`");
                std::process::exit(1);
            }
        },
    }
}
