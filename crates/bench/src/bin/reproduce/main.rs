//! Regenerates the paper's tables and figures (§5), the ablations, and
//! the calibration and fidelity diagnostics behind EXPERIMENTS.md — one
//! entry each, run by name:
//!
//! ```text
//! reproduce <name>... [--scale smoke|default|full] [--seed <u64>]
//! ```
//!
//! `all` runs every entry in table order. Each entry prints exactly what
//! it prints on its own, so `all` is the entries' outputs concatenated.
//! An unknown name exits 2 and lists the valid ones; so does a run with
//! no name. `--help` lists them on stdout.

use starcdn_bench::{parse_args, Args};

/// A name and the body that regenerates it.
type Entry = (&'static str, fn(Args));

/// Declares one module per entry and `ENTRIES`, the table of them in the
/// order `all` runs them; an entry's name is its module's name.
macro_rules! entries {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*
        const ENTRIES: &[Entry] = &[$((stringify!($name), $name::run)),*];
    };
}

entries! {
    table1, table2, table3,
    fig2, fig3, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
    ablation_bandwidth, ablation_churn, ablation_delayed, ablation_extreme,
    ablation_failures, ablation_handover, ablation_mixed, ablation_overload,
    ablation_policies, ablation_prefetch, ablation_relay, ablation_scheduler,
    calibrate, debug_fidelity,
}

fn usage() -> String {
    let mut s = String::from(
        "usage: reproduce <name>... [--scale smoke|default|full] [--seed <u64>]\n\
         names (`all` runs every one, in this order):\n",
    );
    for (name, _) in ENTRIES {
        s.push_str("  ");
        s.push_str(name);
        s.push('\n');
    }
    s
}

fn die(msg: &str) -> ! {
    eprint!("{msg}\n{}", usage());
    std::process::exit(2)
}

fn main() {
    let mut names = Vec::new();
    let mut flags = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(tok) = argv.next() {
        match tok.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            flag if flag.starts_with('-') => {
                flags.push(tok);
                flags.extend(argv.next());
            }
            _ => names.push(tok),
        }
    }
    let args = parse_args(flags);
    if names.is_empty() {
        die("no name given");
    }
    // Resolve every name before running any, so a typo in the last one
    // does not surface after the first has run for minutes.
    let mut runs = Vec::new();
    for name in &names {
        if name == "all" {
            runs.extend(ENTRIES.iter().map(|&(_, run)| run));
        } else {
            match ENTRIES.iter().find(|(n, _)| n == name) {
                Some(&(_, run)) => runs.push(run),
                None => die(&format!("unknown name `{name}`")),
            }
        }
    }
    for run in runs {
        run(args);
    }
}
