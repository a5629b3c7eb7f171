//! The `reproduce` binary's command line: its table of entries, the
//! names it rejects, and the harness binaries' strict flag parsing.

use std::collections::BTreeSet;
use std::process::{Command, Output};

/// Every table, figure, ablation and diagnostic, in table order.
const EXPECTED: &str = "table1 table2 table3 \
    fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
    ablation_bandwidth ablation_churn ablation_delayed ablation_extreme \
    ablation_failures ablation_handover ablation_mixed ablation_overload \
    ablation_policies ablation_prefetch ablation_relay ablation_scheduler \
    calibrate debug_fidelity";

fn expected() -> Vec<&'static str> {
    EXPECTED.split_whitespace().collect()
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

fn reproduce(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_reproduce"), args)
}

/// The entry names a usage text lists, one indented name per line.
fn listed(text: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(text)
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .map(str::to_string)
        .collect()
}

#[test]
fn help_lists_every_entry_once_in_table_order() {
    let out = reproduce(&["--help"]);
    assert!(out.status.success());
    let names = listed(&out.stdout);
    assert_eq!(names, expected());
    assert_eq!(names.len(), 27);
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate entry names: {names:?}");
}

#[test]
fn unknown_name_exits_2_and_lists_every_entry() {
    let out = reproduce(&["fig7", "fig99", "--scale", "smoke"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before every name resolves");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown name `fig99`"), "{err}");
    assert_eq!(listed(&out.stderr), expected());
}

#[test]
fn no_name_and_bad_flags_exit_2() {
    assert_eq!(reproduce(&[]).status.code(), Some(2));
    assert_eq!(reproduce(&["fig3", "--scale", "smok"]).status.code(), Some(2));
    assert_eq!(reproduce(&["fig3", "--seed", "x"]).status.code(), Some(2));
    assert_eq!(reproduce(&["fig3", "--seed"]).status.code(), Some(2));
}

#[test]
fn harness_bins_exit_2_on_malformed_flags() {
    let soak = env!("CARGO_BIN_EXE_serve_soak");
    for args in [&["--scale", "smok"][..], &["--seeds", "x"], &["--sedes", "5"]] {
        let out = run(soak, args);
        assert_eq!(out.status.code(), Some(2), "serve_soak {args:?}");
        assert!(out.stdout.is_empty(), "serve_soak {args:?} ran anyway");
    }
    let ckpt = env!("CARGO_BIN_EXE_checkpoint_overhead");
    for args in [&["--mode", "golden"][..], &["--gate"]] {
        let out = run(ckpt, args);
        assert_eq!(out.status.code(), Some(2), "checkpoint_overhead {args:?}");
        assert!(out.stdout.is_empty(), "checkpoint_overhead {args:?} ran anyway");
    }
}
