//! Plain-text table/series output for the bench binaries.
//!
//! Each `reproduce` entry prints (a) the paper's reported values and (b) the
//! measured values side by side, as aligned rows that paste cleanly
//! into EXPERIMENTS.md.

/// Print a table: header row plus data rows, columns padded to fit.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch in `{title}`");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> =
            cells.iter().enumerate().map(|(i, c)| format!("{:<w$}", c, w = widths[i])).collect();
        println!("| {} |", line.join(" | "));
    };
    print_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        print_row(row);
    }
}

/// Format a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a millisecond value.
pub fn ms(x: f64) -> String {
    format!("{x:.1}ms")
}

/// Format a byte count with binary units.
pub fn bytes_h(x: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = x as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{x}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.756), "75.6%");
        assert_eq!(ms(12.345), "12.3ms");
        assert_eq!(bytes_h(512), "512B");
        assert_eq!(bytes_h(2048), "2.0KiB");
        assert_eq!(bytes_h(3 * 1024 * 1024), "3.0MiB");
        assert_eq!(bytes_h(5 * 1024 * 1024 * 1024), "5.0GiB");
    }

    #[test]
    fn print_table_runs() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4444".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        print_table("bad", &["a", "b"], &[vec!["1".into()]]);
    }
}
