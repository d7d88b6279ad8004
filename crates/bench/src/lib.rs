//! Shared formatting helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one paper artifact (README,
//! "Regenerating the paper's artifacts") and prints it as an aligned ASCII
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Bench harness code backs dev-tool binaries, not the library stack: a
// panic aborts the measurement run, which is the right failure mode.
#![allow(clippy::disallowed_methods)]

pub mod harness;
pub mod nets;

/// Render an aligned ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:>w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// `--quick` flag: binaries run a reduced budget (CI-friendly).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Format a float with the given number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10.5".into(), "x".into()],
            ],
        );
        assert!(t.contains("| a "));
        assert!(t.contains("long-header"));
        // All lines share the same width.
        let lens: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 3), "10.000");
    }
}
