//! Plain-text report formatting for the experiments: aligned
//! tables and simple horizontal bars, so every figure/table harness prints
//! the same kind of rows the paper shows.

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// use microlib::report::text_table;
///
/// let out = text_table(
///     &["mech", "speedup"],
///     &[vec!["GHB".into(), "1.21".into()], vec!["SP".into(), "1.17".into()]],
/// );
/// assert!(out.contains("GHB"));
/// assert!(out.lines().count() >= 4);
/// ```
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a labelled horizontal bar scaled so `full_scale` is `width`
/// characters.
///
/// # Examples
///
/// ```
/// use microlib::report::bar;
///
/// let b = bar("swim", 1.5, 2.0, 20);
/// assert!(b.starts_with("swim"));
/// assert!(b.contains('#'));
/// ```
pub fn bar(label: &str, value: f64, full_scale: f64, width: usize) -> String {
    let filled = if full_scale > 0.0 {
        ((value / full_scale) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    format!(
        "{label:<12} {:6.3} |{}{}|",
        value,
        "#".repeat(filled),
        " ".repeat(width - filled)
    )
}

/// Formats a float with three decimals (the paper's speedup precision).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = text_table(
            &["a", "long header"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header separator spans the width.
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn bar_clamps_overflow() {
        let b = bar("x", 10.0, 1.0, 10);
        assert_eq!(b.matches('#').count(), 10);
        let empty = bar("x", 0.0, 1.0, 10);
        assert_eq!(empty.matches('#').count(), 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(-12.34), "-12.3%");
        assert_eq!(pct(5.0), "+5.0%");
    }
}
