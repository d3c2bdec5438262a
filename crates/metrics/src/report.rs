//! Plain-text table rendering for the bench harness output.

/// Renders rows as an aligned plain-text table. `header` and every row
/// must have the same number of columns.
///
/// ```
/// use rstorm_metrics::text_table;
/// let t = text_table(
///     &["scheduler", "throughput"],
///     &[vec!["r-storm".into(), "25496".into()],
///       vec!["default".into(), "16695".into()]],
/// );
/// assert!(t.contains("r-storm"));
/// ```
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity must match header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_owned()
    };
    out.push_str(&render(header.to_vec(), &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&render(sep.iter().map(String::as_str).collect(), &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let t = text_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        // The value column starts at the same offset on every row.
        let offset = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][offset..offset + 1], "1");
        assert_eq!(&lines[3][offset..offset + 2], "22");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_rejected() {
        text_table(&["one"], &[vec!["1".into(), "2".into()]]);
    }
}
