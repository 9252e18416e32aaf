//! Plain-text table formatting for the figure-regeneration binaries.
//!
//! Every figure prints its data as an aligned text table, so the output is
//! directly comparable with the paper's plots without a plotting
//! dependency.

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// Format rows (first row = header) as an aligned text table.
///
/// `aligns` gives per-column alignment; columns beyond its length default
/// to right alignment.
pub fn format_table(rows: &[Vec<String>], aligns: &[Align]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let a = aligns.get(i).copied().unwrap_or(Align::Right);
            let w = widths[i];
            let padded = match a {
                Align::Left => format!("{cell:<w$}"),
                Align::Right => format!("{cell:>w$}"),
            };
            line.push_str(&padded);
            if i + 1 < row.len() {
                line.push_str("  ");
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["name".into(), "value".into()],
            vec!["pi2".into(), "1.5".into()],
            vec!["pie-long".into(), "10".into()],
        ]
    }

    #[test]
    fn table_aligns_columns() {
        let t = format_table(&rows(), &[Align::Left, Align::Right]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("pi2"));
        // Numbers right-aligned to the same column end.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(format_table(&[], &[]), "");
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let ragged = vec![
            vec!["a".into(), "b".into(), "c".into()],
            vec!["only-one".into()],
        ];
        let t = format_table(&ragged, &[Align::Left]);
        assert!(t.contains("only-one"));
    }
}
